"""Corpus chunking and the random-access sequence store.

Documents are split into consecutive fixed-length chunks of ids that never
cross a document boundary; a short final tail is kept only when it reaches
min_tail. Sequences are persisted as plain id sequences in a length-prefixed
binary store with a side index of byte offsets at `<store>.idx`, which a
reader loads once as its offset table; store_head reads a store's first
sequences without numpy. Every artifact writer in warmstart opens its
target through `replacing`, so a file appears only whole.
"""

from __future__ import annotations

import mmap
import os
import shutil
import stat
import struct
from array import array
from contextlib import contextmanager, suppress
from typing import Iterable, Iterator, Sequence

from .errors import WarmstartError

STORE_MAGIC = b"SEQS"
INDEX_MAGIC = b"SEQI"
STORE_VERSION = 1

DEFAULT_SEQ_LEN = 512
DEFAULT_MIN_TAIL = 16
WINDOW_RECORDS = 4096  # length prefixes read between drops of the mapped pages


class CorpusError(WarmstartError):
    pass


class StoreFormatError(CorpusError):
    pass


def check_chunking(seq_len: int, min_tail: int) -> None:
    """Fail unless chunk_corpus accepts this chunk length and tail minimum."""
    if seq_len < 2:
        raise CorpusError(f"seq_len must be at least 2, got {seq_len}")
    if not 2 <= min_tail <= seq_len:  # a sequence of one id cannot be masked
        raise CorpusError(f"min_tail must be in [2, {seq_len}], got {min_tail}")


def chunk_corpus(
    docs: Iterable[Sequence[int]],
    seq_len: int = DEFAULT_SEQ_LEN,
    min_tail: int = DEFAULT_MIN_TAIL,
) -> Iterator[Sequence[int]]:
    """Yield consecutive non-overlapping chunks of seq_len ids per document,
    each as a slice of its document.

    The final partial chunk of a document is yielded only when its length is
    at least min_tail. Documents are never concatenated, so no sequence
    spans two of them.
    """
    check_chunking(seq_len, min_tail)
    for doc in docs:
        for start in range(0, len(doc), seq_len):
            chunk = doc[start : start + seq_len]
            if len(chunk) >= min_tail:  # a full chunk always passes: min_tail <= seq_len
                yield chunk


def default_index_path(store_path) -> str:
    return str(store_path) + ".idx"


def is_special_file(path) -> bool:
    """True when `path` exists and is not a regular file: a FIFO, a pipe such
    as /dev/stdout in a pipeline, or a character device. The unresolved path
    is stat-ed, since a pipe's /proc link does not resolve to a path."""
    try:
        return not stat.S_ISREG(os.stat(path).st_mode)
    except OSError:
        return False


@contextmanager
def replacing(path, mode="wb", **kwargs):
    """Open a temp file beside `path` that replaces it only when the block
    succeeds. The temp file takes an existing target's permission bits
    before anything is written to it. A target that is not a regular file
    (see is_special_file) is opened directly. A symlink is followed, not
    replaced."""
    if is_special_file(path):
        with open(path, mode, **kwargs) as f:
            yield f
        return
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            with suppress(FileNotFoundError):
                shutil.copymode(path, tmp)
            yield f
        os.replace(tmp, path)
    finally:
        with suppress(FileNotFoundError):
            os.unlink(tmp)


@contextmanager
def store_writer(path):
    """Yield `append(rows)`, which streams rows into the store and its side
    index and returns the count so far. A row is one sequence's ids as
    little-endian u32 in a contiguous buffer (`bytes` or a `<u4` numpy view);
    an empty row, or a size not a multiple of 4, is a CorpusError. Both files
    replace their targets only when the block succeeds; see write_store."""
    head = struct.pack("<IQ", STORE_VERSION, 0)
    with replacing(path) as store, replacing(default_index_path(path)) as index:
        store.write(STORE_MAGIC + head)
        index.write(INDEX_MAGIC + head)

        def append(rows) -> int:
            for row in rows:
                size = memoryview(row).nbytes
                if not size or size % 4:
                    raise CorpusError(f"cannot store a sequence of {size} bytes")
                index.write(struct.pack("<Q", store.tell()))
                store.writelines((struct.pack("<I", size // 4), row))
            return (index.tell() - 16) // 8  # one u64 offset per sequence after the header

        yield append
        count = struct.pack("<Q", append(()))  # appending no rows gives the count
        for f in (store, index):
            f.seek(8)
            f.write(count)


def write_store(seqs: Iterable[Sequence[int]], path) -> int:
    """Stream id sequences to a store file, returning the count written.

    Layout: "SEQS", u32 version, u64 count, then per sequence a u32 length
    followed by that many u32 ids, all little-endian, packed here for
    store_writer. The count is patched in after streaming, so the input can
    be a generator. A side index ("SEQI", version, count, u64 absolute
    offsets) is written next to the store, at default_index_path(path).
    """
    with store_writer(path) as append:
        return append(struct.pack(f"<{len(ids)}I", *ids) for ids in seqs)


def _header_count(path, header: bytes, magic: bytes, kind: str) -> int:
    """The sequence count of a store or index header, once it is checked."""
    if len(header) < 16 or header[:4] != magic:
        raise StoreFormatError(f"{path}: not a {kind} (bad magic)")
    version, count = struct.unpack("<IQ", header[4:16])
    if version != STORE_VERSION:
        raise StoreFormatError(f"{path}: unsupported version {version}")
    return count


def _store_header(path, f) -> int:
    """The sequence count in the store header at the start of `f`. Each
    record takes at least its u32 length prefix, so a regular file too short
    for the count is a truncated store; a pipe is read no further."""
    count = _header_count(path, f.read(16), STORE_MAGIC, "sequence store")
    st = os.fstat(f.fileno())
    if stat.S_ISREG(st.st_mode) and count > (st.st_size - 16) // 4:
        raise StoreFormatError(f"{path}: truncated store")
    return count


def _index_header(path, f, count: int) -> None:
    """Check the side index open as `f` against a store of `count`
    sequences: its header must hold that count, and a regular file must be
    long enough for as many offsets."""
    found = _header_count(path, f.read(16), INDEX_MAGIC, "store index")
    if found != count:
        raise StoreFormatError(f"{path}: index holds {found} offsets but store has "
                               f"{count} sequences")
    st = os.fstat(f.fileno())
    if stat.S_ISREG(st.st_mode) and st.st_size < 16 + 8 * count:
        raise StoreFormatError(f"{path}: truncated index")


def store_count(path) -> int:
    """The sequence count in a store's 16-byte header, bounded by the size
    of a regular file; nothing else is read."""
    with open(path, "rb") as f:
        return _store_header(path, f)


def store_head(path, n: int) -> list[tuple[int, ...]]:
    """The ids of a store's first n sequences (all of them if it holds
    fewer), read without numpy. They get the checks SequenceStoreReader
    makes when it opens, with its messages, as far as these records go: the
    header's count, then the side index's count and size and its first n
    offsets, chained from byte 16, or else the walk of their length
    prefixes. A stale offset past them is found when the reader opens."""
    with open(path, "rb") as f:
        count, mapping = _map_store(path, f)
        head, index, offsets = min(n, count), default_index_path(path), None
        with mapping:
            if os.path.exists(index):
                with open(index, "rb") as g:
                    _index_header(index, g, count)
                    offsets = struct.unpack(f"<{head}Q", g.read(8 * head))
            bounds = _walk(path, mapping, head, offsets)
        rows = []
        for start, end in zip(bounds, bounds[1:]):
            data = os.pread(f.fileno(), end - start - 4, start + 4)
            if len(data) != end - start - 4:
                raise StoreFormatError(f"{path}: store changed while open")
            rows.append(struct.unpack(f"<{len(data) // 4}I", data))
        return rows


def _map_store(path, f) -> tuple[int, mmap.mmap]:
    """The checked header count of the store open as `f`, and the store
    mapped, which only a regular file can be."""
    if not stat.S_ISREG(os.fstat(f.fileno()).st_mode):
        raise StoreFormatError(f"{path}: not a regular file")
    count = _store_header(path, f)
    return count, mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)


def _walk(path, mapping, count: int, offsets=None) -> array:
    """Byte 16, then where each of the first `count` records of the mapped
    store ends, by one walk of their length prefixes that drops the mapped
    pages every WINDOW_RECORDS. Given the index's first offsets, each must
    be where its record starts, and any fault is a stale index."""
    stale = offsets is not None and StoreFormatError(
        f"{default_index_path(path)}: stale index, offsets do not chain through the store")
    prefix = struct.Struct("<I").unpack_from
    bounds, end, size = array("Q", [16]), 16, len(mapping)
    for i in range(count):
        if stale and offsets[i] != end:
            raise stale
        if end + 4 > size:
            raise stale or StoreFormatError(f"{path}: truncated store")
        end += 4 + 4 * prefix(mapping, end)[0]
        if end > size:
            raise stale or StoreFormatError(f"{path}: truncated sequence {i}")
        bounds.append(end)
        if i % WINDOW_RECORDS == WINDOW_RECORDS - 1:
            _drop_pages(mapping)
    return bounds


def _drop_pages(mapping) -> None:
    """Unmap the pages this process has read of a store mapping; the page
    cache keeps them. Called after each window of length prefixes, it keeps
    earlier windows' pages from staying resident while the store opens."""
    if hasattr(mmap, "MADV_DONTNEED"):
        mapping.madvise(mmap.MADV_DONTNEED)


class SequenceStoreReader:
    """Random and sequential access to a store file.

    The reader's one per-sequence array is its offset table: `count + 1` u64
    byte offsets, entry i where record i's length prefix starts and the last
    where the last record ends. Opening the store reads it from the side
    index, checked to chain from byte 16 through each length prefix to
    inside the file, or else takes it from _walk, the walk of the prefixes
    that store_head makes. Either pass reads the prefixes from the store's
    mapping, dropping the mapped pages after each WINDOW_RECORDS of them,
    and the mapping is gone once the reader is open, so no worker forked
    later inherits it. Ids are then read with one pread per sequence, so the
    store is never resident as a whole: a page fault can map far more of the
    file than the few words it reads. The reader's methods import numpy
    where they use it; the writer needs only `struct`.
    """

    _file = None  # until __init__ opens the store

    def __init__(self, path):
        import numpy as np

        self.path = path
        self._file = open(path, "rb", buffering=0)
        self.count, mapping = _map_store(path, self._file)
        # The mapping is unmapped when this local goes; closing it by hand
        # would fail while a format error's traceback still holds a view of it.
        if os.path.exists(default_index_path(path)):
            self._offsets = self._check_index(mapping)
        else:
            self._offsets = np.frombuffer(_walk(path, mapping, self.count), np.uint64)

    def _check_index(self, mapping) -> np.ndarray:
        """The offset table, read from the side index. It stays unsigned: an
        offset of 2**63 or more read as int64 would index `words` from the end."""
        import numpy as np

        path, n, count = default_index_path(self.path), len(mapping) // 4, self.count
        words = np.frombuffer(mapping, dtype="<u4", count=n)
        with open(path, "rb") as f:
            _index_header(path, f, count)
            table = np.full(count + 1, 16, dtype="<u8")  # an empty store ends at byte 16
            if f.readinto(table[:-1]) != 8 * count:
                raise StoreFormatError(f"{path}: truncated index")
        for lo in range(0, count, WINDOW_RECORDS):
            hi = min(lo + WINDOW_RECORDS, count)
            starts = table[lo:hi]
            ends = starts + 4 + 4 * words[np.minimum(starts // 4, n - 1)].astype(np.uint64)
            _drop_pages(mapping)
            if hi == count:
                table[-1] = ends[-1]  # the last record's end, by its prefix
            if not (table[0] == 16 and np.all(ends <= 4 * n)
                    and np.array_equal(table[lo + 1 : hi + 1], ends)):
                raise StoreFormatError(f"{path}: stale index, offsets do not chain through the store")
        return table

    def read(self, index: int) -> list[int]:
        return self.gather([index])[0].tolist()

    def gather(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """The ids of the given sequences, concatenated in that order, and
        each one's length: each sequence is read straight into one array, no
        objects per sequence."""
        import numpy as np

        indices = np.asarray(indices, dtype=np.int64)
        bad = indices[(indices < 0) | (indices >= self.count)]
        if len(bad):
            raise IndexError(f"sequence index {bad[0]} out of range (count={self.count})")
        starts = self._offsets[indices]
        lengths = (self._offsets[indices + 1] - starts).astype(np.int64) // 4 - 1
        ids = np.empty(int(lengths.sum()), dtype="<u4")
        fd, out, pos = self._file.fileno(), memoryview(ids).cast("B"), 0
        for start, n in zip(starts.tolist(), lengths.tolist()):
            if os.preadv(fd, [out[pos : pos + 4 * n]], start + 4) != 4 * n:
                raise StoreFormatError(f"{self.path}: store changed while open")
            pos += 4 * n
        return ids, lengths

    def __del__(self):
        if self._file is not None:
            self._file.close()

    def __iter__(self) -> Iterator[list[int]]:
        return (self.read(i) for i in range(self.count))

    def lengths(self) -> list[int]:
        """Sequence lengths in order, without materializing ids."""
        return ((self._offsets[1:] - self._offsets[:-1]) // 4 - 1).tolist()

"""Corpus chunking and the random-access sequence store.

Documents are split into consecutive fixed-length chunks that never cross a
document boundary; a short final tail is kept only when it reaches min_tail.
Sequences are persisted in a length-prefixed binary store with a side index
of byte offsets at `<store>.idx` for O(1) reads. Every artifact writer in
warmstart opens its target through `replacing`, so a file appears only whole.
"""

from __future__ import annotations

import mmap
import os
import shutil
import stat
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import WarmstartError

STORE_MAGIC = b"SEQS"
INDEX_MAGIC = b"SEQI"
STORE_VERSION = 1

DEFAULT_SEQ_LEN = 512
DEFAULT_MIN_TAIL = 16
WINDOW_RECORDS = 4096  # length prefixes read between releases of the mapping


class CorpusError(WarmstartError):
    pass


class StoreFormatError(CorpusError):
    pass


@dataclass
class TokenSequence:
    ids: list[int]
    source_doc: Optional[int] = None
    seq_index: Optional[int] = None

    def __len__(self) -> int:
        return len(self.ids)


def check_chunking(seq_len: int, min_tail: int) -> None:
    """Fail unless chunk_corpus accepts this chunk length and tail minimum."""
    if seq_len < 2:
        raise CorpusError(f"seq_len must be at least 2, got {seq_len}")
    if not 0 <= min_tail <= seq_len:
        raise CorpusError(f"min_tail must be in [0, {seq_len}], got {min_tail}")


def chunk_corpus(
    docs: Iterable[list[int]],
    seq_len: int = DEFAULT_SEQ_LEN,
    min_tail: int = DEFAULT_MIN_TAIL,
) -> Iterator[TokenSequence]:
    """Yield consecutive non-overlapping chunks of seq_len per document.

    The final partial chunk of a document is yielded only when its length is
    at least min_tail (set min_tail=0 to keep everything). Documents are
    never concatenated, so no sequence spans two of them.
    """
    check_chunking(seq_len, min_tail)
    seq_index = 0
    for doc_ordinal, doc in enumerate(docs):
        for start in range(0, len(doc), seq_len):
            chunk = doc[start : start + seq_len]
            if len(chunk) >= min_tail:  # a full chunk always passes: min_tail <= seq_len
                yield TokenSequence(ids=list(chunk), source_doc=doc_ordinal, seq_index=seq_index)
                seq_index += 1


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
    """Yield `append(ids)`, which streams one sequence into the store and its
    side index and returns the count so far. Both replace their targets only
    when the block succeeds; see write_store for the layout."""
    head = struct.pack("<IQ", STORE_VERSION, 0)
    with replacing(path) as store, replacing(default_index_path(path)) as index:
        store.write(STORE_MAGIC + head)
        index.write(INDEX_MAGIC + head)
        count = 0

        def append(ids) -> int:
            nonlocal count
            if not ids:
                raise CorpusError("cannot store an empty sequence")
            index.write(struct.pack("<Q", store.tell()))
            store.write(struct.pack(f"<I{len(ids)}I", len(ids), *ids))
            count += 1
            return count

        yield append
        for f in (store, index):
            f.seek(8)
            f.write(struct.pack("<Q", count))


def write_store(seqs: Iterable[TokenSequence], path) -> int:
    """Stream sequences to a store file, returning the count written.

    Layout: "SEQS", u32 version, u64 count, then per sequence a u32 length
    followed by that many u32 ids, all little-endian. The count is patched
    into the header after streaming so the input can be a generator. A side
    index ("SEQI", version, count, u64 absolute offsets) is written next to
    the store, at default_index_path(path).
    """
    count = 0
    with store_writer(path) as append:
        for seq in seqs:
            count = append(seq.ids)
    return count


def _header_count(path, header: bytes, magic: bytes, kind: str) -> int:
    """The sequence count of a store or index header, once it is checked."""
    if len(header) < 16 or header[:4] != magic:
        raise StoreFormatError(f"{path}: not a {kind} (bad magic)")
    version, count = struct.unpack("<IQ", header[4:16])
    if version != STORE_VERSION:
        raise StoreFormatError(f"{path}: unsupported version {version}")
    return count


class SequenceStoreReader:
    """Random and sequential access to a store file.

    Sequence offsets come from the side index when present, checked to chain
    from the first record through each length prefix to inside the file;
    otherwise one walk of the length prefixes finds them on first use. Either
    pass reads the prefixes from the store mapped as u32 words, WINDOW_RECORDS
    at a time, releasing the mapped pages after each window, and keeps the
    offsets and lengths in memory. Ids are then read with one pread per
    sequence, so the store is never resident as a whole: a page fault can map
    far more of the file than the few words it reads.
    """

    _file = None  # until __init__ opens the store

    def __init__(self, path):
        self.path = path
        self._file = open(path, "rb", buffering=0)
        self.count = _header_count(path, self._file.read(16), STORE_MAGIC, "sequence store")
        self._map = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        self._words = np.frombuffer(self._map, dtype="<u4", count=len(self._map) // 4)
        self._starts: Optional[np.ndarray] = None  # word offset of each length prefix
        self._lengths: Optional[np.ndarray] = None  # int64, the value of each prefix
        with suppress(FileNotFoundError):
            self._load_index(default_index_path(path))

    def _load_index(self, path) -> None:
        with open(path, "rb") as f:
            raw = f.read()
        count = _header_count(path, raw, INDEX_MAGIC, "store index")
        if count != self.count:
            raise StoreFormatError(f"{path}: index holds {count} offsets but store has "
                                   f"{self.count} sequences")
        if len(raw) < 16 + 8 * count:
            raise StoreFormatError(f"{path}: truncated index")
        offsets = np.frombuffer(raw, "<u8", count=count, offset=16)
        # Each offset must be the end of the record before it (the first
        # record starts at byte 16), and the last record must end in the file.
        starts, n = offsets // 4, len(self._words)
        prefixes = np.empty(count, dtype=np.uint32)
        for lo in range(0, count, WINDOW_RECORDS):
            window = slice(lo, lo + WINDOW_RECORDS)
            prefixes[window] = self._words[np.minimum(starts[window], n - 1)]
            self.release()
        ends = starts + 1 + prefixes
        if count and not (offsets[0] == 16 and ends[-1] <= n
                          and np.array_equal(offsets[1:], 4 * ends[:-1])):
            raise StoreFormatError(f"{path}: stale index, offsets do not chain through the store")
        self._starts, self._lengths = starts.astype(np.int64), prefixes.astype(np.int64)

    def _offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """Word offset and length of every sequence: from the index, or else
        from one checked walk of the store."""
        if self._starts is None:
            starts = np.empty(self.count, dtype=np.int64)
            lengths = np.empty(self.count, dtype=np.int64)
            w, n = 4, len(self._words)
            for i in range(self.count):
                if w >= n:
                    raise StoreFormatError(f"{self.path}: truncated store")
                starts[i], lengths[i] = w, self._words[w]
                w += 1 + int(lengths[i])
                if w > n:
                    raise StoreFormatError(f"{self.path}: truncated sequence {i}")
                if i % WINDOW_RECORDS == WINDOW_RECORDS - 1:
                    self.release()
            self.release()
            self._starts, self._lengths = starts, lengths
        return self._starts, self._lengths

    def read(self, index: int) -> TokenSequence:
        if not 0 <= index < self.count:
            raise IndexError(f"sequence index {index} out of range (count={self.count})")
        return TokenSequence(ids=self.gather([index])[0].tolist(), seq_index=index)

    def gather(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """The ids of the given sequences, concatenated in that order, and
        each one's length: each sequence is read straight into one array, no
        objects per sequence."""
        indices = np.asarray(indices, dtype=np.int64)
        if len(indices) and not (indices.min() >= 0 and indices.max() < self.count):
            raise IndexError(f"sequence index out of range (count={self.count})")
        starts, lengths = (a[indices] for a in self._offsets())
        ids = np.empty(int(lengths.sum()), dtype="<u4")
        fd, out, pos = self._file.fileno(), memoryview(ids).cast("B"), 0
        for start, n in zip(starts.tolist(), lengths.tolist()):
            if os.preadv(fd, [out[pos : pos + 4 * n]], 4 * start + 4) != 4 * n:
                raise StoreFormatError(f"{self.path}: store changed while open")
            pos += 4 * n
        return ids, lengths

    def release(self) -> None:
        """Unmap the pages this process has read; the page cache keeps them
        and later reads map them back in. Called after each window of length
        prefixes, it keeps earlier windows' pages from staying resident, or
        being counted again in every worker forked later."""
        if hasattr(mmap, "MADV_DONTNEED"):
            self._map.madvise(mmap.MADV_DONTNEED)

    def __del__(self):
        if self._file is not None:
            self._file.close()

    def __iter__(self) -> Iterator[TokenSequence]:
        return (self.read(i) for i in range(self.count))

    def __len__(self) -> int:
        return self.count

    def lengths(self) -> list[int]:
        """Sequence lengths in order, without materializing ids."""
        return self._offsets()[1].tolist()


def read_store(path, index: int) -> TokenSequence:
    """One-shot random read; prefer SequenceStoreReader for repeated access."""
    return SequenceStoreReader(path).read(index)

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
    if seq_len < 2:
        raise CorpusError(f"seq_len must be at least 2, got {seq_len}")
    if not 0 <= min_tail <= seq_len:
        raise CorpusError(f"min_tail must be in [0, {seq_len}], got {min_tail}")
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
    """Random and sequential access to a store file, mapped once as u32 words.
    Every read copies its ids out of the mapping, so release() can drop the
    mapped pages between reads.

    Sequence offsets come from the side index when present, checked to chain
    from the first record through each length prefix to inside the file;
    otherwise one walk of the length prefixes finds them on first use.
    """

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as f:
            self.count = _header_count(path, f.read(16), STORE_MAGIC, "sequence store")
            self._map = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        self._words = np.frombuffer(self._map, dtype="<u4", count=len(self._map) // 4)
        self._starts: Optional[np.ndarray] = None  # word offset of each length prefix
        with suppress(FileNotFoundError):
            self._starts = self._load_index(default_index_path(path))

    def _load_index(self, path) -> np.ndarray:
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
        ends = starts + 1 + self._words[np.minimum(starts, n - 1)]
        if count and not (offsets[0] == 16 and ends[-1] <= n
                          and np.array_equal(offsets[1:], 4 * ends[:-1])):
            raise StoreFormatError(f"{path}: stale index, offsets do not chain through the store")
        return starts

    def _word_starts(self) -> np.ndarray:
        """Offsets from the index, or else from one checked walk of the store."""
        if self._starts is None:
            starts = np.empty(self.count, dtype=np.uint64)
            w, n = 4, len(self._words)
            for i in range(self.count):
                if w >= n:
                    raise StoreFormatError(f"{self.path}: truncated store")
                starts[i] = w
                w += 1 + int(self._words[w])
                if w > n:
                    raise StoreFormatError(f"{self.path}: truncated sequence {i}")
            self._starts = starts
        return self._starts

    def read(self, index: int) -> TokenSequence:
        if not 0 <= index < self.count:
            raise IndexError(f"sequence index {index} out of range (count={self.count})")
        w = int(self._word_starts()[index]) + 1
        ids = self._words[w : w + int(self._words[w - 1])].tolist()
        return TokenSequence(ids=ids, seq_index=index)

    def gather(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """The ids of the given sequences, concatenated in that order, and
        each one's length: one gather from the mapped words, no objects per
        sequence."""
        indices = np.asarray(indices, dtype=np.int64)
        if len(indices) and not (indices.min() >= 0 and indices.max() < self.count):
            raise IndexError(f"sequence index out of range (count={self.count})")
        starts = self._word_starts()[indices].astype(np.int64) + 1
        lengths = self._words[starts - 1].astype(np.int64)
        skips = starts - (np.cumsum(lengths) - lengths)  # word offset minus output offset
        return self._words[np.arange(lengths.sum()) + np.repeat(skips, lengths)], lengths

    def release(self) -> None:
        """Unmap the pages this process has read; the page cache keeps them
        and later reads map them back in. Called after each run of reads, it
        keeps earlier runs' pages from staying resident, or being counted
        again in every worker forked later."""
        if hasattr(mmap, "MADV_DONTNEED"):
            self._map.madvise(mmap.MADV_DONTNEED)

    def __iter__(self) -> Iterator[TokenSequence]:
        return (self.read(i) for i in range(self.count))

    def __len__(self) -> int:
        return self.count

    def lengths(self) -> list[int]:
        """Sequence lengths in order, without materializing ids."""
        return self._words[self._word_starts()].tolist()


def read_store(path, index: int) -> TokenSequence:
    """One-shot random read; prefer SequenceStoreReader for repeated access."""
    return SequenceStoreReader(path).read(index)

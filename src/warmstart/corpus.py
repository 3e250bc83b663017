"""Corpus chunking and the random-access sequence store.

Documents are split into consecutive fixed-length chunks that never cross a
document boundary; a short final tail is kept only when it reaches min_tail.
Sequences are persisted in a length-prefixed binary store with an optional
side index of byte offsets for O(1) reads.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

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
        n = len(doc)
        full_end = (n // seq_len) * seq_len
        for start in range(0, full_end, seq_len):
            yield TokenSequence(
                ids=list(doc[start : start + seq_len]),
                source_doc=doc_ordinal,
                seq_index=seq_index,
            )
            seq_index += 1
        tail = n - full_end
        if 0 < tail and tail >= min_tail:
            yield TokenSequence(
                ids=list(doc[full_end:]),
                source_doc=doc_ordinal,
                seq_index=seq_index,
            )
            seq_index += 1


def default_index_path(store_path) -> str:
    return str(store_path) + ".idx"


def write_store(seqs: Iterable[TokenSequence], path, index_path=None) -> int:
    """Stream sequences to a store file, returning the count written.

    Layout: "SEQS", u32 version, u64 count, then per sequence a u32 length
    followed by that many u32 ids, all little-endian. The count is patched
    into the header after streaming so the input can be a generator. A side
    index ("SEQI", version, count, u64 absolute offsets) is written next to
    the store unless index_path is given.
    """
    if index_path is None:
        index_path = default_index_path(path)
    offsets: list[int] = []
    count = 0
    with open(path, "wb") as f:
        f.write(STORE_MAGIC + struct.pack("<IQ", STORE_VERSION, 0))
        for seq in seqs:
            if not seq.ids:
                raise CorpusError("cannot store an empty sequence")
            offsets.append(f.tell())
            f.write(struct.pack("<I", len(seq.ids)))
            f.write(struct.pack(f"<{len(seq.ids)}I", *seq.ids))
            count += 1
        f.seek(4 + 4)
        f.write(struct.pack("<Q", count))
    with open(index_path, "wb") as f:
        f.write(INDEX_MAGIC + struct.pack("<IQ", STORE_VERSION, count))
        f.write(struct.pack(f"<{count}Q", *offsets))
    return count


class SequenceStoreReader:
    """Random and sequential access to a store file.

    Uses the side index when present; otherwise a single sequential scan
    builds offsets on first random access.
    """

    def __init__(self, path, index_path=None):
        self.path = path
        with open(path, "rb") as f:
            header = f.read(16)
        if len(header) < 16 or header[:4] != STORE_MAGIC:
            raise StoreFormatError(f"{path}: not a sequence store (bad magic)")
        version, count = struct.unpack("<IQ", header[4:16])
        if version != STORE_VERSION:
            raise StoreFormatError(f"{path}: unsupported version {version}")
        self.count = count
        self._offsets: Optional[list[int]] = None
        candidate = default_index_path(path) if index_path is None else index_path
        try:
            self._offsets = self._load_index(candidate, count)
        except FileNotFoundError:
            if index_path is not None:
                raise

    @staticmethod
    def _load_index(path, expected_count: int) -> list[int]:
        with open(path, "rb") as f:
            header = f.read(16)
            if len(header) < 16 or header[:4] != INDEX_MAGIC:
                raise StoreFormatError(f"{path}: not a store index (bad magic)")
            version, count = struct.unpack("<IQ", header[4:16])
            if version != STORE_VERSION:
                raise StoreFormatError(f"{path}: unsupported version {version}")
            if count != expected_count:
                raise StoreFormatError(
                    f"{path}: index holds {count} offsets but store has "
                    f"{expected_count} sequences"
                )
            payload = f.read(8 * count)
        if len(payload) != 8 * count:
            raise StoreFormatError(f"{path}: truncated index")
        return list(struct.unpack(f"<{count}Q", payload))

    def _scan(self, f) -> Iterator[tuple[int, int, int]]:
        """Walk the length prefixes of open store `f`, yielding
        (index, offset, length) per sequence.

        Each sequence is checked to fit inside the file before it is
        yielded, and the walk seeks to the next absolute offset itself, so a
        caller may read the payload or not.
        """
        size = os.fstat(f.fileno()).st_size
        offset = 16
        for i in range(self.count):
            f.seek(offset)
            raw = f.read(4)
            if len(raw) != 4:
                raise StoreFormatError(f"{self.path}: truncated store")
            (length,) = struct.unpack("<I", raw)
            end = offset + 4 + 4 * length
            if end > size:
                raise StoreFormatError(f"{self.path}: truncated sequence {i}")
            yield i, offset, length
            offset = end

    def read(self, index: int) -> TokenSequence:
        if not 0 <= index < self.count:
            raise IndexError(
                f"sequence index {index} out of range (count={self.count})"
            )
        if self._offsets is None:
            with open(self.path, "rb") as f:
                self._offsets = [offset for _, offset, _ in self._scan(f)]
        with open(self.path, "rb") as f:
            f.seek(self._offsets[index])
            (length,) = struct.unpack("<I", f.read(4))
            payload = f.read(4 * length)
            if len(payload) != 4 * length:
                raise StoreFormatError(f"{self.path}: truncated sequence {index}")
            ids = list(struct.unpack(f"<{length}I", payload))
        return TokenSequence(ids=ids, seq_index=index)

    def __iter__(self) -> Iterator[TokenSequence]:
        with open(self.path, "rb") as f:
            for i, _, length in self._scan(f):
                ids = struct.unpack(f"<{length}I", f.read(4 * length))
                yield TokenSequence(ids=list(ids), seq_index=i)

    def __len__(self) -> int:
        return self.count

    def lengths(self) -> list[int]:
        """Sequence lengths in order, without materializing ids."""
        with open(self.path, "rb") as f:
            return [length for _, _, length in self._scan(f)]


def read_store(path, index: int, index_path=None) -> TokenSequence:
    """One-shot random read; prefer SequenceStoreReader for repeated access."""
    return SequenceStoreReader(path, index_path=index_path).read(index)

"""Embedding transplantation: a warm-start matrix for a new vocabulary.

Each target token's row is the arithmetic mean of the source-model embedding
rows for the greedy tokenization of its English rendering. Special tokens are
copied by role (pad to pad, sentinel k to sentinel k) because the downstream
model addresses them by role, not by surface string.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .corpus import replacing
from .errors import WarmstartError
from .translate import TranslationOutcome, TranslationTable, needs_translation, normalize_token
from .vocab import Vocabulary, tokenize_greedy

EMBEDDING_MAGIC = b"EMBT"
EMBEDDING_VERSION = 1
ROW_CHUNK = 256  # rows built per block; bounds the float64 temporaries


class TransplantError(WarmstartError):
    pass


class EmbeddingFormatError(TransplantError):
    pass


class EmbeddingMatrix:
    """Dense float32 matrix, one row per token id. Always C-contiguous."""

    def __init__(self, data: np.ndarray):
        arr = np.ascontiguousarray(data, dtype=np.float32)
        if arr.ndim != 2:
            raise TransplantError(f"embedding matrix must be 2-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise TransplantError("embedding matrix contains NaN or Inf")
        self.data = arr

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingMatrix):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(
            (self.data == other.data).all()
        )

    def __repr__(self) -> str:
        return f"EmbeddingMatrix(rows={self.rows}, dim={self.dim})"


def write_embeddings(matrix: EmbeddingMatrix, path) -> None:
    """Binary layout: "EMBT", u32 version, u32 rows, u32 dim, then rows*dim
    float32 values, row-major. All fields little-endian."""
    header = EMBEDDING_MAGIC + struct.pack(
        "<III", EMBEDDING_VERSION, matrix.rows, matrix.dim
    )
    with replacing(path) as f:
        f.write(header)
        f.write(matrix.data.astype("<f4", copy=False))  # no copy: data is C-contiguous


def read_embeddings(path) -> EmbeddingMatrix:
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) < 16 or header[:4] != EMBEDDING_MAGIC:
            raise EmbeddingFormatError(f"{path}: not an embedding file (bad magic)")
        version, rows, dim = struct.unpack("<III", header[4:16])
        if version != EMBEDDING_VERSION:
            raise EmbeddingFormatError(f"{path}: unsupported version {version}")
        # A regular file is sized before the payload array is allocated; a
        # pipe can only be read into it and checked after.
        expected = rows * dim * 4
        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size - 16 != expected:
            raise EmbeddingFormatError(
                f"{path}: payload is {st.st_size - 16} bytes, expected {expected}")
        try:
            data = np.empty(rows * dim, dtype="<f4")
        except (MemoryError, ValueError):
            raise EmbeddingFormatError(
                f"{path}: header claims {rows} x {dim} floats, too many to allocate") from None
        got = f.readinto(data)
        if got != expected:
            raise EmbeddingFormatError(f"{path}: payload is {got} bytes, expected {expected}")
        if f.read(1):
            raise EmbeddingFormatError(
                f"{path}: payload is longer than the {expected} bytes expected")
    return EmbeddingMatrix(data.reshape(rows, dim))


@dataclass
class TransplantReport:
    """Tallies of which path produced each target row.

    translated + failed + bypassed + specials_copied == total. ``bypassed``
    counts FAILED entries whose token never needed a provider (digits,
    punctuation); ``failed`` counts genuine translation failures.
    ``mean_pieces_per_token`` is exact, over non-special tokens only, None
    when the target has no such tokens. ``unk_only_count`` tallies rows that
    collapsed to the unknown-token embedding.
    """

    total_tokens: int
    translated_count: int
    failed_count: int
    bypassed_count: int
    specials_copied: int
    mean_pieces_per_token: Optional[Fraction]
    unk_only_count: int

    def as_dict(self) -> dict:
        mean = self.mean_pieces_per_token
        return {
            "total_tokens": self.total_tokens,
            "translated_count": self.translated_count,
            "failed_count": self.failed_count,
            "bypassed_count": self.bypassed_count,
            "specials_copied": self.specials_copied,
            "mean_pieces_per_token": None if mean is None else str(mean),
            "mean_pieces_per_token_float": None if mean is None else float(mean),
            "unk_only_count": self.unk_only_count,
        }


def map_token(token: str, outcome: TranslationOutcome, src: Vocabulary) -> list[int]:
    """Source piece ids whose embeddings average into the target row.

    The outcome text (translation, or the token itself on failure) is greedy
    tokenized against the source vocabulary. An empty or all-unknown result
    collapses to [unk_id] so the row inherits the unknown embedding instead
    of a zero vector, which would poison tied output logits.
    """
    pieces = tokenize_greedy(src, outcome.text)
    if not pieces or all(p == src.unk_id for p in pieces):
        return [src.unk_id]
    return pieces


def transplant(
    src_emb: EmbeddingMatrix,
    src: Vocabulary,
    tgt: Vocabulary,
    table: TranslationTable,
) -> tuple[EmbeddingMatrix, TransplantReport]:
    """Build the target embedding matrix and its per-path report.

    One pass maps every target token to its source pieces. Rows are then
    built in blocks of ``ROW_CHUNK`` rows per piece count. Single-piece rows
    copy the source row bit for bit. Multi-piece rows keep the arithmetic
    order of a per-row mean: float64 zeros plus each piece's row in turn,
    one division by the piece count, one cast to float32. That keeps every
    coordinate inside the bounding box of the contributing rows.
    Requires a table entry for every non-special target token.
    """
    if src_emb.rows != src.size:
        raise TransplantError(
            f"embedding matrix has {src_emb.rows} rows but source vocabulary "
            f"has {src.size} tokens"
        )
    if tgt.sentinel_count > src.sentinel_count:
        raise TransplantError(
            f"target needs {tgt.sentinel_count} sentinels but source has "
            f"only {src.sentinel_count}"
        )
    role_copy = {tgt.pad_id: src.pad_id, tgt.eos_id: src.eos_id, tgt.unk_id: src.unk_id}
    for k in range(tgt.sentinel_count):
        role_copy[tgt.sentinel_id(k)] = src.sentinel_id(k)

    translated = failed = bypassed = unk_only = 0
    pieces_total = 0
    counts: list[int] = []  # piece count of each target row
    flat: list[int] = []  # every row's pieces, concatenated in row order
    marker = tgt.boundary_marker
    for t in range(tgt.size):
        if t in role_copy:
            pieces = [role_copy[t]]
        else:
            token = tgt.tokens[t]
            normalized = normalize_token(token, marker)
            outcome = table.get(normalized)
            if outcome is None:
                raise TransplantError(
                    f"no translation entry for token {token!r} (id {t}); "
                    f"run translation to completion first"
                )
            if outcome.ok:
                translated += 1
            elif needs_translation(normalized, marker):
                failed += 1
            else:
                bypassed += 1
            pieces = map_token(token, outcome, src)
            if pieces == [src.unk_id]:
                unk_only += 1
            pieces_total += len(pieces)
        counts.append(len(pieces))
        flat.extend(pieces)

    out = np.empty((tgt.size, src_emb.dim), dtype=np.float32)
    src_data = src_emb.data
    count_arr = np.array(counts, dtype=np.intp)
    flat_arr = np.array(flat, dtype=np.intp)
    starts = np.cumsum(count_arr) - count_arr
    for k in sorted(set(counts)):
        rows = np.flatnonzero(count_arr == k)
        for lo in range(0, len(rows), ROW_CHUNK):
            block = rows[lo:lo + ROW_CHUNK]
            first = starts[block]
            if k == 1:
                out[block] = src_data[flat_arr[first]]
                continue
            acc = np.zeros((len(block), src_emb.dim), dtype=np.float64)
            for j in range(k):
                acc += src_data[flat_arr[first + j]]
            out[block] = (acc / k).astype(np.float32)

    regular_total = tgt.size - len(role_copy)
    report = TransplantReport(
        total_tokens=tgt.size,
        translated_count=translated,
        failed_count=failed,
        bypassed_count=bypassed,
        specials_copied=len(role_copy),
        mean_pieces_per_token=(
            Fraction(pieces_total, regular_total) if regular_total else None
        ),
        unk_only_count=unk_only,
    )
    return EmbeddingMatrix(out), report

"""Just-in-time span corruption with reproducible per-epoch masks.

A mask is a pure function of (seed, epoch, seq_index), whose SHAKE-128
(FIPS 202) stream keys the sequence, so any worker in any order, and in any
run of sequences drawn together, regenerates the identical epoch-e mask
without storing it. Exactly round(rate * len) tokens are masked (clamped to
[1, len-1]); SPAN mode groups them into runs averaging mean_span tokens, IID
mode masks single tokens. Masked runs become sentinels in the input; the
target lists each sentinel with its original tokens, then a closing
sentinel and eos.

make_example corrupts one sequence and is the reference; corrupt_batch gives
the same rows for a whole run, built with index arithmetic over flat arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from hashlib import shake_128
from typing import Iterator, Sequence

import numpy as np

from .corpus import SequenceStoreReader, StoreFormatError, TokenSequence
from .errors import WarmstartError
from .vocab import Vocabulary


class MaskingError(WarmstartError):
    pass


class SentinelBudgetError(MaskingError):
    pass


class MaskMode(Enum):
    SPAN = "span"
    IID = "iid"


@dataclass(frozen=True)
class MaskSpec:
    rate: float = 0.15
    mean_span: float = 3.0
    mode: MaskMode = MaskMode.SPAN

    def __post_init__(self):
        if not 0.0 < self.rate < 1.0:
            raise MaskingError(f"rate must be in (0, 1), got {self.rate}")
        if not 1.0 <= self.mean_span < math.inf:  # also rejects NaN
            raise MaskingError(f"mean_span must be finite and at least 1, got {self.mean_span}")


@dataclass(frozen=True)
class MaskKey:
    """The key of one sequence, or of a run when seq_index is a sequence."""

    seed: int
    epoch: int
    seq_index: int | Sequence[int]

    def __post_init__(self):
        if self.epoch < 0 or np.min(self.seq_index, initial=0) < 0:
            raise MaskingError("epoch and seq_index must be non-negative")


@dataclass(frozen=True)
class MaskedExample:
    input_ids: list[int]
    target_ids: list[int]


def mask_counts(length, spec: MaskSpec) -> tuple:
    """(tokens to mask, spans to group them into) for one sequence, as ints,
    or for each of an array of lengths, as two arrays. Rounding is half to
    even either way."""
    lengths = np.asarray(length, dtype=np.int64)
    if lengths.min() < 2:
        raise MaskingError(f"sequence length must be at least 2, got {lengths.min()}")
    masked = np.clip(np.round(spec.rate * lengths), 1, lengths - 1).astype(np.int64)
    spans = masked if spec.mode is MaskMode.IID else np.clip(
        np.round(masked / spec.mean_span), 1, masked).astype(np.int64)
    return (masked, spans) if np.ndim(length) else (int(masked), int(spans))


@dataclass(frozen=True, eq=False)
class Spans:
    """A run's spans, row after row, and each row's count; iterates as Python-int pairs."""

    bounds: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.bounds)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return map(tuple, self.bounds.tolist())


def draw_mask(length, spec: MaskSpec, key: MaskKey) -> list[tuple[int, int]] | Spans:
    """Sorted, disjoint, non-adjacent inclusive (start, end) spans.

    Position 0 is never masked so the input always opens with a real token.
    When the requested span count cannot fit (each span needs a preceding
    unmasked token), the count is reduced to the largest feasible value.
    The draw is uniform over valid configurations: with m of n tokens masked
    in k spans, span lengths and gap sizes are independent uniform
    compositions (stars and bars), whose k-1 and k bars are the slots of the
    smallest keys among the first m-1 and the other n-m. Given arrays of
    lengths and of key.seq_index, it draws a whole run and returns Spans.
    """
    lengths, indices = np.atleast_1d(length).astype(np.int64), np.atleast_1d(key.seq_index)
    masked, k = mask_counts(lengths, spec)
    k = np.minimum(k, lengths - masked)

    # A slot's sort key is its word with bit 63 set for a gap slot, bit 62
    # clear and the low bits (as many as the row's last slot needs) replaced
    # by the slot, so each row's order is total and its padding sorts last.
    head = (int(key.seed) % 2**64).to_bytes(8, "little") + int(key.epoch).to_bytes(8, "little")
    words = np.frombuffer(b"".join(shake_128(head + i.to_bytes(8, "little")).digest(8 * n - 8)
                                   for i, n in zip(indices.tolist(), lengths.tolist())), "<u8")
    col, low = np.arange(lengths.max() - 1), np.frexp(lengths - 2)[1].astype(np.uint64)
    keys = np.full((len(lengths), len(col)), np.iinfo(np.uint64).max, np.uint64)
    keys[col < (lengths - 1)[:, None]] = words & np.repeat(
        (np.uint64(1) << np.uint64(62)) - (np.uint64(1) << low), lengths - 1)
    keys |= col.astype(np.uint64)
    np.bitwise_or(keys, np.uint64(1 << 63), out=keys, where=col >= (masked - 1)[:, None])

    # Bars from each row's smallest keys, ordered by slot within the row.
    ranked, row = np.sort(keys, axis=1), np.repeat(np.arange(len(lengths)), k)
    i = np.arange(len(row)) - np.repeat(np.cumsum(k) - k, k)  # span i of its row
    first_gap, slot = masked[row] - 1, (np.uint64(1) << low[row]) - np.uint64(1)
    span_bar = np.where(i < k[row] - 1, (ranked[row, i] & slot).astype(np.int64), first_gap)
    gap_bar = (ranked[row, first_gap + i] & slot).astype(np.int64) - first_gap
    span_bar, gap_bar = (np.sort(row << 32 | bar) & 0xFFFF_FFFF for bar in (span_bar, gap_bar))
    # Span i ends at gap bar i + span bar i + 1 and starts at gap bar i +
    # span bar i-1 + 2, where span bar -1 is -1 and span bar k-1 is m-1.
    before = np.where(i == 0, -1, np.roll(span_bar, 1))
    spans = Spans(np.stack([gap_bar + before + 2, gap_bar + span_bar + 1], axis=1), k)
    return spans if np.ndim(length) else list(spans)


def _validate_spans(spans: list[tuple[int, int]], length: int) -> None:
    if not spans:
        raise MaskingError("at least one span is required")
    prev_end = -2
    for start, end in spans:
        if not 0 <= start <= end < length:
            raise MaskingError(f"span ({start}, {end}) out of range for length {length}")
        if start <= prev_end + 1:
            raise MaskingError("spans must be sorted, disjoint and non-adjacent")
        prev_end = end


def _check_sentinel_budget(num_spans: int, vocab: Vocabulary) -> None:
    if num_spans + 1 > vocab.sentinel_count:
        raise SentinelBudgetError(f"{num_spans} spans need {num_spans + 1} sentinels but the "
                                  f"vocabulary reserves only {vocab.sentinel_count}")


def apply_span_corruption(seq: TokenSequence, spans: list[tuple[int, int]],
                          vocab: Vocabulary) -> MaskedExample:
    """Replace each span with a sentinel; pair with the span-recovery target.

    Span k's sentinel is id vocab.size-1-k (ids descend as k ascends). The
    target closes with the last reserved sentinel, id vocab.size -
    sentinel_count, so num_spans + 1 sentinels must be available.
    """
    ids = seq.ids
    _validate_spans(spans, len(ids))
    _check_sentinel_budget(len(spans), vocab)
    input_ids: list[int] = []
    target_ids: list[int] = []
    pos = 0
    for k, (start, end) in enumerate(spans):
        sentinel = vocab.sentinel_id(k)
        input_ids.extend(ids[pos:start])
        input_ids.append(sentinel)
        target_ids.append(sentinel)
        target_ids.extend(ids[start : end + 1])
        pos = end + 1
    input_ids.extend(ids[pos:])
    input_ids.append(vocab.eos_id)
    target_ids.append(vocab.size - vocab.sentinel_count)
    target_ids.append(vocab.eos_id)
    return MaskedExample(input_ids=input_ids, target_ids=target_ids)


def make_example(seq: TokenSequence, spec: MaskSpec, key: MaskKey,
                 vocab: Vocabulary) -> MaskedExample:
    """Draw the mask for (spec, key) and corrupt the sequence with it."""
    spans = draw_mask(len(seq.ids), spec, key)
    return apply_span_corruption(seq, spans, vocab)


@dataclass(frozen=True)
class CorruptedBatch:
    """Corrupted rows as two flat id arrays.

    Row r's input is the input_lengths[r] ids of `inputs` that follow the
    rows before it, and likewise for its target. The lengths alone give what
    batcher.padding_stats reads: rows and the dynamically padded widths.
    """

    inputs: np.ndarray
    input_lengths: list[int]
    targets: np.ndarray
    target_lengths: list[int]

    @property
    def rows(self) -> int:
        return len(self.input_lengths)

    @property
    def width_in(self) -> int:
        return max(self.input_lengths)

    @property
    def width_tgt(self) -> int:
        return max(self.target_lengths)

    def split(self, size: int) -> Iterator[CorruptedBatch]:
        """The rows in consecutive batches of `size` rows."""
        n_in, n_tgt = self.input_lengths, self.target_lengths
        cut_in, cut_tgt = (np.cumsum(n)[size - 1 : -1 : size] for n in (n_in, n_tgt))
        for r, inputs, targets in zip(range(0, self.rows, size), np.split(self.inputs, cut_in),
                                      np.split(self.targets, cut_tgt)):
            yield CorruptedBatch(inputs, n_in[r : r + size], targets, n_tgt[r : r + size])

    def examples(self) -> Iterator[MaskedExample]:
        i = t = 0
        for n_in, n_tgt in zip(self.input_lengths, self.target_lengths):
            yield MaskedExample(self.inputs[i : i + n_in].tolist(),
                                self.targets[t : t + n_tgt].tolist())
            i, t = i + n_in, t + n_tgt


def corrupt_batch(
    reader: SequenceStoreReader, indices: Sequence[int], spec: MaskSpec, seed: int, epoch: int,
    vocab: Vocabulary,
) -> CorruptedBatch:
    """make_example for each stored sequence in `indices`, as one batch.

    The masks of all rows come from one draw_mask call, and a row fails
    with the error make_example gives it; an id outside the vocabulary
    fails first. The rows are then laid end to end, each followed by two
    slots (closing sentinel, eos), and both sides are cut out of that
    layout with masks.
    """
    if not len(indices):
        raise MaskingError("a batch needs at least one sequence")
    tokens, lengths = reader.gather(indices)
    if len(tokens) and tokens.max() >= vocab.size:
        bad = int(np.argmax(tokens >= vocab.size))
        row = int(np.searchsorted(np.cumsum(lengths), bad, side="right"))
        raise StoreFormatError(f"{reader.path}: sequence {indices[row]} holds id "
                               f"{tokens[bad]}, outside a vocabulary of {vocab.size}")
    spans = draw_mask(np.maximum(lengths, 2), spec, MaskKey(seed, epoch, indices))
    for row in np.flatnonzero((lengths < 2) | (spans.counts >= vocab.sentinel_count))[:1]:
        mask_counts(int(lengths[row]), spec)
        _check_sentinel_budget(int(spans.counts[row]), vocab)

    span, counts = spans.bounds, spans.counts
    first_span, span_len = np.cumsum(counts) - counts, span[:, 1] - span[:, 0] + 1
    row_ends = np.cumsum(lengths)
    layout = np.insert(tokens.astype(np.int64), np.repeat(row_ends, 2),
                       np.tile([vocab.size - vocab.sentinel_count, vocab.eos_id], len(lengths)))
    close = row_ends + 2 * np.arange(len(lengths))  # each row's closing-sentinel slot
    base = close - lengths
    starts, ends = (span + np.repeat(base, counts)[:, None]).T
    sentinels = vocab.size - 1 - (np.arange(len(span)) - np.repeat(first_span, counts))
    edges = np.zeros(len(layout) + 1, dtype=np.int8)
    edges[starts] = 1
    edges[ends + 1] = -1  # spans are non-adjacent, so no start shares this slot
    masked = np.cumsum(edges[:-1], dtype=np.int8) > 0  # a running sum of 0 and 1

    keep_in = ~masked
    keep_in[starts] = True
    keep_in[close] = False
    inputs = layout.copy()
    inputs[starts] = sentinels
    keep_tgt = masked
    keep_tgt[close] = keep_tgt[close + 1] = True
    # A span's sentinel follows the spans before it and two slots per earlier row.
    targets = np.insert(layout[keep_tgt], np.cumsum(span_len) - span_len + 2 * np.repeat(
        np.arange(len(lengths)), counts), sentinels)

    num_masked = np.add.reduceat(span_len, first_span)
    return CorruptedBatch(inputs[keep_in], (lengths - num_masked + counts + 1).tolist(),
                          targets, (num_masked + counts + 2).tolist())

"""Just-in-time span corruption with reproducible per-epoch masks.

A mask is a pure function of (seed, epoch, seq_index), so any worker in any
order regenerates the identical epoch-e mask without storing it. Exactly
round(rate * len) tokens are masked (clamped to [1, len-1]); SPAN mode
groups them into runs averaging mean_span tokens, IID mode masks single
tokens. Masked runs become sentinels in the input; the target lists each
sentinel with its original tokens, then a closing sentinel and eos.

make_example corrupts one sequence and is the reference; corrupt_batch gives
the same rows for a whole micro-batch, built with index arithmetic over flat
arrays.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from enum import Enum
from itertools import chain
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
        if not self.mean_span >= 1.0:  # also rejects NaN
            raise MaskingError(f"mean_span must be at least 1, got {self.mean_span}")


@dataclass(frozen=True)
class MaskKey:
    seed: int
    epoch: int
    seq_index: int

    def __post_init__(self):
        if self.epoch < 0 or self.seq_index < 0:
            raise MaskingError("epoch and seq_index must be non-negative")


@dataclass(frozen=True)
class MaskedExample:
    input_ids: list[int]
    target_ids: list[int]


def mask_counts(length: int, spec: MaskSpec) -> tuple[int, int]:
    """(tokens to mask, spans to group them into) for one sequence."""
    if length < 2:
        raise MaskingError(f"sequence length must be at least 2, got {length}")
    num_masked = round(spec.rate * length)
    num_masked = max(1, min(num_masked, length - 1))
    if spec.mode is MaskMode.IID:
        return num_masked, num_masked
    num_spans = round(num_masked / spec.mean_span)
    num_spans = max(1, min(num_spans, num_masked))
    return num_masked, num_spans


def _rng_for(key: MaskKey) -> random.Random:
    packed = struct.pack(
        "<QQQ", key.seed & 0xFFFFFFFFFFFFFFFF, key.epoch, key.seq_index
    )
    digest = hashlib.blake2b(packed, digest_size=16).digest()
    return random.Random(int.from_bytes(digest, "little"))


def _uniform_composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Uniformly random split of `total` into `parts` non-negative cells.

    Stars and bars: bar positions are a uniform (parts-1)-subset of the
    total+parts-1 slots, so every composition is equally likely.
    """
    if parts == 1:
        return [total]
    bars = sorted(rng.sample(range(total + parts - 1), parts - 1))
    cells = []
    prev = -1
    for b in bars:
        cells.append(b - prev - 1)
        prev = b
    cells.append(total + parts - 1 - prev - 1)
    return cells


def draw_mask(length: int, spec: MaskSpec, key: MaskKey) -> list[tuple[int, int]]:
    """Sorted, disjoint, non-adjacent inclusive (start, end) spans.

    Position 0 is never masked so the input always opens with a real token.
    When the requested span count cannot fit (each span needs a preceding
    unmasked token), the count is reduced to the largest feasible value.
    The draw is uniform over valid configurations: span lengths and gap
    sizes are independent uniform compositions.
    """
    num_masked, num_spans = mask_counts(length, spec)
    unmasked = length - num_masked
    k = min(num_spans, unmasked)
    rng = _rng_for(key)
    span_lengths = [c + 1 for c in _uniform_composition(rng, num_masked - k, k)]
    # k+1 gaps around the spans; the leading and k-1 inner gaps need >= 1
    # unmasked token each, the trailing gap may be empty.
    free = _uniform_composition(rng, unmasked - k, k + 1)
    spans = []
    cursor = 0
    for i in range(k):
        cursor += free[i] + 1
        start = cursor
        cursor += span_lengths[i]
        spans.append((start, cursor - 1))
    return spans


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
        raise SentinelBudgetError(
            f"{num_spans} spans need {num_spans + 1} sentinels but the "
            f"vocabulary reserves only {vocab.sentinel_count}"
        )


def apply_span_corruption(
    seq: TokenSequence, spans: list[tuple[int, int]], vocab: Vocabulary
) -> MaskedExample:
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


def make_example(
    seq: TokenSequence, spec: MaskSpec, key: MaskKey, vocab: Vocabulary
) -> MaskedExample:
    """Draw the mask for (spec, key) and corrupt the sequence with it."""
    spans = draw_mask(len(seq.ids), spec, key)
    return apply_span_corruption(seq, spans, vocab)


@dataclass(frozen=True)
class CorruptedBatch:
    """The corrupted rows of one micro-batch as two flat id arrays.

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

    Each row's mask comes from draw_mask and is checked as in
    apply_span_corruption, so a row fails with the same error; an id
    outside the vocabulary fails first. The rows are then laid end to end,
    each followed by two slots (closing sentinel, eos), and both sides are
    cut out of that layout with masks.
    """
    if not len(indices):
        raise MaskingError("a batch needs at least one sequence")
    tokens, lengths = reader.gather(indices)
    if len(tokens) and tokens.max() >= vocab.size:
        bad = int(np.argmax(tokens >= vocab.size))
        row = int(np.searchsorted(np.cumsum(lengths), bad, side="right"))
        raise StoreFormatError(f"{reader.path}: sequence {indices[row]} holds id "
                               f"{tokens[bad]}, outside a vocabulary of {vocab.size}")
    spans: list[tuple[int, int]] = []
    counts = []
    for i, n in zip(indices, lengths.tolist()):
        row_spans = draw_mask(n, spec, MaskKey(seed, epoch, i))
        _validate_spans(row_spans, n)
        _check_sentinel_budget(len(row_spans), vocab)
        spans.extend(row_spans)
        counts.append(len(row_spans))

    counts = np.array(counts)
    first_span = np.cumsum(counts) - counts
    span = np.fromiter(chain.from_iterable(spans), np.int64, 2 * len(spans)).reshape(-1, 2)
    row_ends = np.cumsum(lengths)
    layout = np.insert(tokens.astype(np.int64), np.repeat(row_ends, 2),
                       np.tile([vocab.size - vocab.sentinel_count, vocab.eos_id], len(lengths)))
    close = row_ends + 2 * np.arange(len(lengths))  # each row's closing-sentinel slot
    base = close - lengths
    starts = span[:, 0] + np.repeat(base, counts)
    ends = span[:, 1] + np.repeat(base, counts)
    sentinels = vocab.size - 1 - (np.arange(len(span)) - np.repeat(first_span, counts))
    edges = np.zeros(len(layout) + 1, dtype=np.int8)
    edges[starts] = 1
    edges[ends + 1] = -1  # spans are non-adjacent, so no start shares this slot
    masked = np.cumsum(edges[:-1]) > 0

    keep_in = ~masked
    keep_in[starts] = True
    keep_in[close] = False
    inputs = layout.copy()
    inputs[starts] = sentinels
    keep_tgt = masked
    keep_tgt[close] = keep_tgt[close + 1] = True
    targets = np.insert(layout[keep_tgt], np.cumsum(keep_tgt)[starts] - 1, sentinels)

    num_masked = np.add.reduceat(span[:, 1] - span[:, 0] + 1, first_span)
    return CorruptedBatch(
        inputs=inputs[keep_in],
        input_lengths=(lengths - num_masked + counts + 1).tolist(),
        targets=targets,
        target_lengths=(num_masked + counts + 2).tolist(),
    )

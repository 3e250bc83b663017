"""Just-in-time span corruption with reproducible per-epoch masks.

A mask is a pure function of (seed, epoch, seq_index), whose SHAKE-128
(FIPS 202) stream keys the sequence, so any worker in any order, and in any
run of sequences drawn together, regenerates the identical epoch-e mask
without storing it. Exactly round(rate * len) tokens are masked (clamped to
[1, len-1]); SPAN mode groups them into runs averaging mean_span tokens, IID
mode masks single tokens. Masked runs become sentinels in the input; the
target lists each sentinel with its original tokens, then a closing
sentinel and eos.

make_example corrupts one sequence, given as its ids, and is the reference;
corrupt_batch gives the same rows for a whole run of stored sequences, built
with index arithmetic over flat arrays. Only the run functions import numpy:
one sequence is drawn and corrupted in plain Python.
"""

from __future__ import annotations

import math
import operator
import struct
from enum import Enum
from hashlib import shake_128
from typing import Iterator, NamedTuple, Sequence

from .corpus import SequenceStoreReader, StoreFormatError
from .errors import WarmstartError
from .vocab import Vocabulary


class MaskingError(WarmstartError):
    pass


class SentinelBudgetError(MaskingError):
    pass


class MaskMode(Enum):
    SPAN = "span"
    IID = "iid"


class _SpecFields(NamedTuple):
    rate: float = 0.15
    mean_span: float = 3.0
    mode: MaskMode = MaskMode.SPAN


class MaskSpec(_SpecFields):
    """A valid masking spec, however it is built: the constructor, `_make`
    and `_replace` all check the fields."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        s = super().__new__(cls, *args, **kwargs)
        if not 0.0 < s.rate < 1.0:
            raise MaskingError(f"rate must be in (0, 1), got {s.rate}")
        if not 1.0 <= s.mean_span < math.inf:  # also rejects NaN
            raise MaskingError(f"mean_span must be finite and at least 1, got {s.mean_span}")
        return s

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _KeyFields(NamedTuple):
    seed: int
    epoch: int
    seq_index: int | Sequence[int]


class MaskKey(_KeyFields):
    """The key of one sequence, or of a run when seq_index is a sequence.
    The draw keys on 8 bytes of the epoch and of each index, so both must be
    in [0, 2**64); the constructor, `_make` and `_replace` all check them."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        s = super().__new__(cls, *args, **kwargs)
        try:
            lowest = highest = operator.index(s.seq_index)
        except TypeError:  # a run's indices
            import numpy as np

            if isinstance(s.seq_index, np.ndarray):
                lowest, highest = s.seq_index.min(initial=0), s.seq_index.max(initial=0)
            else:  # exact, where numpy would make a list of large ints float64
                lowest, highest = min(s.seq_index, default=0), max(s.seq_index, default=0)
        if s.epoch < 0 or lowest < 0:
            raise MaskingError("epoch and seq_index must be non-negative")
        if s.epoch >= 2**64:
            raise MaskingError(f"epoch must be below 2**64, got {s.epoch}")
        if int(highest) >= 2**64:
            raise MaskingError(f"seq_index must be below 2**64, got {highest}")
        return s

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class MaskedExample(NamedTuple):
    input_ids: list[int]
    target_ids: list[int]


def mask_counts(length, spec: MaskSpec) -> tuple:
    """(tokens to mask, spans to group them into) for one sequence, as ints,
    or for each of an array of lengths, as two arrays. Rounding is half to
    even either way."""
    try:
        n = operator.index(length)
    except TypeError:  # an array of lengths
        import numpy as np

        lengths = np.asarray(length, dtype=np.int64)
        if lengths.min() < 2:
            raise MaskingError(f"sequence length must be at least 2, got {lengths.min()}")
        masked = np.clip(np.round(spec.rate * lengths), 1, lengths - 1).astype(np.int64)
        spans = masked if spec.mode is MaskMode.IID else np.clip(
            np.round(masked / spec.mean_span), 1, masked).astype(np.int64)
        return masked, spans
    if n < 2:
        raise MaskingError(f"sequence length must be at least 2, got {n}")
    masked = min(max(round(spec.rate * n), 1), n - 1)
    return masked, masked if spec.mode is MaskMode.IID else min(
        max(round(masked / spec.mean_span), 1), masked)


class Spans:
    """A run's spans, row after row, and each row's count; iterates as Python-int pairs."""

    __slots__ = ("bounds", "counts")

    def __init__(self, bounds: np.ndarray, counts: np.ndarray):
        self.bounds, self.counts = bounds, counts

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
    smallest keys among the first m-1 and the other n-m. Given one length,
    the draw is plain Python, the reference for the run draw: given arrays
    of lengths and of key.seq_index, it draws a whole run and returns Spans.
    """
    try:
        n = operator.index(length)
    except TypeError:
        return _draw_run(length, spec, key)
    m, s = mask_counts(n, spec)
    k = min(s, n - m)
    # A slot's sort key is its word with bit 63 set for a gap slot, bit 62
    # clear and the low bits (as many as slot n-2 needs) replaced by the
    # slot, so the order is total.
    head = (int(key.seed) % 2**64).to_bytes(8, "little") + int(key.epoch).to_bytes(8, "little")
    words = struct.unpack(f"<{n - 1}Q", shake_128(
        head + int(key.seq_index).to_bytes(8, "little")).digest(8 * n - 8))
    low = math.frexp(n - 2)[1]
    keep, slot = (1 << 62) - (1 << low), (1 << low) - 1
    keys = sorted((w & keep) | c | (c >= m - 1) << 63 for c, w in enumerate(words))
    # Span i ends at gap bar i + span bar i + 1 and starts at gap bar i +
    # span bar i-1 + 2, where span bar -1 is -1 and span bar k-1 is m-1.
    span_bars = sorted(key & slot for key in keys[: k - 1]) + [m - 1]
    gap_bars = sorted((key & slot) - (m - 1) for key in keys[m - 1 : m - 1 + k])
    spans, before = [], -1
    for gap, bar in zip(gap_bars, span_bars):
        spans.append((gap + before + 2, gap + bar + 1))
        before = bar
    return spans


def _draw_run(length, spec: MaskSpec, key: MaskKey) -> Spans:
    """draw_mask for arrays of lengths and of key.seq_index, all rows at once."""
    import numpy as np

    lengths = np.atleast_1d(length).astype(np.int64)
    indices = np.atleast_1d(np.asarray(key.seq_index, dtype=np.uint64))  # exact to 2**64 - 1
    masked, k = mask_counts(lengths, spec)
    k = np.minimum(k, lengths - masked)

    # The keys of draw_mask, a row per sequence, padded with keys that sort last.
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
    # The spans from the bars, by draw_mask's arithmetic.
    before = np.where(i == 0, -1, np.roll(span_bar, 1))
    return Spans(np.stack([gap_bar + before + 2, gap_bar + span_bar + 1], axis=1), k)


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


def apply_span_corruption(ids: Sequence[int], spans: list[tuple[int, int]],
                          vocab: Vocabulary) -> MaskedExample:
    """Replace each span with a sentinel; pair with the span-recovery target.

    Span k's sentinel is id vocab.size-1-k (ids descend as k ascends). The
    target closes with the last reserved sentinel, id vocab.size -
    sentinel_count, so num_spans + 1 sentinels must be available.
    """
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


def make_example(ids: Sequence[int], spec: MaskSpec, key: MaskKey,
                 vocab: Vocabulary) -> MaskedExample:
    """Draw the mask for (spec, key) and corrupt the sequence `ids` with it."""
    spans = draw_mask(len(ids), spec, key)
    return apply_span_corruption(ids, spans, vocab)


class CorruptedBatch:
    """Corrupted rows as two flat id arrays.

    Row r's input is the input_lengths[r] ids of `inputs` that follow the
    rows before it, and likewise for its target. The lengths alone give what
    batcher.padding_stats reads: rows and the dynamically padded widths.
    """

    __slots__ = ("inputs", "input_lengths", "targets", "target_lengths")

    def __init__(self, inputs: np.ndarray, input_lengths: list[int], targets: np.ndarray,
                 target_lengths: list[int]):
        self.inputs, self.input_lengths = inputs, input_lengths
        self.targets, self.target_lengths = targets, target_lengths

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
        """Each row as a MaskedExample of two id lists: the per-row view
        that tests compare the flat arrays against."""
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
    import numpy as np

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

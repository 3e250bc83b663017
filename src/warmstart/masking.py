"""Just-in-time span corruption with reproducible per-epoch masks.

A mask is a pure function of (seed, epoch, seq_index), so any worker in any
order regenerates the identical epoch-e mask without storing it. Exactly
round(rate * len) tokens are masked (clamped to [1, len-1]); SPAN mode
groups them into runs averaging mean_span tokens, IID mode masks single
tokens. Masked runs become sentinels in the input; the target lists each
sentinel with its original tokens, then a closing sentinel and eos.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from enum import Enum

from .corpus import TokenSequence
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
    if len(spans) + 1 > vocab.sentinel_count:
        raise SentinelBudgetError(
            f"{len(spans)} spans need {len(spans) + 1} sentinels but the "
            f"vocabulary reserves only {vocab.sentinel_count}"
        )
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

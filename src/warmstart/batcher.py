"""Micro-batch assembly with dynamic padding and accumulation planning.

Each batch is padded only to its own maximum input and target lengths, never
to a global maximum, and presence masks mark real tokens. Gradient
accumulation turns micro-batches into a larger effective batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import WarmstartError
from .masking import MaskedExample


class BatcherError(WarmstartError):
    pass


class NonDivisibleError(BatcherError):
    pass


@dataclass(frozen=True)
class AccumulationPlan:
    micro_batch_size: int
    accumulation_steps: int
    effective_batch: int


def plan_accumulation(effective: int, micro: int) -> AccumulationPlan:
    """Steps of size `micro` whose gradients accumulate to `effective`."""
    if effective < 1 or micro < 1:
        raise BatcherError("batch sizes must be positive")
    if effective % micro != 0:
        raise NonDivisibleError(
            f"micro batch {micro} does not divide effective batch {effective}"
        )
    return AccumulationPlan(
        micro_batch_size=micro,
        accumulation_steps=effective // micro,
        effective_batch=effective,
    )


class PaddedBatch:
    """Rectangular id blocks plus presence masks for one micro-batch.

    Row i holds examples[i]; rows match the number of examples (the final
    batch of an epoch may be short). Width equals the longest member of the
    batch, exactly. Pad cells hold pad_id; mask cells are 1 for real tokens.
    """

    def __init__(self, examples: Sequence[MaskedExample], pad_id: int):
        if not examples:
            raise BatcherError("cannot assemble an empty batch")
        self.pad_id = pad_id
        self.input_lengths = [len(ex.input_ids) for ex in examples]
        self.target_lengths = [len(ex.target_ids) for ex in examples]
        rows = len(examples)
        width_in = max(self.input_lengths)
        width_tgt = max(self.target_lengths)
        self.inputs = np.full((rows, width_in), pad_id, dtype=np.int32)
        self.targets = np.full((rows, width_tgt), pad_id, dtype=np.int32)
        self.input_mask = np.zeros((rows, width_in), dtype=np.uint8)
        self.target_mask = np.zeros((rows, width_tgt), dtype=np.uint8)
        for i, ex in enumerate(examples):
            n_in = self.input_lengths[i]
            n_tgt = self.target_lengths[i]
            self.inputs[i, :n_in] = ex.input_ids
            self.input_mask[i, :n_in] = 1
            self.targets[i, :n_tgt] = ex.target_ids
            self.target_mask[i, :n_tgt] = 1

    @property
    def rows(self) -> int:
        return self.inputs.shape[0]

    @property
    def width_in(self) -> int:
        return self.inputs.shape[1]

    @property
    def width_tgt(self) -> int:
        return self.targets.shape[1]

    def example(self, i: int) -> MaskedExample:
        """Recover row i exactly, via the presence masks."""
        return MaskedExample(
            input_ids=self.inputs[i, : self.input_lengths[i]].tolist(),
            target_ids=self.targets[i, : self.target_lengths[i]].tolist(),
        )


def assemble(
    examples: Sequence[MaskedExample], micro: int, pad_id: int
) -> PaddedBatch:
    if micro < 1:
        raise BatcherError("micro batch size must be positive")
    if len(examples) > micro:
        raise BatcherError(
            f"{len(examples)} examples exceed micro batch size {micro}"
        )
    return PaddedBatch(examples, pad_id)


@dataclass(frozen=True)
class PaddingStats:
    input_efficiency: Fraction
    target_efficiency: Fraction
    combined: Fraction


def block_efficiency(lengths: Sequence[int]) -> Fraction:
    """Real cells over total cells for one dynamically padded block."""
    if not lengths:
        raise BatcherError("no lengths given")
    return Fraction(sum(lengths), len(lengths) * max(lengths))


def padding_stats(batch: PaddedBatch) -> PaddingStats:
    """Real-cell fractions of a batch. Reads only `rows`, `width_in`,
    `width_tgt` and the two length lists, so a masking.CorruptedBatch works
    as well as a PaddedBatch."""
    in_real = sum(batch.input_lengths)
    in_total = batch.rows * batch.width_in
    tgt_real = sum(batch.target_lengths)
    tgt_total = batch.rows * batch.width_tgt
    return PaddingStats(
        input_efficiency=Fraction(in_real, in_total),
        target_efficiency=Fraction(tgt_real, tgt_total),
        combined=Fraction(in_real + tgt_real, in_total + tgt_total),
    )


def padding_efficiency(batch: PaddedBatch) -> Fraction:
    """Combined real-cell fraction over the input and target blocks."""
    return padding_stats(batch).combined

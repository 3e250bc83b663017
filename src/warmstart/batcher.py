"""Micro-batch assembly with dynamic padding and accumulation planning.

Each batch is padded only to its own maximum input and target lengths, never
to a global maximum, and presence masks mark real tokens. Gradient
accumulation turns micro-batches into a larger effective batch.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import WarmstartError
from .masking import MaskedExample


class BatcherError(WarmstartError):
    pass


class NonDivisibleError(BatcherError):
    pass


class AccumulationPlan(NamedTuple):
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
        import numpy as np

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


class PaddingStats(NamedTuple):
    """A batch's real and total cells on each side. The efficiencies are
    exact fractions of them, built when read, so a run that reads none never
    imports fractions."""

    input_real: int
    input_total: int
    target_real: int
    target_total: int

    @property
    def input_efficiency(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.input_real, self.input_total)

    @property
    def target_efficiency(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.target_real, self.target_total)

    @property
    def combined(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.input_real + self.target_real,
                        self.input_total + self.target_total)


def padding_stats(batch: PaddedBatch) -> PaddingStats:
    """Real and total cells of a batch. Reads only `rows`, `width_in`,
    `width_tgt` and the two length lists, so a masking.CorruptedBatch works
    as well as a PaddedBatch."""
    return PaddingStats(sum(batch.input_lengths), batch.rows * batch.width_in,
                        sum(batch.target_lengths), batch.rows * batch.width_tgt)

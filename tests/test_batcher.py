import random
from fractions import Fraction

import numpy as np
import pytest

from warmstart.batcher import (
    BatcherError,
    NonDivisibleError,
    assemble,
    padding_stats,
    plan_accumulation,
)
from warmstart.masking import CorruptedBatch, MaskedExample


def ex(n_in, n_tgt=None):
    if n_tgt is None:
        n_tgt = n_in
    return MaskedExample(input_ids=list(range(10, 10 + n_in)),
                         target_ids=list(range(100, 100 + n_tgt)))


class TestPlanAccumulation:
    def test_target_batch_over_micro(self):
        plan = plan_accumulation(128, 16)
        assert plan.accumulation_steps == 8
        assert plan.micro_batch_size * plan.accumulation_steps == plan.effective_batch

    def test_no_accumulation(self):
        assert plan_accumulation(128, 128).accumulation_steps == 1

    def test_non_divisible(self):
        with pytest.raises(NonDivisibleError):
            plan_accumulation(128, 12)

    def test_positive_required(self):
        with pytest.raises(BatcherError):
            plan_accumulation(0, 1)

    def test_is_a_named_tuple_of_the_three_sizes(self):
        plan = plan_accumulation(128, 16)
        assert plan == (16, 8, 128)
        assert plan._fields == ("micro_batch_size", "accumulation_steps", "effective_batch")


class TestAssemble:
    def test_width_is_max_and_padding_counted(self):
        batch = assemble([ex(5), ex(3), ex(4)], micro=4, pad_id=0)
        assert batch.width_in == 5
        pad_cells = int((batch.input_mask == 0).sum())
        assert pad_cells == 3
        assert padding_stats(batch).input_efficiency == Fraction(12, 15)

    def test_micro_batch_below_1_is_rejected(self):
        with pytest.raises(BatcherError) as e:
            assemble([ex(3)], micro=0, pad_id=0)
        assert str(e.value) == "micro batch size must be positive"

    def test_equal_lengths_no_padding(self):
        batch = assemble([ex(4), ex(4)], micro=2, pad_id=0)
        assert padding_stats(batch).combined == 1

    def test_single_example(self):
        batch = assemble([ex(7)], micro=16, pad_id=0)
        assert batch.width_in == 7
        assert padding_stats(batch).combined == 1

    def test_order_preserved_and_recoverable(self):
        examples = [ex(5, 3), ex(2, 6), ex(4, 4)]
        batch = assemble(examples, micro=8, pad_id=0)
        for i, e in enumerate(examples):
            assert batch.example(i) == e

    def test_pad_cells_hold_pad_id(self):
        batch = assemble([ex(2), ex(5)], micro=2, pad_id=99)
        assert batch.inputs[0, 2:].tolist() == [99, 99, 99]

    def test_mask_row_sums_are_lengths(self):
        batch = assemble([ex(2, 7), ex(5, 1)], micro=2, pad_id=0)
        assert batch.input_mask.sum(axis=1).tolist() == [2, 5]
        assert batch.target_mask.sum(axis=1).tolist() == [7, 1]

    def test_empty_rejected(self):
        with pytest.raises(BatcherError):
            assemble([], micro=4, pad_id=0)

    def test_overfull_rejected(self):
        with pytest.raises(BatcherError):
            assemble([ex(1)] * 5, micro=4, pad_id=0)


class TestEfficiency:
    def test_block_examples(self):
        for lengths, efficiency in [([5, 3, 4], Fraction(4, 5)),
                                    ([512] * 16, 1),
                                    ([1, 512], Fraction(513, 1024))]:
            batch = assemble([ex(n) for n in lengths], micro=16, pad_id=0)
            stats = padding_stats(batch)
            assert stats.input_efficiency == stats.combined == efficiency

    def test_combined_is_exact_rational(self):
        batch = assemble([ex(5, 3), ex(3, 3)], micro=2, pad_id=0)
        stats = padding_stats(batch)
        assert stats.input_efficiency == Fraction(8, 10)
        assert stats.target_efficiency == 1
        assert stats.combined == Fraction(8 + 6, 10 + 6)

    def test_randomized_against_recount(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(1, 12)
            examples = [ex(rng.randrange(1, 40), rng.randrange(1, 40)) for _ in range(n)]
            batch = assemble(examples, micro=16, pad_id=0)
            in_lengths = [len(e.input_ids) for e in examples]
            tgt_lengths = [len(e.target_ids) for e in examples]
            assert batch.width_in == max(in_lengths)
            assert batch.width_tgt == max(tgt_lengths)
            real = sum(in_lengths) + sum(tgt_lengths)
            cells = n * (max(in_lengths) + max(tgt_lengths))
            assert padding_stats(batch).combined == Fraction(real, cells)

    @pytest.mark.parametrize("build", [
        lambda examples: assemble(examples, micro=4, pad_id=0),
        lambda examples: CorruptedBatch(
            np.array([i for e in examples for i in e.input_ids]),
            [len(e.input_ids) for e in examples],
            np.array([i for e in examples for i in e.target_ids]),
            [len(e.target_ids) for e in examples]),
    ], ids=["PaddedBatch", "CorruptedBatch"])
    def test_the_efficiencies_are_the_fractions_of_the_cell_counts(self, build):
        stats = padding_stats(build([ex(5, 2), ex(3, 4), ex(4, 1)]))
        assert stats == (12, 15, 7, 12)
        efficiencies = (stats.input_efficiency, stats.target_efficiency, stats.combined)
        assert efficiencies == (Fraction(12, 15), Fraction(7, 12), Fraction(19, 27))
        assert all(type(f) is Fraction for f in efficiencies)
        assert [str(f) for f in efficiencies] == ["4/5", "7/12", "19/27"]

import hashlib
import math
import tempfile
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warmstart.batcher import assemble, padding_stats
from warmstart.corpus import SequenceStoreReader, write_store
from warmstart.masking import (
    CorruptedBatch,
    MaskKey,
    MaskMode,
    MaskSpec,
    MaskedExample,
    MaskingError,
    SentinelBudgetError,
    Spans,
    apply_span_corruption,
    corrupt_batch,
    draw_mask,
    make_example,
    mask_counts,
)
from warmstart.vocab import Vocabulary


def reconstruct(ex: MaskedExample, vocab: Vocabulary) -> list[int]:
    """Interleave input context with target spans; the masking oracle."""
    closing = vocab.size - vocab.sentinel_count
    sentinel_ids = {vocab.sentinel_id(k) for k in range(vocab.sentinel_count)}
    spans: dict[int, list[int]] = {}
    current = None
    assert ex.target_ids[-1] == vocab.eos_id
    for tid in ex.target_ids[:-1]:
        if tid in sentinel_ids:
            current = tid
            spans[current] = []
        else:
            spans[current].append(tid)
    assert spans.pop(closing) == []  # closing sentinel carries no tokens
    out: list[int] = []
    assert ex.input_ids[-1] == vocab.eos_id
    for tid in ex.input_ids[:-1]:
        if tid in sentinel_ids:
            out.extend(spans[tid])
        else:
            out.append(tid)
    return out


class TestMaskCounts:
    def test_len_512_defaults(self):
        assert mask_counts(512, MaskSpec()) == (77, 26)

    def test_lower_clamp(self):
        assert mask_counts(3, MaskSpec()) == (1, 1)

    def test_iid_unit_spans(self):
        assert mask_counts(512, MaskSpec(mode=MaskMode.IID)) == (77, 77)

    def test_upper_clamp_on_masked(self):
        # round(0.95 * 10) == 10 would mask everything; clamp to len - 1
        assert mask_counts(10, MaskSpec(rate=0.95))[0] == 9

    def test_too_short(self):
        with pytest.raises(MaskingError):
            mask_counts(1, MaskSpec())

    def test_spans_never_exceed_masked(self):
        n_masked, n_spans = mask_counts(8, MaskSpec(rate=0.15, mean_span=1.0))
        assert n_spans <= n_masked

    def test_spec_validation(self):
        with pytest.raises(MaskingError):
            MaskSpec(rate=0.0)
        with pytest.raises(MaskingError):
            MaskSpec(rate=1.0)
        with pytest.raises(MaskingError):
            MaskSpec(mean_span=0.5)


class TestDrawMask:
    def test_same_key_same_spans(self):
        spec = MaskSpec()
        key = MaskKey(seed=7, epoch=2, seq_index=19)
        assert draw_mask(512, spec, key) == draw_mask(512, spec, key)

    def test_spans_well_formed(self):
        spec = MaskSpec()
        for i in range(200):
            spans = draw_mask(512, spec, MaskKey(seed=1, epoch=0, seq_index=i))
            assert sum(e - s + 1 for s, e in spans) == 77
            assert len(spans) == 26
            prev_end = -2
            for s, e in spans:
                assert 1 <= s <= e < 512  # position 0 stays unmasked
                assert s > prev_end + 1  # sorted, disjoint, non-adjacent
                prev_end = e

    def test_epoch_changes_mask(self):
        spec = MaskSpec()
        distinct = 0
        for i in range(200):
            a = draw_mask(512, spec, MaskKey(seed=3, epoch=0, seq_index=i))
            b = draw_mask(512, spec, MaskKey(seed=3, epoch=1, seq_index=i))
            distinct += a != b
        assert distinct >= 199

    def test_seed_changes_mask(self):
        spec = MaskSpec()
        a = draw_mask(512, spec, MaskKey(seed=1, epoch=0, seq_index=0))
        b = draw_mask(512, spec, MaskKey(seed=2, epoch=0, seq_index=0))
        assert a != b

    def test_infeasible_span_count_reduced(self):
        # 8 of 10 tokens masked leaves 2 unmasked: at most 2 spans fit
        spec = MaskSpec(rate=0.8, mean_span=1.0)
        spans = draw_mask(10, spec, MaskKey(seed=0, epoch=0, seq_index=0))
        assert sum(e - s + 1 for s, e in spans) == 8
        assert len(spans) == 2

    def test_iid_spans_are_single_tokens(self):
        spec = MaskSpec(mode=MaskMode.IID)
        spans = draw_mask(64, spec, MaskKey(seed=5, epoch=0, seq_index=0))
        assert all(s == e for s, e in spans)
        assert len(spans) == mask_counts(64, spec)[0]

    def test_modes_mask_same_count(self):
        for length in (16, 100, 512):
            span_total = sum(
                e - s + 1
                for s, e in draw_mask(length, MaskSpec(), MaskKey(0, 0, 0))
            )
            iid_total = len(draw_mask(length, MaskSpec(mode=MaskMode.IID), MaskKey(0, 0, 0)))
            assert span_total == iid_total

    def test_small_forced_single_span(self):
        # len 10 at defaults: round(1.5) == 2 masked, one span of length 2
        spans = draw_mask(10, MaskSpec(), MaskKey(seed=123, epoch=0, seq_index=0))
        assert len(spans) == 1
        s, e = spans[0]
        assert e - s + 1 == 2 and s >= 1


class TestApplySpanCorruption:
    def test_two_span_hand_trace(self, sentinel_vocab):
        seq = [11, 12, 13, 14, 15, 16, 17, 18, 19, 20]
        ex = apply_span_corruption(seq, [(3, 4), (8, 8)], sentinel_vocab)
        assert ex.input_ids == [11, 12, 13, 29, 16, 17, 18, 28, 20, 1]
        assert ex.target_ids == [29, 14, 15, 28, 19, 27, 1]

    def test_single_span_hand_trace(self, sentinel_vocab):
        ex = apply_span_corruption([5, 6, 7], [(1, 1)], sentinel_vocab)
        assert ex.input_ids == [5, 29, 7, 1]
        assert ex.target_ids == [29, 6, 27, 1]

    def test_zero_spans_rejected(self, sentinel_vocab):
        with pytest.raises(MaskingError):
            apply_span_corruption([5, 6, 7], [], sentinel_vocab)

    def test_sentinel_budget(self, sentinel_vocab):
        seq = list(range(3, 13))
        # three spans need four sentinels; only three reserved
        with pytest.raises(SentinelBudgetError):
            apply_span_corruption(seq, [(1, 1), (3, 3), (5, 5)], sentinel_vocab)

    def test_adjacent_spans_rejected(self, sentinel_vocab):
        seq = list(range(3, 13))
        with pytest.raises(MaskingError):
            apply_span_corruption(seq, [(1, 2), (3, 4)], sentinel_vocab)

    def test_out_of_range_rejected(self, sentinel_vocab):
        with pytest.raises(MaskingError):
            apply_span_corruption([5, 6], [(1, 2)], sentinel_vocab)

    def test_input_sentinels_descend_in_id(self, sentinel_vocab):
        seq = list(range(3, 13))
        ex = apply_span_corruption(seq, [(1, 1), (4, 5)], sentinel_vocab)
        sentinels = [t for t in ex.input_ids if t >= 27]
        assert sentinels == [29, 28]


class TestMakeExample:
    def test_reconstruction(self):
        vocab = Vocabulary([f"t{i}" for i in range(150)], sentinel_count=100)
        spec = MaskSpec()
        import random

        rng = random.Random(8)
        for i in range(300):
            length = rng.randrange(2, 200)
            ids = [rng.randrange(3, 50) for _ in range(length)]
            ex = make_example(ids, spec, MaskKey(seed=4, epoch=0, seq_index=i), vocab)
            assert reconstruct(ex, vocab) == ids

    def test_target_starts_with_first_sentinel(self, sentinel_vocab):
        seq = list(range(3, 13))
        ex = make_example(seq, MaskSpec(), MaskKey(0, 0, 0), sentinel_vocab)
        assert ex.target_ids[0] == sentinel_vocab.sentinel_id(0) == 29

    def test_key_validation(self):
        with pytest.raises(MaskingError):
            MaskKey(seed=0, epoch=-1, seq_index=0)
        with pytest.raises(MaskingError, match=r"epoch must be below 2\*\*64"):
            MaskKey(seed=0, epoch=2**64, seq_index=0)
        MaskKey(seed=0, epoch=2**64 - 1, seq_index=0)

    @pytest.mark.parametrize("index", [2**64, [5, 2**64], (2**70, 0), range(2**64, 2**64 + 2)],
                             ids=["int", "list", "tuple", "range"])
    def test_an_index_of_2_64_or_more_is_rejected(self, index):
        with pytest.raises(MaskingError, match=r"^seq_index must be below 2\*\*64, got "):
            MaskKey(seed=0, epoch=0, seq_index=index)

    @pytest.mark.parametrize("index", [2**64 - 1, [5, 2**64 - 1], np.array([2**64 - 1, 0],
                                                                          dtype=np.uint64)])
    def test_an_index_below_2_64_is_accepted(self, index):
        assert MaskKey(seed=0, epoch=0, seq_index=index).seq_index is index


class TestValueTypes:
    """MaskSpec and MaskKey are NamedTuples that check their fields however
    they are built; the run types are plain classes, not tuples."""

    @pytest.mark.parametrize("build, message", [
        (lambda: MaskSpec(rate=1.5), "rate must be in (0, 1), got 1.5"),
        (lambda: MaskSpec._make((0.15, 0.5, MaskMode.SPAN)),
         "mean_span must be finite and at least 1, got 0.5"),
        (lambda: MaskSpec()._replace(mean_span=0.5),
         "mean_span must be finite and at least 1, got 0.5"),
        (lambda: MaskSpec()._replace(rate=math.nan), "rate must be in (0, 1), got nan"),
        (lambda: MaskKey(0, -1, 0), "epoch and seq_index must be non-negative"),
        (lambda: MaskKey._make((0, 0, -1)), "epoch and seq_index must be non-negative"),
        (lambda: MaskKey(0, 0, 0)._replace(epoch=2**64),
         f"epoch must be below 2**64, got {2**64}"),
        (lambda: MaskKey(0, 0, 0)._replace(seq_index=[3, -1]),
         "epoch and seq_index must be non-negative"),
    ], ids=["spec-constructor", "spec-make", "spec-replace", "spec-replace-nan",
            "key-constructor", "key-make", "key-replace-epoch", "key-replace-run"])
    def test_every_way_of_building_one_validates(self, build, message):
        with pytest.raises(MaskingError) as e:
            build()
        assert str(e.value) == message

    def test_make_and_replace_build_valid_values(self):
        spec, key = MaskSpec(), MaskKey(1, 2, 3)
        assert MaskSpec._make(spec) == spec == (0.15, 3.0, MaskMode.SPAN)
        assert type(spec._replace(rate=0.5)) is MaskSpec
        assert spec._replace(mode=MaskMode.IID) == (0.15, 3.0, MaskMode.IID)
        assert MaskKey._make(key) == key
        assert type(key._replace(seq_index=[4, 5])) is MaskKey

    @pytest.mark.parametrize("value, name", [(MaskSpec(), "rate"), (MaskKey(0, 0, 0), "epoch"),
                                             (MaskedExample([3], [4]), "input_ids")])
    def test_fields_cannot_be_set(self, value, name):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)

    def test_the_run_types_are_not_tuples(self):
        spans = Spans(np.array([[1, 2], [4, 4]]), np.array([2]))
        batch = CorruptedBatch(np.array([3, 9, 1]), [3], np.array([9, 4, 5, 1]), [4])
        for value in (spans, batch):
            assert not isinstance(value, tuple)
            assert not hasattr(value, "__dict__")
        assert len(spans) == 2 and list(spans) == [(1, 2), (4, 4)]
        assert (batch.rows, batch.width_in, batch.width_tgt) == (1, 3, 4)


def _outcome(rows):
    """The rows, or the class and message of the error that ends them."""
    try:
        return list(rows())
    except MaskingError as e:
        return type(e), str(e)


def _batch_and_reference(seqs, indices, spec, seed, epoch, vocab):
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "s.seqs"
        write_store(seqs, store)
        reader = SequenceStoreReader(store)
        batch = _outcome(lambda: corrupt_batch(reader, indices, spec, seed, epoch, vocab)
                         .examples())
        reference = _outcome(lambda: [make_example(reader.read(i), spec,
                                                   MaskKey(seed, epoch, i), vocab)
                                      for i in indices])
    return batch, reference


class TestCorruptBatch:
    """corrupt_batch is make_example over a micro-batch, row for row and
    error for error."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rows_equal_make_example(self, data):
        sentinels = data.draw(st.integers(1, 12), "sentinels")
        vocab = Vocabulary([f"t{i}" for i in range(23 + sentinels)], sentinel_count=sentinels)
        length = st.integers(2, 80)
        if data.draw(st.booleans(), "with length-1 rows"):
            length = st.one_of(length, st.just(1))
        seqs = data.draw(st.lists(length.flatmap(
            lambda n: st.lists(st.integers(3, 22), min_size=n, max_size=n)),
            min_size=1, max_size=24), "seqs")
        if data.draw(st.booleans(), "contiguous"):
            lo = data.draw(st.integers(0, len(seqs) - 1))
            indices = range(lo, data.draw(st.integers(lo + 1, len(seqs))))
        else:
            indices = data.draw(st.permutations(range(len(seqs))), "shuffled")[
                : data.draw(st.integers(1, len(seqs)))]
        spec = MaskSpec(rate=data.draw(st.sampled_from([0.05, 0.15, 0.3, 0.5, 0.9])),
                        mean_span=data.draw(st.sampled_from([1.0, 2.5, 3.0, 8.0])),
                        mode=data.draw(st.sampled_from(list(MaskMode))))
        seed, epoch = data.draw(st.integers(-5, 2**40)), data.draw(st.integers(0, 3))
        batch, reference = _batch_and_reference(seqs, indices, spec, seed, epoch, vocab)
        assert batch == reference

    def test_a_length_one_row_fails_as_make_example_does(self, sentinel_vocab):
        batch, reference = _batch_and_reference([[3, 4, 5], [6]], range(2), MaskSpec(), 1, 0,
                                                sentinel_vocab)
        assert batch == reference == (
            MaskingError, "sequence length must be at least 2, got 1")

    def test_the_sentinel_budget_fails_as_make_example_does(self, sentinel_vocab):
        spec = MaskSpec(rate=0.5, mode=MaskMode.IID)
        batch, reference = _batch_and_reference([[3, 4, 5, 6], list(range(3, 23))], [1, 0],
                                                spec, 1, 0, sentinel_vocab)
        assert batch == reference
        assert batch[0] is SentinelBudgetError

    def test_an_empty_batch_is_rejected(self, sentinel_vocab, tmp_path):
        write_store([[3, 4, 5]], tmp_path / "s.seqs")
        reader = SequenceStoreReader(tmp_path / "s.seqs")
        with pytest.raises(MaskingError) as e:
            corrupt_batch(reader, [], MaskSpec(), 1, 0, sentinel_vocab)
        assert str(e.value) == "a batch needs at least one sequence"

    def test_lengths_give_what_padding_stats_reads(self, sentinel_vocab):
        with tempfile.TemporaryDirectory() as tmp:
            store = Path(tmp) / "s.seqs"
            write_store([[3, 4, 5, 6, 7, 8], [9, 10]], store)
            batch = corrupt_batch(SequenceStoreReader(store), [0, 1], MaskSpec(), 2, 0,
                                  sentinel_vocab)
        padded = assemble(list(batch.examples()), micro=2, pad_id=0)
        assert (batch.rows, batch.width_in, batch.width_tgt) == (
            padded.rows, padded.width_in, padded.width_tgt)
        assert padding_stats(batch) == padding_stats(padded)


def documented_draw(n: int, spec: MaskSpec, key: MaskKey) -> list[tuple[int, int]]:
    """draw_mask for one row, read off its documentation in plain Python.

    Slot j's word is the j-th little-endian u64 of SHAKE-128 over the packed
    (seed, epoch, seq_index). Slots order by the word's bits above the low
    (n-2).bit_length() bits and below bit 62, then by slot. The first m-1
    slots hold the k-1 span bars and the other n-m the k gap bars.
    """
    m, s = mask_counts(n, spec)
    k = min(s, n - m)
    stream = hashlib.shake_128((key.seed % 2**64).to_bytes(8, "little")
                               + key.epoch.to_bytes(8, "little")
                               + key.seq_index.to_bytes(8, "little")).digest(8 * (n - 1))
    words = [int.from_bytes(stream[8 * j : 8 * j + 8], "little") for j in range(n - 1)]
    low = (n - 2).bit_length()

    def smallest(slots, count):
        return sorted(sorted(slots, key=lambda j: (words[j] % 2**62 >> low, j))[:count])

    span_bars = smallest(range(m - 1), k - 1) + [m - 1]
    gap_bars = [j - (m - 1) for j in smallest(range(m - 1, n - 1), k)]
    spans, before = [], -1
    for gap, bar in zip(gap_bars, span_bars):
        spans.append((gap + before + 2, gap + bar + 1))
        before = bar
    return spans


def _rows(spans) -> list[list[tuple[int, int]]]:
    """The per-row span lists of a run draw."""
    cuts = np.cumsum(spans.counts)[:-1]
    return [[tuple(p) for p in row.tolist()] for row in np.split(spans.bounds, cuts)]


SPECS = st.builds(MaskSpec, rate=st.sampled_from([0.05, 0.15, 0.3, 0.5, 0.9]),
                  mean_span=st.sampled_from([1.0, 2.5, 3.0, 8.0]),
                  mode=st.sampled_from(list(MaskMode)))


class TestKeyedDraw:
    """The SHAKE-128 keyed draw: its stream, its counts, its uniformity, and
    its independence from the run a row is drawn in."""

    @pytest.mark.parametrize("key", [MaskKey(1, 0, 0), MaskKey(*np.array([1, 0, 0]))])
    def test_known_answer(self, key):
        assert draw_mask(512, MaskSpec(), key) == [
            (5, 9), (22, 28), (48, 50), (56, 59), (83, 85), (96, 96), (158, 160), (184, 194),
            (197, 197), (223, 225), (247, 248), (253, 253), (274, 274), (310, 313),
            (316, 318), (327, 328), (340, 341), (343, 347), (351, 351), (360, 360),
            (376, 377), (405, 407), (427, 427), (442, 446), (477, 478), (509, 509)]

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 300), spec=SPECS, seed=st.integers(-5, 2**70),
           epoch=st.integers(0, 2**64 - 1), index=st.integers(0, 2**64 - 1))
    def test_draw_is_the_documented_stream(self, n, spec, seed, epoch, index):
        key = MaskKey(seed, epoch, index)
        spans = draw_mask(n, spec, key)
        assert spans == documented_draw(n, spec, key)
        assert all(type(v) is int for pair in spans for v in pair)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_one_row_is_its_row_of_a_run(self, data):
        """The plain-Python draw of one row, the reference, against the
        numpy draw of a run: row for row, span for span."""
        lengths = data.draw(st.lists(st.one_of(st.sampled_from([2, 3, 512, 4096]),
                                               st.integers(2, 600)), min_size=1, max_size=6))
        rate = data.draw(st.one_of(st.sampled_from([0.15, 0.5]), st.floats(1e-9, 0.01),
                                   st.floats(0.99, 1 - 1e-9)), "rate")
        spec = MaskSpec(rate, data.draw(st.sampled_from([1.0, 2.5, 3.0, 20.0]), "mean span"),
                        data.draw(st.sampled_from(list(MaskMode)), "mode"))
        seed = data.draw(st.one_of(st.integers(-2**70, -1), st.integers(2**64, 2**70),
                                   st.integers(0, 2**64 - 1)), "seed")
        epoch = data.draw(st.one_of(st.just(2**64 - 1), st.integers(0, 2**64 - 1)), "epoch")
        indices = data.draw(st.lists(st.one_of(st.just(2**63), st.integers(0, 2**64 - 1)),
                                     min_size=len(lengths), max_size=len(lengths)), "indices")
        run = draw_mask(np.array(lengths), spec,
                        MaskKey(seed, epoch, np.array(indices, dtype=np.uint64)))
        assert _rows(run) == [draw_mask(n, spec, MaskKey(seed, epoch, i))
                              for n, i in zip(lengths, indices)]

    @pytest.mark.parametrize("indices", [[5, 2**63], [2**64 - 1, 0], (2**63, 2**64 - 2)])
    def test_a_list_of_large_indices_is_keyed_exactly(self, indices):
        """numpy makes such a list float64; the run draw keys on each index
        as the uint64 it is."""
        run = draw_mask(np.array([10, 10]), MaskSpec(), MaskKey(1, 0, indices))
        assert _rows(run) == [draw_mask(10, MaskSpec(), MaskKey(1, 0, i)) for i in indices]

    @pytest.mark.parametrize("spec", [
        MaskSpec(),
        MaskSpec(rate=0.5, mean_span=2.0),  # n/2 and m/2 tie at .5 for odd n and m
        MaskSpec(rate=0.25, mean_span=2.5),
        MaskSpec(rate=0.5, mode=MaskMode.IID),
        MaskSpec(rate=0.9, mean_span=1.0),  # the span count is cut to what fits
    ])
    def test_run_counts_equal_mask_counts_for_every_length_to_4096(self, spec):
        lengths = np.arange(2, 4097)
        for lo in range(0, len(lengths), 256):
            run = lengths[lo : lo + 256]
            spans = draw_mask(run, spec, MaskKey(3, 1, range(lo, lo + len(run))))
            bounds, counts = spans.bounds, spans.counts
            first = np.cumsum(counts) - counts
            masked = np.add.reduceat(bounds[:, 1] - bounds[:, 0] + 1, first)
            expected = [mask_counts(n, spec) for n in run.tolist()]
            assert masked.tolist() == [m for m, _ in expected]
            assert counts.tolist() == [min(s, n - m) for n, (m, s) in zip(run.tolist(), expected)]
            assert (bounds[:, 0] >= 1).all() and (bounds[:, 0] <= bounds[:, 1]).all()
            assert (bounds[:, 1] < np.repeat(run, counts)).all()
            apart = bounds[1:, 0] > bounds[:-1, 1] + 1
            apart[first[1:] - 1] = True  # a row's first span follows another row's last
            assert apart.all()

    @pytest.mark.parametrize("n, spec", [
        (10, MaskSpec(rate=0.4, mean_span=2.0)),  # 4 masked in 2 spans: 45 configurations
        (7, MaskSpec(rate=0.5, mean_span=2.0)),  # round(3.5) = 4 masked in 2 spans: 9
        (9, MaskSpec(rate=0.3, mode=MaskMode.IID)),  # 3 single tokens: 20
        (8, MaskSpec(rate=0.6, mean_span=1.0)),  # 5 masked, 5 spans cut to 3: 6
    ])
    def test_every_valid_configuration_is_equally_likely(self, n, spec):
        m, s = mask_counts(n, spec)
        valid = {pos for pos in combinations(range(1, n), m)
                 if 1 + sum(b > a + 1 for a, b in zip(pos, pos[1:])) == min(s, n - m)}
        draws = 400 * len(valid)
        seen = Counter()
        for lo in range(0, draws, 2000):
            size = min(2000, draws - lo)
            run = draw_mask(np.full(size, n), spec, MaskKey(11, 2, range(lo, lo + size)))
            for row in _rows(run):
                seen[tuple(p for start, end in row for p in range(start, end + 1))] += 1
        assert set(seen) == valid
        expected = draws / len(valid)
        chi2 = sum((c - expected) ** 2 / expected for c in seen.values())
        df = len(valid) - 1
        # Wilson-Hilferty upper quantile of chi-square at z = 4.265 (p about 1e-5)
        assert chi2 < df * (1 - 2 / (9 * df) + 4.265 * math.sqrt(2 / (9 * df))) ** 3

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_rows_spans_do_not_depend_on_its_run(self, data):
        lengths = data.draw(st.lists(st.integers(2, 300), min_size=1, max_size=40), "lengths")
        spec, seed = data.draw(SPECS, "spec"), data.draw(st.integers(-5, 2**40), "seed")
        alone = [draw_mask(n, spec, MaskKey(seed, 4, i)) for i, n in enumerate(lengths)]
        if data.draw(st.booleans(), "--sort-by-length order"):
            order = np.argsort(lengths, kind="stable")
        else:
            order = np.array(data.draw(st.permutations(range(len(lengths))), "order"))
        cuts = sorted(data.draw(st.sets(st.integers(1, max(1, len(lengths) - 1))), "cuts"))
        for run in np.split(order, [c for c in cuts if c < len(lengths)]):
            spans = draw_mask([lengths[i] for i in run], spec, MaskKey(seed, 4, run.tolist()))
            assert len(spans) == sum(spans.counts)
            assert _rows(spans) == [alone[i] for i in run]

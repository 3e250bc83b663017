"""Acceptance gate: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v`; the ACCEPTANCE lines are
written straight to the terminal so they appear even under output capture.
"""

import contextlib
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import warmstart
from warmstart.batcher import assemble, padding_efficiency, plan_accumulation
from warmstart.corpus import SequenceStoreReader, TokenSequence, write_store
from warmstart.masking import MaskKey, MaskSpec, MaskedExample, draw_mask, make_example
from warmstart.memplan import (
    HardwareSpec,
    ModelSpec,
    PrecisionMode,
    estimate,
    interconnect_compare,
)
from warmstart.schedule import LrSchedule, lr_at
from warmstart.translate import (
    DictionaryProvider,
    IdentityProvider,
    TranslationOutcome,
    TranslationStatus,
    TranslationTable,
    lookup_or_fetch,
    translate_all,
)
from warmstart.transplant import (
    EmbeddingMatrix,
    map_token,
    read_embeddings,
    transplant,
    write_embeddings,
)
from warmstart.vocab import Vocabulary

from conftest import TOY_TOKENS, make_aliasfree_vocab, make_corpus_text
from test_masking import reconstruct
from test_transplant import _oracle_mean, _random_case


@pytest.fixture
def announce(capsys):
    """One PASS/FAIL line per criterion, printed through output capture."""

    @contextlib.contextmanager
    def _announce(n, desc):
        verdict = "FAIL"
        try:
            yield
            verdict = "PASS"
        finally:
            with capsys.disabled():
                sys.stdout.write(f"\nACCEPTANCE {n:02d} {verdict} {desc}\n")
                sys.stdout.flush()

    return _announce


def test_criterion_01_identity_transplant_byte_identical(tmp_path, announce):
    with announce(1, "identity transplant byte-identical in under 5 s"):
        tokens = make_aliasfree_vocab(32_768, sentinel_count=100)
        vocab = Vocabulary(tokens, sentinel_count=100)
        rng = np.random.default_rng(17)
        src = EmbeddingMatrix(rng.standard_normal((32_768, 512), dtype=np.float32))
        src_path = tmp_path / "src.embt"
        out_path = tmp_path / "out.embt"
        write_embeddings(src, src_path)

        started = time.perf_counter()
        table = TranslationTable()
        specials = vocab.special_ids()
        pending = [tok for i, tok in enumerate(vocab.tokens) if i not in specials]
        translate_all(table, IdentityProvider(), pending)
        out, report = transplant(src, vocab, vocab, table)
        write_embeddings(out, out_path)
        elapsed = time.perf_counter() - started

        assert out_path.read_bytes() == src_path.read_bytes()
        assert report.specials_copied == 103
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_randomized_transplant_exactness(announce):
    with announce(2, "1000 random transplants: single-piece bit-equal, mean in box"):
        rng = random.Random(424242)
        for trial in range(1000):
            src, tgt, src_emb, table, expected = _random_case(rng, trial)
            assert src.size <= 64 and tgt.size <= 64 and src_emb.dim <= 8
            out, _ = transplant(src_emb, src, tgt, table)
            assert np.isfinite(out.data).all()
            for tgt_id, pieces in expected.items():
                row = out.data[tgt_id]
                rows = [src_emb.data[p] for p in pieces]
                if len(pieces) == 1:
                    assert row.tobytes() == rows[0].tobytes()
                else:
                    assert row.tolist() == [float(x) for x in _oracle_mean(rows)]
                    assert (np.min(rows, axis=0) <= row).all()
                    assert (row <= np.max(rows, axis=0)).all()


def test_criterion_03_token_mapping_structure(announce):
    with announce(3, "translated-token piece lists match the hand derivation"):
        src = Vocabulary(TOY_TOKENS, sentinel_count=0)
        provider = DictionaryProvider({
            "doktor": "doctor",
            "dokumentet": "the document",
            "værsgo": "here you go",
            # Aarhus deliberately missing: translation fails
        })
        table = TranslationTable()
        expected = {
            "▁doktor": [6, 7],
            "▁dokumentet": [8, 9],
            "▁værsgo": [3, 4, 5],
            "▁Aarhus": [2],
        }
        for token, pieces in expected.items():
            outcome = lookup_or_fetch(table, provider, token)
            assert map_token(token, outcome, src) == pieces, token
        # multi-word translations produced multi-piece means; the failure
        # fell back to the unknown-token path
        assert not table.get("Aarhus").ok
        assert table.get("Aarhus").text == "Aarhus"


def test_criterion_04_exact_mask_rate_and_reconstruction(announce):
    with announce(4, "10k sequences: exactly 77 masked, 26 spans, reconstructable"):
        vocab = Vocabulary([f"t{i}" for i in range(300)], sentinel_count=100)
        spec = MaskSpec()
        rng = random.Random(31)
        started = time.perf_counter()
        for i in range(10_000):
            ids = [rng.randrange(3, 200) for _ in range(512)]
            seq = TokenSequence(ids=ids, seq_index=i)
            key = MaskKey(seed=99, epoch=0, seq_index=i)
            spans = draw_mask(512, spec, key)
            assert sum(e - s + 1 for s, e in spans) == 77
            assert len(spans) == 26
            ex = make_example(seq, spec, key, vocab)
            assert reconstruct(ex, vocab) == ids
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_05_dynamic_masks_distinct_and_deterministic(announce):
    with announce(5, "ten epochs of masks pairwise distinct and reproducible"):
        spec = MaskSpec()
        all_distinct = 0
        for i in range(1000):
            masks = [
                tuple(draw_mask(512, spec, MaskKey(seed=7, epoch=e, seq_index=i)))
                for e in range(10)
            ]
            if len(set(masks)) == 10:
                all_distinct += 1
        assert all_distinct >= 999
        for i in range(0, 1000, 37):
            for e in (0, 3, 9):
                key = MaskKey(seed=7, epoch=e, seq_index=i)
                assert draw_mask(512, spec, key) == draw_mask(512, spec, key)


def test_criterion_06_batcher_width_plan_and_efficiency(announce):
    with announce(6, "batch width exact, plan(128,16)=8, efficiency rational"):
        assert plan_accumulation(128, 16).accumulation_steps == 8
        rng = random.Random(60)
        for _ in range(500):
            n = rng.randrange(1, 17)
            examples = [
                MaskedExample(
                    input_ids=[1] * rng.randrange(1, 64),
                    target_ids=[1] * rng.randrange(1, 64),
                )
                for _ in range(n)
            ]
            batch = assemble(examples, micro=16, pad_id=0)
            in_lengths = [len(e.input_ids) for e in examples]
            tgt_lengths = [len(e.target_ids) for e in examples]
            assert batch.width_in == max(in_lengths)
            assert batch.width_tgt == max(tgt_lengths)
            real = sum(in_lengths) + sum(tgt_lengths)
            cells = n * (max(in_lengths) + max(tgt_lengths))
            assert padding_efficiency(batch) == Fraction(real, cells)


def test_criterion_07_schedule_anchors_and_monotonicity(announce):
    with announce(7, "schedule anchors exact to 1e-12, monotone each side"):
        total = 100_000
        s = LrSchedule(total_steps=total)
        anchors = {0: 0.0, 2500: 2.0e-3, 5000: 4.0e-3, total: 0.0}
        for step, want in anchors.items():
            got = lr_at(s, step)
            if want == 0.0:
                assert got == 0.0
            else:
                assert abs(got - want) / want <= 1e-12
        prev = -1.0
        for step in range(0, 5001):
            cur = lr_at(s, step)
            assert cur >= prev
            prev = cur
        for step in range(5000, total + 1):
            cur = lr_at(s, step)
            assert cur <= prev
            prev = cur


def test_criterion_08_memory_accounting_exact(announce):
    with announce(8, "optimizer 2-values rule, halving law, verbatim figures"):
        rng = random.Random(88)
        for _ in range(1000):
            p = rng.randrange(1, 10**13)
            model = ModelSpec(p)
            full = estimate(model, PrecisionMode.FULL_32BIT, offload=False)
            half = estimate(model, PrecisionMode.HALF_16BIT, offload=False)
            assert full.optimizer_bytes == 2 * p * 4
            assert half.optimizer_bytes == 2 * p * 4
            assert half.weights_bytes * 2 == full.weights_bytes
            assert half.gradients_bytes * 2 == full.gradients_bytes

        small = estimate(ModelSpec(60_000_000), PrecisionMode.FULL_32BIT, offload=False)
        assert (small.weights_bytes, small.gradients_bytes, small.optimizer_bytes,
                small.gpu_total_bytes) == (
            240_000_000, 240_000_000, 480_000_000, 960_000_000)
        large = estimate(ModelSpec(770_000_000), PrecisionMode.FULL_32BIT, offload=False)
        assert large.weights_bytes == 3_080_000_000

        hw = HardwareSpec(gpu_count=2, gpu_memory_bytes=2**30,
                          system_ram_bytes=2**30, nvlink_pairs=True)
        inter = interconnect_compare(hw)
        assert (inter.nvlink_min_gb_s, inter.nvlink_max_gb_s, inter.pcie4_gb_s) == (
            50.0, 100.0, 31.5)


def test_criterion_09_round_trips_byte_identical(tmp_path, announce):
    with announce(9, "store and cache survive write-read-write byte-identically"):
        rng = random.Random(909)
        store_a = tmp_path / "a.seqs"
        store_b = tmp_path / "b.seqs"
        for _ in range(1000):
            id_lists = [
                [rng.randrange(2**31) for _ in range(rng.randrange(1, 12))]
                for _ in range(rng.randrange(0, 7))
            ]
            write_store((TokenSequence(ids=ids) for ids in id_lists), store_a)
            reread = [s.ids for s in SequenceStoreReader(store_a)]
            assert reread == id_lists
            write_store((TokenSequence(ids=ids) for ids in reread), store_b)
            assert store_b.read_bytes() == store_a.read_bytes()
            assert (tmp_path / "b.seqs.idx").read_bytes() == (
                tmp_path / "a.seqs.idx").read_bytes()

        pool = "abζx▁\t\n\r\\ .é"
        cache_a = tmp_path / "a.tsv"
        cache_b = tmp_path / "b.tsv"
        for _ in range(1000):
            table = TranslationTable()
            for i in range(rng.randrange(0, 9)):
                token = f"t{i}" + "".join(
                    rng.choice(pool) for _ in range(rng.randrange(0, 6)))
                text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 8)))
                status = (TranslationStatus.TRANSLATED if rng.random() < 0.5
                          else TranslationStatus.FAILED)
                table.insert(token, TranslationOutcome(status, text))
            table.save(cache_a)
            reloaded = TranslationTable.load(cache_a)
            assert reloaded.items() == table.items()
            reloaded.save(cache_b)
            assert cache_b.read_bytes() == cache_a.read_bytes()


@pytest.fixture(scope="module")
def smoke_workspace(tmp_path_factory):
    """A 1 MB corpus, a 512-token vocabulary and a source embedding file."""
    root = tmp_path_factory.mktemp("smoke")
    tokens = make_aliasfree_vocab(512, sentinel_count=100)
    vocab_path = root / "vocab.txt"
    vocab_path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
    # words that tokenize to single marker-initial pieces
    words = [t.lstrip("▁") for t in tokens if t.startswith("▁")][:200]
    corpus_dir = root / "corpus"
    corpus_dir.mkdir()
    text = make_corpus_text(215_000, words, seed=5)
    assert len(text.encode("utf-8")) >= 1_000_000
    (corpus_dir / "doc0.txt").write_text(text, encoding="utf-8")
    rng = np.random.default_rng(3)
    emb = EmbeddingMatrix(rng.standard_normal((512, 32), dtype=np.float32))
    emb_path = root / "src.embt"
    write_embeddings(emb, emb_path)
    return root, vocab_path, corpus_dir, emb_path


def test_criterion_10_end_to_end_smoke(smoke_workspace, announce):
    with announce(10, "CLI pipeline end-to-end under 60 s, epochs differ by mask"):
        root, vocab_path, corpus_dir, emb_path = smoke_workspace
        store = root / "corpus.seqs"
        out_emb = root / "warm.embt"
        e0 = root / "epoch0.tsv"
        e1 = root / "epoch1.tsv"

        # The child runs in the temp dir, where a relative PYTHONPATH (the
        # Tier-1 command's `src`) no longer resolves; put the directory of
        # the package this process imported first so both run the same code.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(warmstart.__file__).resolve().parents[1]),
            env.get("PYTHONPATH"),
        ]))

        def run(*argv):
            proc = subprocess.run(
                [sys.executable, "-m", "warmstart", *argv],
                capture_output=True, text=True, cwd=root, env=env, timeout=60,
            )
            assert proc.returncode == 0, (
                f"{argv[0]} exited {proc.returncode}: {proc.stderr}")
            return proc.stdout

        started = time.perf_counter()
        run("prepare-corpus", "--vocab", str(vocab_path), "--in", str(corpus_dir),
            "--out", str(store))
        run("transplant", "--src-emb", str(emb_path), "--src-vocab", str(vocab_path),
            "--tgt-vocab", str(vocab_path), "--out", str(out_emb))
        run("sample-batches", "--store", str(store), "--vocab", str(vocab_path),
            "--seed", "7", "--epoch", "0", "--out", str(e0))
        run("sample-batches", "--store", str(store), "--vocab", str(vocab_path),
            "--seed", "7", "--epoch", "1", "--out", str(e1))
        elapsed = time.perf_counter() - started

        assert out_emb.read_bytes() == emb_path.read_bytes()
        lines0 = e0.read_text(encoding="utf-8").splitlines()
        lines1 = e1.read_text(encoding="utf-8").splitlines()
        assert len(lines0) == len(lines1) > 100
        ids0 = [l.split("\t", 1)[0] for l in lines0]
        ids1 = [l.split("\t", 1)[0] for l in lines1]
        assert ids0 == ids1
        inputs0 = [l.split("\t")[1] for l in lines0]
        inputs1 = [l.split("\t")[1] for l in lines1]
        differing = sum(a != b for a, b in zip(inputs0, inputs1))
        assert differing >= 0.99 * len(lines0)
        assert elapsed < 60.0, f"took {elapsed:.2f}s"

import math
import os
import random
import threading

import numpy as np
import pytest

import warmstart.transplant as transplant_module
from warmstart.translate import (
    IdentityProvider,
    TranslationOutcome,
    TranslationStatus,
    TranslationTable,
    normalize_token,
    translate_all,
)
from warmstart.transplant import (
    ROW_CHUNK,
    EmbeddingFormatError,
    EmbeddingMatrix,
    TransplantError,
    map_token,
    read_embeddings,
    transplant,
    write_embeddings,
)
from warmstart.vocab import Vocabulary

from conftest import TOY_TOKENS, random_embedding

OK = TranslationStatus.TRANSLATED
FAIL = TranslationStatus.FAILED


def table_of(entries):
    table = TranslationTable()
    for token, outcome in entries.items():
        table.insert(token, outcome)
    return table


class TestEmbeddingMatrix:
    def test_rejects_non_2d(self):
        with pytest.raises(TransplantError):
            EmbeddingMatrix(np.zeros(4, dtype=np.float32))

    def test_rejects_nan(self):
        data = np.zeros((2, 2), dtype=np.float32)
        data[0, 0] = np.nan
        with pytest.raises(TransplantError):
            EmbeddingMatrix(data)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        m = EmbeddingMatrix(rng.standard_normal((5, 4), dtype=np.float32))
        path = tmp_path / "e.embt"
        write_embeddings(m, path)
        back = read_embeddings(path)
        assert back == m

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "e.embt"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(EmbeddingFormatError):
            read_embeddings(path)

    def test_wrong_version(self, tmp_path):
        import struct

        path = tmp_path / "e.embt"
        path.write_bytes(b"EMBT" + struct.pack("<III", 9, 0, 0))
        with pytest.raises(EmbeddingFormatError):
            read_embeddings(path)

    def test_truncated_payload(self, tmp_path):
        import struct

        path = tmp_path / "e.embt"
        path.write_bytes(b"EMBT" + struct.pack("<III", 1, 2, 2) + b"\x00" * 7)
        with pytest.raises(EmbeddingFormatError):
            read_embeddings(path)

    # 4 bytes too long; a header claiming far more floats than the file holds,
    # which must fail before any array is allocated.
    @pytest.mark.parametrize("rows,dim,size", [(2, 2, 20), (0xFFFFFFFF, 0xFFFFFFFF, 8)])
    def test_payload_size_must_match_header(self, tmp_path, rows, dim, size):
        import struct

        path = tmp_path / "e.embt"
        path.write_bytes(b"EMBT" + struct.pack("<III", 1, rows, dim) + b"\x00" * size)
        with pytest.raises(EmbeddingFormatError, match=f"payload is {size} bytes, expected "):
            read_embeddings(path)

    def test_failed_write_leaves_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "e.embt"
        write_embeddings(EmbeddingMatrix(np.ones((2, 2), dtype=np.float32)), path)
        before = path.read_bytes()

        class FullDisk:
            # Gives the shape for the header, then fails as the payload is written.
            shape = (2, 2)

            def astype(self, *args, **kwargs):
                raise OSError(28, "No space left on device")

        broken = EmbeddingMatrix(np.zeros((2, 2), dtype=np.float32))
        broken.data = FullDisk()
        with pytest.raises(OSError):
            write_embeddings(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["e.embt"]

    def _read_from_fifo(self, tmp_path, payload):
        fifo = tmp_path / "e.fifo"
        os.mkfifo(fifo)

        def write():
            with open(fifo, "wb") as f:
                f.write(payload)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            return read_embeddings(fifo)
        finally:
            writer.join(timeout=10)
            assert not writer.is_alive()

    def test_fifo_reads_like_a_regular_file(self, tmp_path):
        m = EmbeddingMatrix(random_embedding(300, 70, seed=5))  # 84 kB, over a pipe's buffer
        path = tmp_path / "e.embt"
        write_embeddings(m, path)
        assert self._read_from_fifo(tmp_path, path.read_bytes()) == read_embeddings(path) == m

    @pytest.mark.parametrize("rows,dim,size,message", [
        (2, 2, 12, "payload is 12 bytes, expected 16"),
        (2, 2, 20, "payload is longer than the 16 bytes expected"),
        (0xFFFFFFFF, 0xFFFFFFFF, 8, "header claims 4294967295 x 4294967295 floats"),
    ])
    def test_fifo_payload_must_match_header(self, tmp_path, rows, dim, size, message):
        import struct

        payload = b"EMBT" + struct.pack("<III", 1, rows, dim) + b"\x00" * size
        with pytest.raises(EmbeddingFormatError, match=message) as exc:
            self._read_from_fifo(tmp_path, payload)
        assert "\n" not in str(exc.value)


class TestMapToken:
    def test_single_word_translation(self, toy_vocab):
        out = map_token("▁doktor", TranslationOutcome(OK, "doctor"), toy_vocab)
        assert out == [6, 7]

    def test_multi_word_translation(self, toy_vocab):
        out = map_token("▁værsgo", TranslationOutcome(OK, "here you go"), toy_vocab)
        assert out == [3, 4, 5]

    def test_unk_only_collapse(self, toy_vocab):
        out = map_token("▁ζζ", TranslationOutcome(FAIL, "ζζ"), toy_vocab)
        assert out == [2]

    def test_empty_text_collapse(self, toy_vocab):
        out = map_token("▁", TranslationOutcome(FAIL, ""), toy_vocab)
        assert out == [2]


def identity_table(vocab):
    table = TranslationTable()
    specials = vocab.special_ids()
    pending = [tok for i, tok in enumerate(vocab.tokens) if i not in specials]
    translate_all(table, IdentityProvider(), pending, boundary_marker=vocab.boundary_marker)
    return table


class TestTransplant:
    def test_identity_is_bit_identical(self):
        v = Vocabulary(TOY_TOKENS, sentinel_count=0)
        rng = np.random.default_rng(11)
        src_emb = EmbeddingMatrix(rng.standard_normal((v.size, 6), dtype=np.float32))
        out, report = transplant(src_emb, v, v, identity_table(v))
        assert (out.data == src_emb.data).all()
        assert report.specials_copied == 3
        assert report.total_tokens == v.size
        assert (
            report.translated_count + report.failed_count
            + report.bypassed_count + report.specials_copied
            == report.total_tokens
        )

    def test_worked_mean_example(self, toy_vocab):
        data = np.zeros((10, 3), dtype=np.float32)
        data[6] = [1.0, 0.0, 3.0]
        data[7] = [3.0, 2.0, 1.0]
        src_emb = EmbeddingMatrix(data)
        tgt = Vocabulary(["<pad>", "</s>", "<unk>", "▁doktor"], sentinel_count=0)
        table = table_of({"doktor": TranslationOutcome(OK, "doctor")})
        out, report = transplant(src_emb, toy_vocab, tgt, table)
        assert out.data[3].tolist() == [2.0, 1.0, 2.0]
        assert report.translated_count == 1

    def test_failed_identity_falls_back_to_unk_row(self, toy_vocab):
        rng = np.random.default_rng(5)
        src_emb = EmbeddingMatrix(rng.standard_normal((10, 4), dtype=np.float32))
        tgt = Vocabulary(["<pad>", "</s>", "<unk>", "▁Aarhus"], sentinel_count=0)
        table = table_of({"Aarhus": TranslationOutcome(FAIL, "Aarhus")})
        out, report = transplant(src_emb, toy_vocab, tgt, table)
        assert (out.data[3] == src_emb.data[toy_vocab.unk_id]).all()
        assert report.unk_only_count == 1
        assert report.failed_count == 1

    def test_sentinels_copied_by_role(self):
        src = Vocabulary([f"s{i}" for i in range(12)], sentinel_count=3)
        tgt = Vocabulary([f"t{i}" for i in range(8)], sentinel_count=2)
        rng = np.random.default_rng(9)
        src_emb = EmbeddingMatrix(rng.standard_normal((12, 4), dtype=np.float32))
        table = table_of({
            f"t{i}": TranslationOutcome(FAIL, f"t{i}") for i in range(3, 6)
        })
        out, report = transplant(src_emb, src, tgt, table)
        # tgt S0 is id 7, src S0 is id 11; tgt S1 id 6, src S1 id 10
        assert (out.data[7] == src_emb.data[11]).all()
        assert (out.data[6] == src_emb.data[10]).all()
        assert report.specials_copied == 5

    def test_source_short_on_sentinels_rejected(self):
        src = Vocabulary([f"s{i}" for i in range(8)], sentinel_count=1)
        tgt = Vocabulary([f"t{i}" for i in range(8)], sentinel_count=2)
        src_emb = EmbeddingMatrix(np.zeros((8, 2), dtype=np.float32))
        with pytest.raises(TransplantError):
            transplant(src_emb, src, tgt, TranslationTable())

    def test_missing_entry_rejected(self, toy_vocab):
        src_emb = EmbeddingMatrix(np.zeros((10, 2), dtype=np.float32))
        tgt = Vocabulary(["<pad>", "</s>", "<unk>", "▁doktor"], sentinel_count=0)
        with pytest.raises(TransplantError, match="doktor"):
            transplant(src_emb, toy_vocab, tgt, TranslationTable())

    def test_row_count_mismatch_rejected(self, toy_vocab):
        src_emb = EmbeddingMatrix(np.zeros((9, 2), dtype=np.float32))
        with pytest.raises(TransplantError):
            transplant(src_emb, toy_vocab, toy_vocab, TranslationTable())

    def test_bypassed_vs_failed_split(self, toy_vocab):
        rng = np.random.default_rng(2)
        src_emb = EmbeddingMatrix(rng.standard_normal((10, 4), dtype=np.float32))
        tgt = Vocabulary(["<pad>", "</s>", "<unk>", "▁2022", "▁Aarhus"], sentinel_count=0)
        table = identity_table(tgt)
        out, report = transplant(src_emb, toy_vocab, tgt, table)
        assert report.bypassed_count == 1  # "2022"
        assert report.failed_count == 1  # "Aarhus"
        assert report.translated_count == 0


def _random_case(rng, case_seed):
    """One randomized toy transplant with a hand-computable expectation."""
    dim = rng.randrange(1, 9)
    n_src_words = rng.randrange(2, 20)
    sentinel_count = rng.randrange(0, 4)
    src_tokens = ["<pad>", "</s>", "<unk>"]
    src_tokens += [f"▁w{i}" for i in range(n_src_words)]
    src_tokens += [f"<x{k}>" for k in range(sentinel_count - 1, -1, -1)]
    src = Vocabulary(src_tokens, sentinel_count=sentinel_count)

    n_tgt_words = rng.randrange(1, 20)
    tgt_tokens = ["<pad>", "</s>", "<unk>"]
    tgt_tokens += [f"▁t{j}" for j in range(n_tgt_words)]
    tgt_tokens += [f"<x{k}>" for k in range(sentinel_count - 1, -1, -1)]
    tgt = Vocabulary(tgt_tokens, sentinel_count=sentinel_count)

    emb = np.random.default_rng(case_seed).standard_normal(
        (src.size, dim), dtype=np.float32
    )
    src_emb = EmbeddingMatrix(emb)

    table = TranslationTable()
    expected_pieces = {}
    for j in range(n_tgt_words):
        tgt_id = 3 + j
        if rng.random() < 0.75:
            k = rng.randrange(1, 5)
            words = [rng.randrange(n_src_words) for _ in range(k)]
            text = " ".join(f"w{w}" for w in words)
            table.insert(f"t{j}", TranslationOutcome(OK, text))
            expected_pieces[tgt_id] = [3 + w for w in words]
        else:
            table.insert(f"t{j}", TranslationOutcome(FAIL, f"t{j}"))
            expected_pieces[tgt_id] = [tgt.unk_id]
    return src, tgt, src_emb, table, expected_pieces


def _oracle_mean(rows):
    """Sequential float64 mean per coordinate, rounded once to float32."""
    dim = len(rows[0])
    out = []
    for d in range(dim):
        acc = 0.0
        for row in rows:
            acc += float(row[d])
        out.append(np.float32(acc / len(rows)))
    return out


def test_randomized_toy_transplants_exact():
    rng = random.Random(20260817)
    for trial in range(60):
        src, tgt, src_emb, table, expected = _random_case(rng, trial)
        out, report = transplant(src_emb, src, tgt, table)
        assert np.isfinite(out.data).all()
        for tgt_id, pieces in expected.items():
            row = out.data[tgt_id]
            rows = [src_emb.data[p] for p in pieces]
            if len(pieces) == 1:
                assert (row == rows[0]).all()
            else:
                assert row.tolist() == [float(x) for x in _oracle_mean(rows)]
                lo = np.min(rows, axis=0)
                hi = np.max(rows, axis=0)
                assert (lo <= row).all() and (row <= hi).all()
            # norm bound: mean norm never exceeds the largest contributor
            max_norm = max(math.sqrt(sum(float(x) ** 2 for x in r)) for r in rows)
            assert float(np.linalg.norm(row.astype(np.float64))) <= max_norm * (1 + 1e-6)


def test_permutation_equivariance():
    rng = random.Random(99)
    src, tgt, src_emb, table, expected = _random_case(rng, 1234)
    out, _ = transplant(src_emb, src, tgt, table)
    regular = [i for i in range(tgt.size) if i not in tgt.special_ids()]
    if len(regular) < 2:
        pytest.skip("case too small to permute")
    perm = regular[1:] + regular[:1]
    permuted_tokens = list(tgt.tokens)
    for old, new in zip(regular, perm):
        permuted_tokens[new] = tgt.tokens[old]
    tgt2 = Vocabulary(
        permuted_tokens,
        sentinel_count=tgt.sentinel_count,
        boundary_marker=tgt.boundary_marker,
    )
    out2, _ = transplant(src_emb, src, tgt2, table)
    for old, new in zip(regular, perm):
        assert (out2.data[new] == out.data[old]).all()


def per_row_transplant(src_emb, src, tgt, table):
    """The plain per-row loop: each row on its own, float64 zeros plus each
    piece's row in turn, one division, one cast."""
    role_copy = {tgt.pad_id: src.pad_id, tgt.eos_id: src.eos_id, tgt.unk_id: src.unk_id}
    for k in range(tgt.sentinel_count):
        role_copy[tgt.sentinel_id(k)] = src.sentinel_id(k)
    out = np.empty((tgt.size, src_emb.dim), dtype=np.float32)
    for t, token in enumerate(tgt.tokens):
        if t in role_copy:
            pieces = [role_copy[t]]
        else:
            outcome = table.get(normalize_token(token, tgt.boundary_marker))
            pieces = map_token(token, outcome, src)
        if len(pieces) == 1:
            out[t] = src_emb.data[pieces[0]]
        else:
            acc = np.zeros(src_emb.dim, dtype=np.float64)
            for p in pieces:
                acc += src_emb.data[p]
            out[t] = (acc / len(pieces)).astype(np.float32)
    return out


def _case_with_counts(counts, seed, sentinel_count=2, dim=7, data=None):
    """A target with one regular token per entry of ``counts``: a count k > 0
    translates to k random source words, 0 is a failed token that collapses
    to the unknown row. ``data`` replaces the random source matrix."""
    rng = random.Random(seed)
    n_src_words = 40
    sentinels = [f"<x{k}>" for k in range(sentinel_count - 1, -1, -1)]
    src = Vocabulary(
        ["<pad>", "</s>", "<unk>"] + [f"▁w{i}" for i in range(n_src_words)] + sentinels,
        sentinel_count=sentinel_count,
    )
    tgt = Vocabulary(
        ["<pad>", "</s>", "<unk>"] + [f"▁t{j}" for j in range(len(counts))] + sentinels,
        sentinel_count=sentinel_count,
    )
    table = TranslationTable()
    for j, k in enumerate(counts):
        if k:
            text = " ".join(f"w{rng.randrange(n_src_words)}" for _ in range(k))
            table.insert(f"t{j}", TranslationOutcome(OK, text))
        else:
            table.insert(f"t{j}", TranslationOutcome(FAIL, f"t{j}"))
    if data is None:
        data = random_embedding(src.size, dim, seed)
    return src, tgt, EmbeddingMatrix(data), table


class TestBlockedRows:
    """transplant() builds rows in blocks per piece count; every byte must
    match the per-row loop."""

    def _assert_matches_per_row(self, src, tgt, src_emb, table):
        out, report = transplant(src_emb, src, tgt, table)
        assert out.data.tobytes() == per_row_transplant(src_emb, src, tgt, table).tobytes()
        return out, report

    @pytest.mark.parametrize("k", [1, 3])
    def test_several_blocks_and_a_partial_one(self, k):
        counts = [k] * (2 * ROW_CHUNK + 5)
        src, tgt, src_emb, table = _case_with_counts(counts, seed=k)
        out, report = self._assert_matches_per_row(src, tgt, src_emb, table)
        assert report.mean_pieces_per_token == k

    def test_every_piece_count_from_one_to_six(self):
        counts = [k for k in range(1, 7) for _ in range(40)]
        random.Random(6).shuffle(counts)
        src, tgt, src_emb, table = _case_with_counts(counts, seed=6)
        out, report = self._assert_matches_per_row(src, tgt, src_emb, table)
        assert report.mean_pieces_per_token == sum(counts) / len(counts)

    def test_negative_zero_rows_compared_as_bytes(self):
        counts = [1, 2, 3, 1, 5]
        src, tgt, src_emb, table = _case_with_counts(counts, seed=8, data=np.full(
            (45, 7), -0.0, dtype=np.float32))
        out, _ = self._assert_matches_per_row(src, tgt, src_emb, table)
        positive, negative = np.zeros(7, np.float32).tobytes(), src_emb.data[3].tobytes()
        # 0.0 + (-0.0) is +0.0: a mean starts from zeros, a copy keeps the sign.
        assert [out.data[3 + j].tobytes() for j in range(len(counts))] == [
            negative, positive, positive, negative, positive]

    def test_unk_only_rows_and_role_copied_specials(self):
        counts = [0, 2, 0, 1, 4, 0]
        src, tgt, src_emb, table = _case_with_counts(counts, seed=3, sentinel_count=3)
        out, report = self._assert_matches_per_row(src, tgt, src_emb, table)
        assert report.unk_only_count == 3 and report.specials_copied == 6
        for j in (0, 2, 5):
            assert out.data[3 + j].tobytes() == src_emb.data[src.unk_id].tobytes()
        for k in range(3):
            assert out.data[tgt.sentinel_id(k)].tobytes() == \
                src_emb.data[src.sentinel_id(k)].tobytes()

    def test_map_token_called_once_per_regular_token(self, monkeypatch):
        counts = [1, 2, 0, 3] * 80
        src, tgt, src_emb, table = _case_with_counts(counts, seed=4)
        calls = []

        def counting_map_token(token, outcome, vocab):
            calls.append(token)
            return map_token(token, outcome, vocab)

        monkeypatch.setattr(transplant_module, "map_token", counting_map_token)
        transplant(src_emb, src, tgt, table)
        assert calls == [f"▁t{j}" for j in range(len(counts))]

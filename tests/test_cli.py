import json
import os
import struct
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

import warmstart
import warmstart.cli as cli
from warmstart.cli import main
from warmstart.corpus import SequenceStoreReader, write_store
from warmstart.errors import read_text
from warmstart.transplant import EmbeddingMatrix, write_embeddings
from warmstart.vocab import load_vocab

from conftest import write_vocab_file

VOCAB_TOKENS = [
    "<pad>", "</s>", "<unk>",
    "▁red", "▁blue", "▁green", "▁sun", "▁moon", "▁salt", "▁iron", "▁pine",
    "<s2>", "<s1>", "<s0>",
]
WORDS = ["red", "blue", "green", "sun", "moon", "salt", "iron", "pine"]


@pytest.fixture(autouse=True)
def _isolate_run_log(tmp_path, monkeypatch):
    monkeypatch.setenv("WARMSTART_RUN_LOG", str(tmp_path / "runs.log"))
    monkeypatch.delenv("WARMSTART_SEED", raising=False)


@pytest.fixture
def vocab_file(tmp_path):
    return write_vocab_file(tmp_path / "vocab.txt", VOCAB_TOKENS)


@pytest.fixture
def emb_file(tmp_path):
    rng = np.random.default_rng(21)
    m = EmbeddingMatrix(rng.standard_normal((len(VOCAB_TOKENS), 4), dtype=np.float32))
    path = tmp_path / "src.embt"
    write_embeddings(m, path)
    return path


@pytest.fixture
def corpus_store(tmp_path, vocab_file):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    words = [WORDS[(i * 5 + 3) % len(WORDS)] for i in range(20)]
    (corpus / "a.txt").write_text(" ".join(words), encoding="utf-8")
    (corpus / "b.txt").write_text(" ".join(WORDS[:8] + ["red"]), encoding="utf-8")
    store = tmp_path / "corpus.seqs"
    code = main([
        "prepare-corpus", "--vocab", str(vocab_file), "--in", str(corpus),
        "--out", str(store), "--seq-len", "8", "--min-tail", "2",
        "--sentinel-count", "3",
    ])
    assert code == 0
    return store


class TestParsing:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_required_value(self, capsys):
        code = main(["transplant", "--sentinel-count", "3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("warmstart: error: ConfigError:")
        assert "\n" == err[err.index("\n") :]  # a single line

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_python_m_warmstart_prints_the_one_declared_version(self):
        """The package's __version__ is the only version source: pyproject.toml
        reads it, and the run log's warmstart= field and --version print it."""
        src = Path(warmstart.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-m", "warmstart", "--version"],
                              capture_output=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0
        assert proc.stdout.decode() == f"warmstart {warmstart.__version__}\n"
        pyproject = (src.parent / "pyproject.toml").read_text(encoding="utf-8")
        assert 'dynamic = ["version"]' in pyproject
        assert 'version = {attr = "warmstart.__version__"}' in pyproject


class TestTransplantCommand:
    def test_identity_round_trip_and_report(self, tmp_path, vocab_file, emb_file, capsys):
        out = tmp_path / "out.embt"
        report = tmp_path / "report.json"
        code = main([
            "transplant", "--src-emb", str(emb_file), "--src-vocab", str(vocab_file),
            "--tgt-vocab", str(vocab_file), "--out", str(out),
            "--report", str(report), "--sentinel-count", "3",
        ])
        assert code == 0
        assert out.read_bytes() == emb_file.read_bytes()
        tally = json.loads(report.read_text())["report"]
        assert (
            tally["translated_count"] + tally["failed_count"]
            + tally["bypassed_count"] + tally["specials_copied"]
            == tally["total_tokens"] == len(VOCAB_TOKENS)
        )
        assert tally["specials_copied"] == 6

    def test_rerun_is_byte_identical(self, tmp_path, vocab_file, emb_file):
        args = [
            "transplant", "--src-emb", str(emb_file), "--src-vocab", str(vocab_file),
            "--tgt-vocab", str(vocab_file), "--out", str(tmp_path / "out.embt"),
            "--sentinel-count", "3",
        ]
        assert main(args) == 0
        first = (tmp_path / "out.embt").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "out.embt").read_bytes() == first

    def test_dict_provider_with_cache(self, tmp_path, vocab_file, emb_file):
        tgt = write_vocab_file(
            tmp_path / "tgt.txt",
            ["<pad>", "</s>", "<unk>", "▁rød", "▁blå", "<s2>", "<s1>", "<s0>"],
        )
        dict_file = tmp_path / "dict.tsv"
        dict_file.write_text("rød\tred\nblå\tblue\n", encoding="utf-8")
        cache = tmp_path / "cache.tsv"
        out = tmp_path / "out.embt"
        code = main([
            "transplant", "--src-emb", str(emb_file), "--src-vocab", str(vocab_file),
            "--tgt-vocab", str(tgt), "--out", str(out),
            "--provider", "dict", "--dict-file", str(dict_file),
            "--cache", str(cache), "--sentinel-count", "3",
        ])
        assert code == 0
        assert "rød\tOK\tred" in cache.read_text(encoding="utf-8")
        first = out.read_bytes()
        # rerun without the dictionary: every token is already cached
        code = main([
            "transplant", "--src-emb", str(emb_file), "--src-vocab", str(vocab_file),
            "--tgt-vocab", str(tgt), "--out", str(out),
            "--cache", str(cache), "--sentinel-count", "3",
        ])
        assert code == 0
        assert out.read_bytes() == first


    @pytest.mark.parametrize("flags, error", [
        (["--provider", "remote", "--remote-url", "http://localhost:9", "--rate-limit", "0"],
         "TranslationError: rate limit must be finite and positive"),
        (["--provider", "remote", "--remote-url", "http://localhost:9", "--timeout-ms", "0"],
         "TranslationError: timeout_ms must be finite and positive"),
        (["--provider", "dict"], "ConfigError: missing required value: --dict-file"),
        (["--provider", "remote"], "ConfigError: missing required value: --remote-url"),
    ], ids=["rate-limit-0", "timeout-ms-0", "dict-without-file", "remote-without-url"])
    def test_bad_provider_setting_fails_before_any_input_is_read(
        self, flags, error, tmp_path, vocab_file, capsys
    ):
        missing = tmp_path / "missing.embt"
        code = main([
            "transplant", "--src-emb", str(missing), "--src-vocab", str(vocab_file),
            "--tgt-vocab", str(vocab_file), "--out", str(tmp_path / "out.embt"),
            "--sentinel-count", "3", *flags,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"warmstart: error: {error}") and err.count("\n") == 1
        assert [f.name for f in tmp_path.iterdir()] == ["vocab.txt"]

    def test_remote_provider_over_real_http(self, tmp_path, vocab_file, emb_file, capsys,
                                            monkeypatch):
        """The default standard-library POST, with `requests` blocked: a 503
        is retried, batches are 64, and a null item is FAIL with the token's
        own text."""
        monkeypatch.setitem(sys.modules, "requests", None)  # any import of it fails
        posts = []  # (status, number of texts) per POST

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                texts = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["texts"]
                status = 503 if not posts else 200
                posts.append((status, len(texts)))
                body = json.dumps(
                    {"translations": [None if t == "ord7" else t for t in texts]}).encode()
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        class Server(ThreadingHTTPServer):
            daemon_threads = False  # server_close joins every request thread

        for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        tgt = write_vocab_file(tmp_path / "tgt.txt", ["<pad>", "</s>", "<unk>"]
                               + [f"▁ord{i}" for i in range(131)] + ["<s2>", "<s1>", "<s0>"])
        cache = tmp_path / "cache.tsv"
        alive = threading.active_count()
        server = Server(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            code = main([
                "transplant", "--src-emb", str(emb_file), "--src-vocab", str(vocab_file),
                "--tgt-vocab", str(tgt), "--out", str(tmp_path / "out.embt"),
                "--provider", "remote", "--remote-url", f"http://127.0.0.1:{server.server_port}/",
                "--cache", str(cache), "--sentinel-count", "3",
            ])
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        assert threading.active_count() == alive  # a leaked thread would stop later forks
        assert code == 0
        # 131 pending tokens in batches of 64: the first batch is retried once after the 503.
        assert posts == [(503, 64), (200, 64), (200, 64), (200, 3)]
        lines = cache.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 131 and "ord7\tFAIL\tord7" in lines and "ord8\tOK\tord8" in lines
        assert capsys.readouterr().out == (
            "transplanted 137 tokens: 130 translated, 1 failed, 0 bypassed, 6 specials copied\n")

    def test_crlf_cache_is_one_error_line_and_left_unchanged(
        self, tmp_path, vocab_file, emb_file, capsys
    ):
        cache = tmp_path / "cache.tsv"
        cache.write_bytes(b"red\tOK\tred\r\nblue\tOK\tblue\r\n")
        out = tmp_path / "out.embt"
        code = main([
            "transplant", "--src-emb", str(emb_file), "--src-vocab", str(vocab_file),
            "--tgt-vocab", str(vocab_file), "--out", str(out),
            "--cache", str(cache), "--sentinel-count", "3",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"warmstart: error: CacheFormatError: {cache}:1: " \
                      "raw carriage return (CRLF line endings?)\n"
        assert cache.read_bytes() == b"red\tOK\tred\r\nblue\tOK\tblue\r\n"
        assert not out.exists()

    def test_bad_cache_reported_before_the_source_matrix_is_read(
        self, tmp_path, vocab_file, capsys
    ):
        cache = tmp_path / "cache.tsv"
        cache.write_bytes(b"hus\tOK\thouse\r\n")
        code = main([
            "transplant", "--src-emb", str(tmp_path / "missing.embt"),
            "--src-vocab", str(vocab_file), "--tgt-vocab", str(vocab_file),
            "--out", str(tmp_path / "out.embt"), "--cache", str(cache),
            "--sentinel-count", "3",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"warmstart: error: CacheFormatError: {cache}:1: " \
                      "raw carriage return (CRLF line endings?)\n"


class TestPrepareCorpusAndStats:
    def test_store_contents(self, corpus_store):
        reader = SequenceStoreReader(corpus_store)
        assert reader.lengths() == [8, 8, 4, 8]
        for seq in reader:
            assert all(3 <= t <= 10 for t in seq)

    def test_stats_matches_recount(self, corpus_store, capsys):
        assert main(["stats", "--store", str(corpus_store)]) == 0
        out = capsys.readouterr().out
        reader = SequenceStoreReader(corpus_store)
        brute_tokens = sum(len(s) for s in reader)
        assert f"sequences={reader.count}" in out
        assert f"tokens={brute_tokens}" in out

    def test_single_file_blank_line_docs(self, tmp_path, vocab_file):
        doc = tmp_path / "single.txt"
        doc.write_text("red blue green\n\nsun moon salt iron pine red blue", encoding="utf-8")
        store = tmp_path / "s.seqs"
        code = main([
            "prepare-corpus", "--vocab", str(vocab_file), "--in", str(doc),
            "--out", str(store), "--seq-len", "4", "--min-tail", "2",
            "--sentinel-count", "3",
        ])
        assert code == 0
        # doc 1: 3 ids (tail 3 kept); doc 2: 7 ids -> 4 + tail 3
        assert SequenceStoreReader(store).lengths() == [3, 4, 3]

    def test_directory_without_txt_files_is_one_error_line(self, tmp_path, vocab_file, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "notes.md").write_text("red blue", encoding="utf-8")
        store = tmp_path / "c.seqs"
        assert main(["prepare-corpus", "--vocab", str(vocab_file), "--in", str(corpus),
                     "--out", str(store), "--sentinel-count", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and not store.exists()
        assert err == f"warmstart: error: ConfigError: {corpus}: no *.txt files found\n"

    def test_single_file_crlf_blank_line_docs(self, tmp_path, vocab_file, capsys):
        doc = tmp_path / "single.txt"
        doc.write_bytes(b"red red red\r\n\r\nblue blue blue\r\n")
        store = tmp_path / "s.seqs"
        code = main([
            "prepare-corpus", "--vocab", str(vocab_file), "--in", str(doc),
            "--out", str(store), "--seq-len", "4", "--min-tail", "2",
            "--sentinel-count", "3",
        ])
        assert code == 0
        assert "sequences=2 " in capsys.readouterr().out
        assert list(SequenceStoreReader(store)) == [[3, 3, 3], [4, 4, 4]]


class TestSampleBatches:
    def _run(self, store, vocab_file, out, epoch=0, extra=()):
        return main([
            "sample-batches", "--store", str(store), "--vocab", str(vocab_file),
            "--seed", "5", "--epoch", str(epoch), "--micro-batch", "2",
            "--effective-batch", "8", "--out", str(out),
            "--sentinel-count", "3", *extra,
        ])

    def test_text_output_shape(self, tmp_path, corpus_store, vocab_file):
        out = tmp_path / "batches.tsv"
        assert self._run(corpus_store, vocab_file, out) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        for line in lines:
            idx, inputs, targets = line.split("\t")
            int(idx)
            assert all(tok.isdigit() for tok in inputs.split())
            assert all(tok.isdigit() for tok in targets.split())

    def test_never_builds_the_tokenizer_state(self, tmp_path, corpus_store, vocab_file,
                                              monkeypatch):
        loaded = []

        def spy(*args, **kwargs):
            loaded.append(load_vocab(*args, **kwargs))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_vocab", spy)
        assert self._run(corpus_store, vocab_file, tmp_path / "batches.tsv") == 0
        assert len(loaded) == 1 and "_matcher" not in vars(loaded[0])

    def test_rerun_byte_identical(self, tmp_path, corpus_store, vocab_file):
        out = tmp_path / "batches.tsv"
        assert self._run(corpus_store, vocab_file, out) == 0
        first = out.read_bytes()
        assert self._run(corpus_store, vocab_file, out) == 0
        assert out.read_bytes() == first

    def test_epochs_differ_only_in_masking(self, tmp_path, corpus_store, vocab_file):
        out0 = tmp_path / "e0.tsv"
        out1 = tmp_path / "e1.tsv"
        assert self._run(corpus_store, vocab_file, out0, epoch=0) == 0
        assert self._run(corpus_store, vocab_file, out1, epoch=1) == 0
        lines0 = out0.read_text(encoding="utf-8").splitlines()
        lines1 = out1.read_text(encoding="utf-8").splitlines()
        ids0 = [l.split("\t")[0] for l in lines0]
        ids1 = [l.split("\t")[0] for l in lines1]
        assert ids0 == ids1
        assert lines0 != lines1

    def test_sort_by_length(self, tmp_path, corpus_store, vocab_file):
        out = tmp_path / "sorted.tsv"
        assert self._run(corpus_store, vocab_file, out, extra=("--sort-by-length",)) == 0
        indices = [int(l.split("\t")[0]) for l in out.read_text().splitlines()]
        lengths = SequenceStoreReader(corpus_store).lengths()
        assert indices == sorted(range(len(lengths)), key=lambda i: lengths[i])

    def test_binary_output(self, tmp_path, corpus_store, vocab_file):
        out = tmp_path / "bat"
        assert self._run(corpus_store, vocab_file, out, extra=("--format", "binary")) == 0
        pairs = SequenceStoreReader(out)
        assert pairs.count == 2 * 4
        eos = 1
        for seq in pairs:  # inputs and targets alike end in eos
            assert seq[-1] == eos

    def test_report_stream(self, tmp_path, corpus_store, vocab_file):
        out = tmp_path / "b.tsv"
        report = tmp_path / "eff.txt"
        assert self._run(corpus_store, vocab_file, out, extra=("--report", str(report))) == 0
        lines = report.read_text().splitlines()
        assert len(lines) == 2  # 4 sequences in micro-batches of 2
        assert all("combined=" in l for l in lines)

    def test_accumulation_plan_printed(self, tmp_path, corpus_store, vocab_file, capsys):
        assert self._run(corpus_store, vocab_file, tmp_path / "b.tsv") == 0
        assert "plan: micro=2 steps=4 effective=8" in capsys.readouterr().out

    def test_index_past_end_of_store_is_one_error_line(
        self, tmp_path, corpus_store, vocab_file, capsys
    ):
        idx = tmp_path / "corpus.seqs.idx"
        assert idx.read_bytes()[16:] == struct.pack("<4Q", 16, 52, 88, 108)
        idx.write_bytes(b"SEQI" + struct.pack("<IQ4Q", 1, 4, 16, 52, 88, 4000))
        assert self._run(corpus_store, vocab_file, tmp_path / "b.tsv") == 1
        err = capsys.readouterr().err
        assert err.startswith("warmstart: error: StoreFormatError:") and err.count("\n") == 1

    @staticmethod
    def _store_ending_in_length_one(tmp_path):
        store = tmp_path / "tail.seqs"
        ids = [[3, 4, 5, 6], [7, 8, 9, 10], [3, 4, 5], [7]]  # masking needs length >= 2
        write_store(ids, store)
        return store

    def test_failed_epoch_writes_no_files(self, tmp_path, vocab_file, capsys):
        store = self._store_ending_in_length_one(tmp_path)
        out = tmp_path / "old.tsv"
        out.write_bytes(b"earlier run\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        report = ("--report", str(tmp_path / "eff.txt"))
        assert self._run(store, vocab_file, out, extra=report) == 1
        assert self._run(store, vocab_file, tmp_path / "new.tsv", extra=report) == 1
        assert self._run(store, vocab_file, tmp_path / "bat", extra=("--format", "binary")) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert out.read_bytes() == b"earlier run\n"
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3 and all(l.startswith("warmstart: error: MaskingError:") for l in err)

    def test_stdout_holds_finished_micro_batches_before_an_error(
        self, tmp_path, vocab_file, capsys
    ):
        store = self._store_ending_in_length_one(tmp_path)
        assert main([
            "sample-batches", "--store", str(store), "--vocab", str(vocab_file),
            "--micro-batch", "2", "--effective-batch", "8", "--sentinel-count", "3",
        ]) == 1
        out, err = capsys.readouterr()
        assert [line.split("\t")[0] for line in out.splitlines()] == ["0", "1"]
        assert err.startswith("warmstart: error: MaskingError:") and err.count("\n") == 1

    @pytest.mark.parametrize("flags, error", [
        (["--rate", "2"], "MaskingError: rate must be in (0, 1), got 2.0"),
        (["--mean-span", "nan"], "MaskingError: mean_span must be finite and at least 1"),
        (["--micro-batch", "3", "--effective-batch", "8"],
         "NonDivisibleError: micro batch 3 does not divide effective batch 8"),
        (["--epoch", "-1"], "MaskingError: epoch and seq_index must be non-negative"),
    ], ids=["rate", "mean-span-nan", "micro-batch-3", "epoch-negative"])
    def test_bad_setting_fails_before_any_input_is_read(
        self, flags, error, tmp_path, corpus_store, capsys
    ):
        assert main([
            "sample-batches", "--store", str(corpus_store),
            "--vocab", str(tmp_path / "missing.txt"), "--sentinel-count", "3", *flags,
        ]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"warmstart: error: {error}") and err.count("\n") == 1

    def test_binary_without_out_fails_before_any_input_is_read(self, tmp_path, capsys):
        assert main([
            "sample-batches", "--store", str(tmp_path / "missing.seqs"),
            "--vocab", str(tmp_path / "missing.txt"), "--sentinel-count", "3",
            "--format", "binary",
        ]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "warmstart: error: ConfigError: --out is required with --format binary\n"

    def test_epoch_past_8_bytes_fails_before_any_input_is_read(self, tmp_path, vocab_file, capsys):
        assert main([
            "sample-batches", "--store", str(tmp_path / "missing.seqs"),
            "--vocab", str(vocab_file), "--sentinel-count", "3", "--epoch", str(2**64),
        ]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("warmstart: error: MaskingError: epoch must be below 2**64, "
                       "got 18446744073709551616\n")

    def test_out_to_a_fifo(self, tmp_path, corpus_store, vocab_file):
        regular = tmp_path / "b.tsv"
        assert self._run(corpus_store, vocab_file, regular) == 0
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        drain = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        drain.start()
        assert self._run(corpus_store, vocab_file, fifo) == 0
        drain.join(timeout=30)
        assert not drain.is_alive()
        assert got == [regular.read_bytes()]


class TestVocabularyLayout:
    """A layout that no vocabulary can hold fails before any input is read;
    an id past the vocabulary needs its size, so it fails once that is read."""

    @pytest.mark.parametrize("flags, error", [
        (["--boundary-marker", "ab"], "boundary marker must be a single character"),
        (["--sentinel-count", "-1"], "sentinel_count must be non-negative"),
        (["--pad-id", "5", "--eos-id", "5"], "pad_id, eos_id and unk_id must be distinct"),
    ], ids=["marker", "sentinel-count", "ids"])
    @pytest.mark.parametrize("subcommand", ["prepare-corpus", "sample-batches", "transplant"])
    def test_bad_layout_fails_before_any_input_is_read(
        self, subcommand, flags, error, tmp_path, capsys
    ):
        missing = str(tmp_path / "missing")
        inputs = {
            "prepare-corpus": ["--vocab", missing, "--in", missing,
                               "--out", str(tmp_path / "c.seqs")],
            "sample-batches": ["--vocab", missing, "--store", missing],
            "transplant": ["--src-emb", missing, "--src-vocab", missing, "--tgt-vocab", missing,
                           "--out", str(tmp_path / "out.embt")],
        }[subcommand]
        assert main([subcommand, *inputs, *flags]) == 1
        assert capsys.readouterr() == ("", f"warmstart: error: VocabularyError: {error}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("pad_id", [14, 99])
    def test_an_id_past_the_vocabulary_is_one_error_line(self, pad_id, tmp_path, vocab_file,
                                                         capsys):
        assert main(["prepare-corpus", "--vocab", str(vocab_file), "--in", str(vocab_file),
                     "--out", str(tmp_path / "c.seqs"), "--sentinel-count", "3",
                     "--pad-id", str(pad_id)]) == 1
        assert capsys.readouterr() == (
            "", f"warmstart: error: VocabularyError: pad_id={pad_id} out of range for size 14\n")
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]


class TestNonFiniteOptions:
    @pytest.mark.parametrize("span", ["nan", "inf"])
    def test_nan_mean_span_is_one_error_line(
        self, span, tmp_path, corpus_store, vocab_file, capsys
    ):
        out = tmp_path / "b.tsv"
        assert main([
            "sample-batches", "--store", str(corpus_store), "--vocab", str(vocab_file),
            "--sentinel-count", "3", "--mean-span", span, "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("warmstart: error: MaskingError:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("peak", ["nan", "inf"])
    def test_non_finite_peak_is_one_error_line(self, peak, capsys):
        assert main(["lr-curve", "--total", "100", "--warmup", "10", "--peak", peak]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("warmstart: error: ScheduleError:") and err.count("\n") == 1


class TestOutputCollisions:
    """Two outputs, or an output and an input, naming one file fail before
    anything is read or written."""

    @pytest.mark.parametrize("case", [
        "out-is-report", "out-is-store", "binary-report-is-an-output-index", "report-is-cache",
        "out-is-store-index", "lr-curve-out-is-config", "memplan-run-log-is-config",
        "transplant-cache-is-config", "prepare-corpus-out-is-config",
        "text-out-reserves-its-index",
    ])
    def test_leaves_every_file_unchanged(
        self, case, tmp_path, vocab_file, emb_file, corpus_store, capsys
    ):
        x = tmp_path / "x.txt"
        x.write_text("red\tOK\tred\n", encoding="utf-8")
        cfg = tmp_path / "run.cfg"  # the config file is an input of every subcommand
        cfg.write_text("seed = 3\n", encoding="utf-8")
        transplant = ["transplant", "--src-emb", str(emb_file), "--src-vocab", str(vocab_file),
                      "--tgt-vocab", str(vocab_file), "--sentinel-count", "3",
                      "--out", str(tmp_path / "o.embt")]
        batches = ["sample-batches", "--store", str(corpus_store), "--vocab", str(vocab_file),
                   "--sentinel-count", "3"]
        argv = {
            "out-is-report": [*batches, "--out", str(x), "--report", str(x)],
            "out-is-store": [*batches, "--out", str(corpus_store)],
            "binary-report-is-an-output-index": [
                *batches, "--format", "binary", "--out", str(tmp_path / "b"),
                "--report", str(tmp_path / "b.idx")],
            "report-is-cache": [*transplant, "--report", str(x), "--cache", str(x)],
            "out-is-store-index": [
                "lr-curve", "--store", str(corpus_store), "--warmup", "1",
                "--out", f"{corpus_store}.idx"],
            "lr-curve-out-is-config": [
                "lr-curve", "--config", str(cfg), "--total", "10", "--warmup", "1",
                "--out", str(cfg)],
            "memplan-run-log-is-config": [
                "memplan", "--config", str(cfg), "--params", "1000", "--run-log", str(cfg)],
            "transplant-cache-is-config": [*transplant, "--config", str(cfg), "--cache", str(cfg)],
            "prepare-corpus-out-is-config": [
                "prepare-corpus", "--config", str(cfg), "--vocab", str(vocab_file),
                "--in", str(x), "--out", str(cfg)],
            # a text --out X reserves X.idx, as the binary pair store's index
            "text-out-reserves-its-index": [*batches, "--out", str(x), "--report", f"{x}.idx"],
        }[case]
        before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("warmstart: error: ConfigError:") and err.count("\n") == 1
        assert "are the same file" in err
        assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before

    def test_a_target_that_is_not_a_regular_file_is_exempt(self, corpus_store, vocab_file):
        assert main([
            "sample-batches", "--store", str(corpus_store), "--vocab", str(vocab_file),
            "--sentinel-count", "3", "--out", os.devnull, "--report", os.devnull,
        ]) == 0


class TestLrCurve:
    def test_csv_written(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main([
            "lr-curve", "--total", "20000", "--stride", "2500", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,lr"
        row = dict(l.split(",") for l in lines[1:])
        assert float(row["5000"]) == pytest.approx(4e-3, rel=1e-12)
        assert float(row["20000"]) == 0.0

    def test_total_derived_from_store(self, corpus_store, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main([
            "lr-curve", "--store", str(corpus_store), "--epochs", "10",
            "--effective-batch", "2", "--warmup", "5", "--stride", "7",
            "--out", str(out),
        ])
        assert code == 0
        # ceil(10 * 4 / 2) == 20
        assert "derived total=20" in capsys.readouterr().out

    def test_total_derived_from_the_store_header_alone(self, corpus_store, capsys):
        # The side index is never read, so one cut short does not fail the curve.
        index = Path(f"{corpus_store}.idx")
        index.write_bytes(index.read_bytes()[:20])
        assert main(["lr-curve", "--store", str(corpus_store), "--epochs", "10",
                     "--effective-batch", "2", "--warmup", "5", "--stride", "7"]) == 0
        assert "derived total=20" in capsys.readouterr().out

    @pytest.mark.parametrize("header, error", [
        (b"XXXX" + struct.pack("<IQ", 1, 4), "not a sequence store (bad magic)"),
        (b"SEQS" + struct.pack("<IQ", 9, 4), "unsupported version 9"),
        (b"SEQS", "not a sequence store (bad magic)"),
    ], ids=["magic", "version", "short"])
    def test_bad_store_header_is_one_error_line(self, header, error, tmp_path, capsys):
        store = tmp_path / "bad.seqs"
        store.write_bytes(header)
        assert main(["lr-curve", "--store", str(store), "--warmup", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"warmstart: error: StoreFormatError: {store}: {error}\n"

    def test_needs_total_or_store(self, capsys):
        assert main(["lr-curve"]) == 1
        assert "ConfigError" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--epochs", "--effective-batch"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_epochs_or_effective_batch_below_1_is_one_error_line(
        self, flag, value, corpus_store, tmp_path, capsys
    ):
        # The real store, then a missing one: the value is rejected before the store is opened.
        for store in (corpus_store, tmp_path / "missing.seqs"):
            assert main(["lr-curve", "--store", str(store), flag, str(value)]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"warmstart: error: ConfigError: {flag} must be at least 1, got {value}\n"

    @pytest.mark.parametrize("flags, error", [
        (["--stride", "0"], "stride must be positive, got 0"),
        (["--peak", "-1"], "peak must be finite and positive, got -1.0"),
        (["--peak", "nan"], "peak must be finite and positive, got nan"),
    ], ids=["stride-0", "peak-negative", "peak-nan"])
    def test_bad_peak_or_stride_is_one_error_line(
        self, flags, error, corpus_store, tmp_path, capsys
    ):
        # The real store, then a missing one: the value is rejected before the store is opened.
        for store in (corpus_store, tmp_path / "missing.seqs"):
            assert main(["lr-curve", "--store", str(store), *flags]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"warmstart: error: ScheduleError: {error}\n"


@pytest.mark.parametrize("command", ["stats", "sample-batches", "lr-curve"])
def test_a_header_count_the_file_cannot_hold_is_one_error_line(
    command, tmp_path, vocab_file, capsys
):
    """A 24-byte store, with no index, whose header claims 2**61 sequences:
    every record takes at least its 4-byte length prefix, so the file holds
    at most 2. lr-curve's stride makes a run that trusts the header end."""
    store = tmp_path / "lying.seqs"
    store.write_bytes(b"SEQS" + struct.pack("<IQ", 1, 2**61) + struct.pack("<2I", 1, 5))
    argv = {
        "stats": ["stats", "--store", str(store)],
        "sample-batches": ["sample-batches", "--store", str(store), "--vocab", str(vocab_file),
                           "--sentinel-count", "3"],
        "lr-curve": ["lr-curve", "--store", str(store), "--stride", str(10**18),
                     "--out", str(tmp_path / "c.csv")],
    }[command]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"warmstart: error: StoreFormatError: {store}: truncated store\n"
    assert sorted(tmp_path.iterdir()) == before  # no output and no temp file


LR_CURVE_PEAK_CHILD = """
import sys
from warmstart.cli import main

def peak():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) * 1024 for line in f if line.startswith("VmHWM:"))

before = peak()
code = main(["lr-curve", "--total", "500000", "--warmup", "10", "--out", sys.argv[1]])
print(code, peak() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_lr_curve_writes_rows_as_they_come(tmp_path):
    # A list of the 500,001 rows would hold about 45 MB; written one at a
    # time, the peak barely moves.
    out = tmp_path / "curve.csv"
    src = str(Path(warmstart.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", LR_CURVE_PEAK_CHILD, str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, grown = map(int, proc.stdout.split()[-2:])
    assert code == 0
    assert grown < 8 * 2**20
    assert proc.stdout.startswith(f"wrote 500001 points to {out}\n")
    lines = out.read_text().splitlines()
    assert lines[0] == "step,lr" and lines[-1] == "500000,0" and len(lines) == 500002


class TestMemplanCommand:
    def test_kv_block_and_verbatim_figures(self, capsys):
        code = main([
            "memplan", "--params", "60000000", "--gpus", "2",
            "--gpu-mem", "40", "--ram", "512", "--nvlink",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "weights_bytes=240000000" in out
        assert "optimizer_bytes=480000000" in out
        assert "nvlink_min_gb_s=50" in out
        assert "nvlink_max_gb_s=100" in out
        assert "pcie4_gb_s=31.5" in out
        assert "recommend_fits=true" in out

    def test_estimate_only_without_hardware(self, capsys):
        assert main(["memplan", "--params", "1000", "--precision", "fp16"]) == 0
        out = capsys.readouterr().out
        assert "weights_bytes=2000" in out
        assert "fits=" not in out

    def test_gpu_mem_requires_ram(self, capsys):
        assert main(["memplan", "--params", "1000", "--gpu-mem", "40"]) == 1

    @pytest.mark.parametrize("flags", [("--gpus", "4"), ("--nvlink",), ("--gpus", "4", "--nvlink")])
    def test_hardware_flags_without_gpu_mem_and_ram_rejected(self, flags, capsys):
        assert main(["memplan", "--params", "1000", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("warmstart: error: ConfigError:") and err.count("\n") == 1
        assert main(["memplan", "--params", "1000", "--gpus", "1"]) == 0


class TestConfigPrecedence:
    def test_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# schedule\npeak = 0.001\ntotal = 10000\n", encoding="utf-8")
        out = tmp_path / "c.csv"
        code = main([
            "lr-curve", "--config", str(cfg), "--peak", "0.004",
            "--stride", "5000", "--out", str(out),
        ])
        assert code == 0
        row = dict(l.split(",") for l in out.read_text().splitlines()[1:])
        assert float(row["5000"]) == pytest.approx(4e-3)

    def test_config_only_equals_flags_only(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("peak = 0.004\ntotal = 20000\nwarmup = 5000\nstride = 33\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["lr-curve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main([
            "lr-curve", "--peak", "0.004", "--total", "20000",
            "--warmup", "5000", "--stride", "33", "--out", str(out2),
        ]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        assert main(["lr-curve", "--config", str(cfg), "--total", "10"]) == 1
        assert "ConfigError" in capsys.readouterr().err

    def test_seed_env_fallback(self, tmp_path, corpus_store, vocab_file, monkeypatch):
        out_env = tmp_path / "env.tsv"
        out_flag = tmp_path / "flag.tsv"
        monkeypatch.setenv("WARMSTART_SEED", "5")
        assert main([
            "sample-batches", "--store", str(corpus_store), "--vocab", str(vocab_file),
            "--micro-batch", "2", "--effective-batch", "8",
            "--out", str(out_env), "--sentinel-count", "3",
        ]) == 0
        monkeypatch.delenv("WARMSTART_SEED")
        assert main([
            "sample-batches", "--store", str(corpus_store), "--vocab", str(vocab_file),
            "--seed", "5", "--micro-batch", "2", "--effective-batch", "8",
            "--out", str(out_flag), "--sentinel-count", "3",
        ]) == 0
        assert out_env.read_bytes() == out_flag.read_bytes()


class TestRunLog:
    def test_records_appended(self, tmp_path, monkeypatch, capsys):
        log = tmp_path / "runs.log"
        monkeypatch.setenv("WARMSTART_RUN_LOG", str(log))
        assert main(["memplan", "--params", "1000"]) == 0
        assert main(["memplan", "--params", "2000"]) == 0
        lines = log.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            fields = line.split("\t")
            assert fields[1] == "memplan"
            assert any(f.startswith("seed=") for f in fields)
            assert any(f.startswith("config=") for f in fields)

    @pytest.mark.parametrize("log", ["missing/runs.log", "logs"],
                             ids=["missing directory", "a directory"])
    def test_a_log_that_cannot_be_written_never_fails_the_run(self, log, tmp_path, capsys):
        argv = ["lr-curve", "--total", "10", "--warmup", "2"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        (tmp_path / "runs.log").unlink()
        (tmp_path / "logs").mkdir()
        assert main([*argv, "--run-log", str(tmp_path / log)]) == 0
        assert capsys.readouterr() == (expected, "")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["logs"]


class TestNonUtf8Input:
    """A byte that is not UTF-8 in any text input is one error line that
    names the file, not a traceback."""

    @staticmethod
    def fails_on(capsys, path, argv):
        assert main([str(a) for a in argv]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == (f"warmstart: error: InputEncodingError: {path}: not UTF-8 text "
                       "(invalid start byte: ff)\n")

    def prepare(self, vocab, source, out):
        return ["prepare-corpus", "--vocab", vocab, "--in", source, "--out", out,
                "--sentinel-count", "3"]

    def transplant(self, vocab, emb, out, *extra):
        return ["transplant", "--src-emb", emb, "--src-vocab", vocab, "--tgt-vocab", vocab,
                "--out", out, "--sentinel-count", "3", *extra]

    def test_directory_document(self, tmp_path, vocab_file, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.txt").write_text("red blue", encoding="utf-8")
        (corpus / "b.txt").write_bytes(b"sun \xff moon")
        out = tmp_path / "c.seqs"
        self.fails_on(capsys, corpus / "b.txt", self.prepare(vocab_file, corpus, out))
        assert not out.exists()

    def test_single_file_corpus(self, tmp_path, vocab_file, capsys):
        single = tmp_path / "single.txt"
        single.write_bytes(b"red blue\n\nsun \xff moon\n")
        self.fails_on(capsys, single, self.prepare(vocab_file, single, tmp_path / "c.seqs"))

    def test_vocab(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_bytes("\n".join(VOCAB_TOKENS).encode() + b"\n\xffbad\n")
        single = tmp_path / "single.txt"
        single.write_text("red blue", encoding="utf-8")
        self.fails_on(capsys, vocab, self.prepare(vocab, single, tmp_path / "c.seqs"))

    def test_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"params = 1000\n# caf\xff\n")
        self.fails_on(capsys, config, ["memplan", "--config", config])

    def test_dict_file(self, tmp_path, vocab_file, emb_file, capsys):
        dict_file = tmp_path / "dict.tsv"
        dict_file.write_bytes(b"r\xffd\tred\n")
        out = tmp_path / "out.embt"
        self.fails_on(capsys, dict_file, self.transplant(
            vocab_file, emb_file, out, "--provider", "dict", "--dict-file", dict_file))
        assert not out.exists()

    def test_cache(self, tmp_path, vocab_file, emb_file, capsys):
        cache = tmp_path / "cache.tsv"
        cache.write_bytes(b"red\tOK\tr\xffd\n")
        out = tmp_path / "out.embt"
        self.fails_on(capsys, cache, self.transplant(vocab_file, emb_file, out, "--cache", cache))
        assert not out.exists() and cache.read_bytes() == b"red\tOK\tr\xffd\n"


BOM = "\ufeff".encode()


class TestByteOrderMark:
    """A leading byte-order mark is dropped from every text input, so a
    BOM-prefixed copy gives the same result as the plain file."""

    @staticmethod
    def runs_alike(tmp_path, capsys, name, text, argv):
        """Runs `argv`, with `{d}` standing for a directory that holds `name`,
        once with the plain file and once with a BOM-prefixed copy. Their
        stdout and every file left in the directory must match; the input
        keeps its BOM, so it must be the plain result with a BOM in front."""
        results = []
        for prefix in (b"", BOM):
            d = tmp_path / ("bom" if prefix else "plain")
            (d / name).parent.mkdir(parents=True)
            (d / name).write_bytes(prefix + text.encode())
            assert main([str(a).format(d=d) for a in argv]) == 0
            files = {p.relative_to(d): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}
            results.append((capsys.readouterr(), files))
        (plain_io, plain), (bom_io, bommed) = results
        assert bommed.pop(Path(name)) == BOM + plain.pop(Path(name))
        assert bom_io == plain_io and bommed == plain

    def prepare(self, vocab, source):
        return ["prepare-corpus", "--vocab", vocab, "--in", source, "--out", "{d}/c.seqs",
                "--sentinel-count", "3", "--seq-len", "8", "--min-tail", "2"]

    def transplant(self, vocab, emb, *extra):
        return ["transplant", "--src-emb", emb, "--src-vocab", vocab, "--tgt-vocab", vocab,
                "--out", "{d}/out.embt", "--sentinel-count", "3", *extra]

    def test_directory_document(self, tmp_path, vocab_file, capsys):
        self.runs_alike(tmp_path, capsys, "corpus/a.txt", "red blue",
                        self.prepare(vocab_file, "{d}/corpus"))

    def test_single_file_corpus(self, tmp_path, vocab_file, capsys):
        self.runs_alike(tmp_path, capsys, "single.txt", "red blue\n\nsun moon\n",
                        self.prepare(vocab_file, "{d}/single.txt"))

    def test_vocab(self, tmp_path, capsys):
        """The first line is a word piece, which a BOM read as text would hide."""
        single = tmp_path / "single.txt"
        single.write_text("red blue", encoding="utf-8")
        tokens = VOCAB_TOKENS[3:4] + VOCAB_TOKENS[:3] + VOCAB_TOKENS[4:]
        self.runs_alike(tmp_path, capsys, "vocab.txt", "\n".join(tokens) + "\n", [
            *self.prepare("{d}/vocab.txt", single), "--pad-id", "1", "--eos-id", "2",
            "--unk-id", "3"])

    def test_config(self, tmp_path, capsys):
        self.runs_alike(tmp_path, capsys, "run.cfg", "seed = 3\nparams = 1000\n",
                        ["memplan", "--config", "{d}/run.cfg"])

    def test_dict_file(self, tmp_path, vocab_file, emb_file, capsys):
        self.runs_alike(tmp_path, capsys, "dict.tsv", "red\tblue\n", self.transplant(
            vocab_file, emb_file, "--provider", "dict", "--dict-file", "{d}/dict.tsv"))

    def test_cache(self, tmp_path, vocab_file, emb_file, capsys):
        self.runs_alike(tmp_path, capsys, "cache.tsv", "red\tOK\tblue\n",
                        self.transplant(vocab_file, emb_file, "--cache", "{d}/cache.tsv"))

    def test_only_one_leading_mark_is_dropped(self, tmp_path):
        path = tmp_path / "marks.txt"
        path.write_bytes(BOM + BOM + b"red" + BOM)
        assert read_text(path) == "\ufeffred\ufeff"

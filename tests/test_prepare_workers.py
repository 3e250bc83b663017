"""prepare-corpus on worker processes.

Documents are tokenized in groups: the first in the main process, the rest
on forked workers, merged in order into one store writer. The pinned
digests of the multi-group corpus at one and two workers are in
test_golden.py; these tests cover when workers start and how a failure or a
bad setting ends the run.
"""

import hashlib

import pytest

from test_cli import VOCAB_TOKENS, WORDS, _isolate_run_log  # noqa: F401 (autouse fixture)
from test_golden import GOLDEN, write_big_corpus
from test_sample_workers import cli
from conftest import write_vocab_file

POOL = "pool = lambda: [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]\n"


@pytest.fixture
def vocab(tmp_path):
    return write_vocab_file(tmp_path / "vocab.txt", VOCAB_TOKENS)


@pytest.fixture
def big_corpus(tmp_path):
    return write_big_corpus(tmp_path)[0]


def prepare(tmp_path, vocab, source, *extra):
    return ["prepare-corpus", "--vocab", vocab, "--in", source, "--out", tmp_path / "out.seqs",
            "--seq-len", "64", "--min-tail", "5", "--sentinel-count", "3", *extra]


def outputs(tmp_path) -> list[str]:
    return sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("out.seqs"))


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_bad_document_in_a_later_group_is_one_line_and_leaves_no_files(
    tmp_path, vocab, big_corpus, workers
):
    bad = big_corpus / "doc12.txt"  # in the third group, which a worker tokenizes
    bad.write_bytes(b"red blue\xff green\n")
    proc = cli(tmp_path, *prepare(tmp_path, vocab, big_corpus), workers=workers)
    assert proc.returncode == 1 and proc.stdout == b""
    assert proc.stderr.decode() == (
        f"warmstart: error: InputEncodingError: {bad}: not UTF-8 text "
        "(invalid start byte: ff)\n")
    assert outputs(tmp_path) == []
    assert not list(tmp_path.glob("*.tmp"))


def test_workers_start_only_for_a_corpus_of_several_groups(tmp_path, vocab, big_corpus):
    small = tmp_path / "small"
    small.mkdir()
    (small / "a.txt").write_text(" ".join(WORDS * 50), encoding="utf-8")
    code = (
        "import sys\n"
        "import warmstart.cli as cli\n"
        f"{POOL}"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print(pool())\n"
    )
    for source, pooled in [(small, "[]"),
                           (big_corpus, "['concurrent.futures', 'multiprocessing']")]:
        proc = cli(tmp_path, "-c", code, *prepare(tmp_path, vocab, source), workers="2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode().splitlines()[-1] == pooled
    digest = hashlib.sha256((tmp_path / "out.seqs").read_bytes()).hexdigest()
    assert digest == GOLDEN["prepare-big-dir:prepare-big-dir.seqs"]


@pytest.mark.parametrize("extra, workers, error", [
    (["--seq-len", "1"], "2", "CorpusError: seq_len must be at least 2, got 1"),
    (["--min-tail", "65"], "2", "CorpusError: min_tail must be in [0, 64], got 65"),
    ([], "0", "ConfigError: WARMSTART_WORKERS='0' is not a positive integer"),
])
def test_a_bad_setting_fails_before_any_document_is_read(
    tmp_path, vocab, big_corpus, extra, workers, error
):
    (big_corpus / "doc00.txt").write_bytes(b"\xff")
    if workers == "0":  # the worker count is resolved before the vocabulary is read, too
        vocab.write_bytes(b"\xff")
    proc = cli(tmp_path, *prepare(tmp_path, vocab, big_corpus, *extra), workers=workers)
    assert proc.returncode == 1
    assert proc.stderr.decode() == f"warmstart: error: {error}\n"
    assert outputs(tmp_path) == []


@pytest.mark.parametrize("extra, error", [
    (["--seq-len", "1"], "CorpusError: seq_len must be at least 2, got 1"),
    (["--min-tail", "65"], "CorpusError: min_tail must be in [0, 64], got 65"),
])
def test_a_bad_chunk_setting_fails_before_a_missing_vocabulary_is_read(
    tmp_path, big_corpus, extra, error
):
    proc = cli(tmp_path, *prepare(tmp_path, tmp_path / "missing.txt", big_corpus, *extra))
    assert proc.returncode == 1
    assert proc.stderr.decode() == f"warmstart: error: {error}\n"
    assert outputs(tmp_path) == []

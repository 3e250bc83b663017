"""sample-batches on worker processes, and the output-path checks around it.

Runs of micro-batches go to forked workers and come back in order, so every
output must match the serial run byte for byte, on a real pipe as well as
in process. Several tests run the CLI in a child process: only there is
stdout a buffered pipe that a forked worker could write twice.
"""

import contextlib
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import warmstart
from warmstart.cli import _Decimals, main
from warmstart.corpus import TokenSequence, write_store

from conftest import write_vocab_file
from test_cli import VOCAB_TOKENS, _isolate_run_log  # noqa: F401 (autouse fixture)
from test_golden import GOLDEN, write_big_store

SRC = str(Path(warmstart.__file__).resolve().parents[1])
BASE = ["sample-batches", "--seed", "9", "--micro-batch", "2", "--effective-batch", "8",
        "--sentinel-count", "3"]


@pytest.fixture
def vocab(tmp_path):
    return write_vocab_file(tmp_path / "vocab.txt", VOCAB_TOKENS)


@pytest.fixture
def big_store(tmp_path):
    return write_big_store(tmp_path / "big.seqs")


def cli(tmp_path, *argv, workers=None):
    """`python -m warmstart argv` (or `python -c ...`) in a child process
    with piped output,
    without WARMSTART_* or PYTHON* settings such as PYTHONUNBUFFERED."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("WARMSTART_", "PYTHON")) or k == "PYTHONHOME"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["WARMSTART_RUN_LOG"] = str(tmp_path / "runs.log")
    if workers is not None:
        env["WARMSTART_WORKERS"] = workers
    if argv[0] != "-c":
        argv = ("-m", "warmstart", *argv)
    return subprocess.run([sys.executable, *map(str, argv)],
                          capture_output=True, cwd=tmp_path, env=env, timeout=120)


@pytest.mark.parametrize("size", [3, 10, 11, 100, 1001, 32768])
def test_decimal_rows_are_str_joined_by_spaces(size):
    ids = np.arange(size)[::-1].copy()
    text, ends = _Decimals(size).rows(ids, [size - 1, 1], "\t")
    first = " ".join(map(str, ids[:-1].tolist())) + "\t"
    assert text == first + "0\t"
    assert ends == [len(first), len(first) + 2]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_stdout_on_a_pipe_matches_the_pinned_digest(tmp_path, vocab, big_store, workers):
    proc = cli(tmp_path, *BASE, "--store", big_store, "--vocab", vocab, workers=workers)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN["sample-big-stdout:stdout"]


def test_stdout_redirected_to_a_file_is_written_once(tmp_path, vocab, big_store, monkeypatch):
    """A caller that points sys.stdout at a buffered file, as an in-process
    tracer does, gets each line once even though workers fork."""
    monkeypatch.setenv("WARMSTART_WORKERS", "2")
    path = tmp_path / "stdout.txt"
    with open(path, "w", encoding="utf-8") as f, contextlib.redirect_stdout(f):
        assert main([*BASE, "--store", str(big_store), "--vocab", str(vocab)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN["sample-big-stdout:stdout"]


def test_a_failure_in_a_worker_keeps_earlier_lines_and_writes_no_files(tmp_path, vocab):
    ids = [[3 + (i + j) % 8 for j in range(2 + i % 9)] for i in range(320)]
    ids[200] = [7]  # micro-batch 100, inside the first run a worker handles
    store = tmp_path / "short.seqs"
    write_store((TokenSequence(seq) for seq in ids), store)
    before = sorted(p.name for p in tmp_path.iterdir())
    argv = [*BASE, "--store", store, "--vocab", vocab]

    proc = cli(tmp_path, *argv, workers="2")
    assert proc.returncode == 1
    lines = proc.stdout.decode().splitlines()
    assert [line.split("\t")[0] for line in lines] == [str(i) for i in range(200)]
    assert proc.stderr.decode() == (
        "warmstart: error: MaskingError: sequence length must be at least 2, got 1\n")

    for extra in (["--out", tmp_path / "b.tsv", "--report", tmp_path / "b.eff"],
                  ["--format", "binary", "--out", tmp_path / "bin"]):
        proc = cli(tmp_path, *argv, *extra, workers="2")
        assert proc.returncode == 1 and proc.stdout == b""
        assert proc.stderr.count(b"\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_a_bad_worker_count_is_one_error_line(
    tmp_path, vocab, big_store, monkeypatch, capsys, value
):
    monkeypatch.setenv("WARMSTART_WORKERS", value)
    out = tmp_path / "b.tsv"
    assert main([*BASE, "--store", str(big_store), "--vocab", str(vocab),
                 "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err == (f"warmstart: error: ConfigError: WARMSTART_WORKERS={value!r} "
                   "is not a positive integer\n")


def test_the_pool_is_imported_only_when_workers_start(tmp_path, vocab, big_store):
    """Importing the CLI loads no process pool, which keeps start-up short;
    an epoch of several runs at two workers does load one."""
    code = (
        "import sys\n"
        "import warmstart.cli as cli\n"
        "pool = lambda: [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]\n"
        "print(pool())\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print(pool())\n"
    )
    proc = cli(tmp_path, "-c", code, *BASE, "--store", big_store, "--vocab", vocab,
               "--out", tmp_path / "b.tsv", workers="2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.decode().splitlines()
    assert lines[0] == "[]" and lines[-1] == "['concurrent.futures', 'multiprocessing']"


def test_a_process_with_other_threads_runs_the_epoch_itself(tmp_path, vocab, big_store):
    code = (
        "import sys, threading\n"
        "import warmstart.cli as cli\n"
        "done = threading.Event()\n"
        "threading.Thread(target=done.wait).start()\n"
        "try:\n"
        "    assert cli.main(sys.argv[1:]) == 0\n"
        "finally:\n"
        "    done.set()\n"
        "print('multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    proc = cli(tmp_path, "-c", code, *BASE, "--store", big_store, "--vocab", vocab,
               "--out", tmp_path / "b.tsv", workers="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-1] == "True False"
    assert hashlib.sha256((tmp_path / "b.tsv").read_bytes()).hexdigest() == (
        GOLDEN["sample-big-text:big.tsv"])


def test_an_id_outside_the_vocabulary_is_one_error_line(tmp_path, vocab, capsys):
    store = tmp_path / "wide.seqs"
    size = len(VOCAB_TOKENS)
    write_store((TokenSequence(seq) for seq in [[3, 4, 5], [6, 7], [8, size, 9]]), store)
    out = tmp_path / "b.tsv"
    assert main([*BASE, "--store", str(store), "--vocab", str(vocab),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"warmstart: error: StoreFormatError: {store}: sequence 2 holds id "
                   f"{size}, outside a vocabulary of {size}\n")
    assert not out.exists()


class TestRunLogCollisions:
    """The run log is appended to after the command, so it counts as one of
    the command's outputs: a clash is one error line before any write."""

    def test_lr_curve_out_is_the_run_log(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["lr-curve", "--total", "100", "--warmup", "10", "--stride", "50",
                     "--out", str(out), "--run-log", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and not out.exists()
        assert err == (f"warmstart: error: ConfigError: --out and --run-log are the same "
                       f"file: {out}\n")

    def test_sample_batches_out_is_the_run_log_from_the_environment(
        self, tmp_path, vocab, big_store, monkeypatch, capsys
    ):
        out = tmp_path / "b.tsv"
        out.write_text("earlier\n", encoding="utf-8")
        monkeypatch.setenv("WARMSTART_RUN_LOG", str(out))
        assert main([*BASE, "--store", str(big_store), "--vocab", str(vocab),
                     "--out", str(out)]) == 1
        assert "--out and --run-log are the same file" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "earlier\n"

    def test_stats_store_is_the_run_log(self, tmp_path, big_store, capsys):
        before = big_store.read_bytes()
        assert main(["stats", "--store", str(big_store), "--run-log", str(big_store)]) == 1
        assert "--run-log and --store are the same file" in capsys.readouterr().err
        assert big_store.read_bytes() == before


class TestOutToStdoutPipe:
    """/dev/stdout on a pipe resolves to no path, so it is written directly."""

    def test_lr_curve(self, tmp_path):
        argv = ["lr-curve", "--total", "100", "--warmup", "10", "--stride", "50"]
        plain = cli(tmp_path, *argv)
        proc = cli(tmp_path, *argv, "--out", "/dev/stdout")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == plain.stdout + b"wrote 3 points to /dev/stdout\n"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sample_batches(self, tmp_path, vocab, big_store, workers):
        argv = [*BASE, "--store", big_store, "--vocab", vocab]
        proc = cli(tmp_path, *argv, "--out", "/dev/stdout", workers=workers)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN["sample-big-stdout:stdout"]

"""sample-batches on worker processes, and the output-path checks around it.

Runs of micro-batches go to forked workers and come back in order, so every
output must match the serial run byte for byte, on a real pipe as well as
in process. Several tests run the CLI in a child process: only there is
stdout a buffered pipe that a forked worker could write twice.
"""

import contextlib
import hashlib
import os
import select
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import warmstart
import warmstart.cli as cli_module
from warmstart.batcher import assemble, padding_stats
from warmstart.cli import _Decimals, main
from warmstart.corpus import (STORE_VERSION, SequenceStoreReader, StoreFormatError,
                              default_index_path, write_store)
from warmstart.masking import MaskKey, MaskMode, MaskSpec, make_example
from warmstart.vocab import load_vocab

from conftest import write_vocab_file
from test_cli import VOCAB_TOKENS, WORDS, _isolate_run_log  # noqa: F401 (autouse fixture)
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


def cli(tmp_path, *argv, workers=None, run=subprocess.run, **kwargs):
    """`python -m warmstart argv` (or `python -c ...`) in a child process
    with piped output,
    without WARMSTART_* or PYTHON* settings such as PYTHONUNBUFFERED.
    `run` is subprocess.run, or subprocess.Popen with its own keywords."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("WARMSTART_", "PYTHON")) or k == "PYTHONHOME"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["WARMSTART_RUN_LOG"] = str(tmp_path / "runs.log")
    if workers is not None:
        env["WARMSTART_WORKERS"] = workers
    if argv[0] != "-c":
        argv = ("-m", "warmstart", *argv)
    kwargs = kwargs or {"capture_output": True, "timeout": 120}
    return run([sys.executable, *map(str, argv)], cwd=tmp_path, env=env, **kwargs)


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
    write_store(ids, store)
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


def killing_worker(name: str) -> str:
    """Code that runs the CLI with `cli.<name>` wrapped so that a call in
    any process but the main one kills that process with SIGKILL, as the
    kernel's out-of-memory killer would."""
    return (
        "import os, signal, sys\n"
        "import warmstart.cli as cli\n"
        f"main_pid, real = os.getpid(), getattr(cli, {name!r})\n"
        "def dying(*args, **kwargs):\n"
        "    if os.getpid() != main_pid:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return real(*args, **kwargs)\n"
        f"setattr(cli, {name!r}, dying)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )


# Code that runs the CLI with os.write replaced, before warmstart.cli is
# imported, so that in any process but the main one a write of more than
# 4 KiB writes half of its bytes and then ends that process: a worker that
# dies halfway through sending a result.
HALF_RESULT = (
    "import os, sys\n"
    "main_pid, real = os.getpid(), os.write\n"
    "def half(fd, data):\n"
    "    if os.getpid() != main_pid and len(data) > 4096:\n"
    "        real(fd, data[:len(data) // 2])\n"
    "        os._exit(9)\n"
    "    return real(fd, data)\n"
    "os.write = half\n"
    "import warmstart.cli as cli\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)

WORKER_DIED = b"warmstart: error: WorkerError: a worker process died (killed, or out of memory?)\n"


def in_own_session(tmp_path, *argv, workers, timeout=30):
    """cli(...) in a session of its own: its exit status and stderr, once
    it has ended within `timeout` seconds. No process of the session may
    outlive the run; any that did is killed, and fails the test."""
    proc = cli(tmp_path, *argv, workers=workers, run=subprocess.Popen, stdout=subprocess.DEVNULL,
               stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    finally:
        survived = True
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            survived = False
        proc.stderr.close()
        proc.wait()
    assert not survived, "a process of the run outlived it"
    return proc.returncode, stderr


def files_in(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in path.iterdir() if p.is_file()}


@pytest.mark.parametrize("extra", [["--out", "b.tsv", "--report", "b.eff"],
                                   ["--format", "binary", "--out", "bin"]])
def test_a_worker_that_dies_is_one_error_line_and_writes_no_files(
    tmp_path, vocab, big_store, extra
):
    before = files_in(tmp_path)
    proc = cli(tmp_path, "-c", killing_worker("corrupt_batch"), *BASE, "--store", big_store,
               "--vocab", vocab, *extra, workers="2")
    assert proc.returncode == 1 and proc.stdout == b""
    assert proc.stderr == WORKER_DIED
    assert files_in(tmp_path) == before


@pytest.mark.parametrize("extra", [["--out", "b.tsv", "--report", "b.eff"],
                                   ["--format", "binary", "--out", "bin"]])
def test_a_worker_that_dies_halfway_through_a_result_is_one_error_line(
    tmp_path, vocab, big_store, extra
):
    before = files_in(tmp_path)
    assert in_own_session(tmp_path, "-c", HALF_RESULT, *BASE, "--store", big_store,
                          "--vocab", vocab, *extra, workers="2") == (1, WORKER_DIED)
    assert files_in(tmp_path) == before


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("sort", [[], ["--sort-by-length"]])
def test_binary_stores_hold_the_rows_of_the_text_output(tmp_path, vocab, big_store, workers, sort):
    """Records 2i and 2i+1 are the input and target of the text output's line i."""
    argv = [*BASE, "--store", big_store, "--vocab", vocab, *sort]
    for extra in (["--out", "b.tsv"], ["--format", "binary", "--out", "bin"]):
        proc = cli(tmp_path, *argv, *extra, workers=workers)
        assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "b.tsv").read_text(encoding="utf-8").splitlines()
    expected = [list(map(int, field.split())) for line in lines for field in line.split("\t")[1:]]
    assert list(SequenceStoreReader(tmp_path / "bin")) == expected
    assert len(lines) == SequenceStoreReader(big_store).count
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("bin")) == [
        "bin", "bin.idx"]


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


# Code that counts the forks of the run's own process, and lists the
# process-pool modules it has loaded: workers are forked by hand, with no pool.
FORKS = (
    "import os, sys\n"
    "forks = []\n"
    "os.register_at_fork(after_in_parent=lambda: forks.append(None))\n"
    "pool = lambda: [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]\n"
)


def test_workers_are_forked_only_for_an_epoch_of_several_runs(tmp_path, vocab, big_store):
    """An epoch whose first micro-batch is followed by a single run renders
    it here; an epoch of several runs at two workers forks two."""
    code = (
        f"{FORKS}"
        "import warmstart.cli as cli\n"
        "print(len(forks), pool())\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print(len(forks), pool())\n"
    )
    short = tmp_path / "short.seqs"
    write_store([[3 + i % 8] * 5 for i in range(20)], short)
    for store, forked in [(short, "0 []"), (big_store, "2 []")]:
        proc = cli(tmp_path, "-c", code, *BASE, "--store", store, "--vocab", vocab,
                   "--out", tmp_path / "b.tsv", workers="2")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.decode().splitlines()
        assert lines[0] == "0 []" and lines[-1] == forked


def test_a_process_with_other_threads_runs_the_epoch_itself(tmp_path, vocab, big_store):
    code = (
        f"{FORKS}"
        "import threading\n"
        "import warmstart.cli as cli\n"
        "done = threading.Event()\n"
        "threading.Thread(target=done.wait).start()\n"
        "try:\n"
        "    assert cli.main(sys.argv[1:]) == 0\n"
        "finally:\n"
        "    done.set()\n"
        "print(len(forks), pool())\n"
    )
    proc = cli(tmp_path, "-c", code, *BASE, "--store", big_store, "--vocab", vocab,
               "--out", tmp_path / "b.tsv", workers="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-1] == "0 []"
    assert hashlib.sha256((tmp_path / "b.tsv").read_bytes()).hexdigest() == (
        GOLDEN["sample-big-text:big.tsv"])


@pytest.mark.parametrize("micro", ["2", "4"])  # sequence 2 in micro-batch 1, or in micro-batch 0
def test_an_id_outside_the_vocabulary_is_one_error_line(tmp_path, vocab, capsys, micro):
    store = tmp_path / "wide.seqs"
    size = len(VOCAB_TOKENS)
    write_store([[3, 4, 5], [6, 7], [8, size, 9]], store)
    out = tmp_path / "b.tsv"
    assert main([*BASE, "--micro-batch", micro, "--store", str(store), "--vocab", str(vocab),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"warmstart: error: StoreFormatError: {store}: sequence 2 holds id "
                   f"{size}, outside a vocabulary of {size}\n")
    assert not out.exists()


def _set_offset(store, record: int, shift: int) -> None:
    """Moves `record`'s offset in the store's side index by `shift` bytes."""
    idx = Path(default_index_path(store))
    data = bytearray(idx.read_bytes())
    at = slice(16 + 8 * record, 24 + 8 * record)
    data[at] = struct.pack("<Q", struct.unpack("<Q", data[at])[0] + shift)
    idx.write_bytes(data)


def _cut_unindexed(store) -> None:
    """Drops the side index, and keeps the first two records of the store,
    the second cut short after its first two bytes of ids."""
    Path(default_index_path(store)).unlink()
    data = store.read_bytes()
    second = 16 + 4 + 4 * struct.unpack_from("<I", data, 16)[0]
    store.write_bytes(b"SEQS" + struct.pack("<IQ", STORE_VERSION, 2) + data[16 : second + 6])


# Store faults that micro-batch 0 (records 0 and 1 of BASE's micro-batches of
# 2) meets, and the reader's message for each.
FAULTS_IN_MICRO_BATCH_0 = {
    "index count": (lambda store: Path(default_index_path(store)).write_bytes(
        b"SEQI" + struct.pack("<IQ", STORE_VERSION, 319)
        + Path(default_index_path(store)).read_bytes()[16:]),
        "{store}.idx: index holds 319 offsets but store has 320 sequences"),
    "stale offset": (lambda store: _set_offset(store, 1, 4),
                     "{store}.idx: stale index, offsets do not chain through the store"),
    "unindexed store cut short": (_cut_unindexed, "{store}: truncated sequence 1"),
}


@pytest.mark.parametrize("fault", sorted(FAULTS_IN_MICRO_BATCH_0))
def test_a_store_fault_in_micro_batch_0_is_the_readers_error_line(
    tmp_path, vocab, big_store, capsys, fault
):
    spoil, message = FAULTS_IN_MICRO_BATCH_0[fault]
    spoil(big_store)
    with pytest.raises(StoreFormatError) as opened:
        SequenceStoreReader(big_store)
    assert str(opened.value) == message.format(store=big_store)
    assert main([*BASE, "--store", str(big_store), "--vocab", str(vocab)]) == 1
    assert capsys.readouterr() == ("", f"warmstart: error: StoreFormatError: {opened.value}\n")


@pytest.mark.parametrize("extra", [[], ["--out", "b.tsv", "--report", "b.eff"],
                                   ["--format", "binary", "--out", "bin"]])
def test_a_stale_index_past_micro_batch_0_ends_the_run_after_its_lines(
    tmp_path, vocab, big_store, extra
):
    argv = [*BASE, "--store", big_store, "--vocab", vocab, *extra]
    first = cli(tmp_path, *BASE, "--store", big_store, "--vocab", vocab).stdout.splitlines(True)
    first = b"".join(first[:2])  # micro-batch 0's lines
    _set_offset(big_store, 200, 4)
    for name in ("b.tsv", "b.eff", "bin", "bin.idx"):
        (tmp_path / name).write_bytes(b"old\n")
    before = files_in(tmp_path)
    proc = cli(tmp_path, *argv, workers="2")
    assert proc.returncode == 1
    assert proc.stdout == (b"" if extra else first)
    assert proc.stderr.decode() == (f"warmstart: error: StoreFormatError: {big_store}.idx: "
                                    "stale index, offsets do not chain through the store\n")
    assert files_in(tmp_path) == before  # no temp file left, every target as it was


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("argv", [
    [*BASE, "--vocab", "{d}/vocab.txt", "--out", "{d}/b.tsv", "--report", "{d}/b.eff"],
    [*BASE, "--vocab", "{d}/vocab.txt", "--sort-by-length", "--format", "binary",
     "--out", "{d}/bin"],
    ["stats"],
], ids=["store order", "sort by length", "stats"])
def test_a_store_that_is_not_a_regular_file_is_one_error_line(
    tmp_path, vocab, big_store, capsys, argv
):
    """As `--store <(cat big.seqs)` gives it: the writer stays attached, so
    a read past what it wrote would wait."""
    r, w = os.pipe()
    try:
        os.write(w, big_store.read_bytes()[:4096])
        store = f"/dev/fd/{r}"
        assert main([*(a.format(d=tmp_path) for a in argv), "--store", store]) == 1
    finally:
        os.close(r)
        os.close(w)
    assert capsys.readouterr() == (
        "", f"warmstart: error: StoreFormatError: {store}: not a regular file\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.seqs", "big.seqs.idx", "vocab.txt"]


@pytest.mark.parametrize("seq_len, min_tail", [(2, 2), (3, 2), (3, 3), (4, 2), (5, 4)])
def test_every_store_prepare_corpus_accepts_is_sampled_to_the_end(
    tmp_path, vocab, capsys, seq_len, min_tail
):
    """Documents of one to nine words, one-word documents among them, so
    that every chunk length up to seq_len ends some document."""
    text = tmp_path / "short.txt"
    docs = [" ".join(WORDS[(i + j) % 8] for j in range(1 + i % 9)) for i in range(40)]
    text.write_text("\n\n".join(docs), encoding="utf-8")
    store = tmp_path / "short.seqs"
    assert main(["prepare-corpus", "--vocab", str(vocab), "--in", str(text), "--out", str(store),
                 "--seq-len", str(seq_len), "--min-tail", str(min_tail),
                 "--sentinel-count", "3"]) == 0
    count = SequenceStoreReader(store).count
    assert min(SequenceStoreReader(store).lengths()) >= min_tail
    capsys.readouterr()
    for order in ([], ["--sort-by-length"]):
        assert main([*BASE, "--store", str(store), "--vocab", str(vocab), *order]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(int(line.split("\t")[0]) for line in lines[:-2]) == list(range(count))
        assert lines[-1].startswith(f"batches={-(-count // 2)} sequences={count} ")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_report_and_efficiency_of_uneven_micro_batches_match_a_row_by_row_reference(
    tmp_path, vocab, workers
):
    """Micro-batches of 7 over 601 sequences: runs of 252 rows, and a last
    micro-batch of 6."""
    store = write_big_store(tmp_path / "big.seqs", count=601)
    argv = [*BASE, "--micro-batch", "7", "--effective-batch", "14", "--store", store,
            "--vocab", vocab, "--report", tmp_path / "b.eff"]
    proc = cli(tmp_path, *argv, workers=workers)
    assert proc.returncode == 0, proc.stderr

    spec = MaskSpec(rate=0.15, mean_span=3.0, mode=MaskMode.SPAN)
    words = load_vocab(vocab, sentinel_count=3)
    reader = SequenceStoreReader(store)
    lines, real, total = [], 0, 0
    for b, lo in enumerate(range(0, reader.count, 7)):
        batch = assemble([make_example(reader.read(i), spec, MaskKey(9, 0, i), words)
                          for i in range(lo, min(lo + 7, reader.count))], 7, words.pad_id)
        stats = padding_stats(batch)
        lines.append(f"batch={b} rows={batch.rows} width_in={batch.width_in} "
                     f"width_tgt={batch.width_tgt} input_eff={stats.input_efficiency} "
                     f"target_eff={stats.target_efficiency} combined={stats.combined}\n")
        real += stats.input_real + stats.target_real
        total += stats.input_total + stats.target_total
    assert len(lines) == 86 and batch.rows == 6
    assert (tmp_path / "b.eff").read_text(encoding="utf-8") == "".join(lines)
    assert proc.stdout.decode().splitlines()[-1] == (
        f"batches=86 sequences=601 epoch=0 mode=span seed=9 efficiency={real / total:.4f}")


@pytest.mark.parametrize("case", ["stdout", "out", "report", "binary"])
def test_an_empty_store_is_an_empty_epoch(tmp_path, vocab, capsys, case, monkeypatch):
    def corrupt_batch(*args):
        raise AssertionError("an empty epoch corrupts no batch")

    monkeypatch.setattr(cli_module, "corrupt_batch", corrupt_batch)
    store = tmp_path / "empty.seqs"
    write_store([], store)
    extra = {"stdout": [], "out": ["--out", tmp_path / "e.tsv"],
             "report": ["--report", tmp_path / "e.eff"],
             "binary": ["--format", "binary", "--out", tmp_path / "bin"]}[case]
    assert main([*BASE, "--store", str(store), "--vocab", str(vocab), *map(str, extra)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0].startswith("plan: ")
    assert out[1] == "batches=0 sequences=0 epoch=0 mode=span seed=9"
    if case == "binary":
        empty = struct.pack("<IQ", STORE_VERSION, 0)
        assert (tmp_path / "bin").read_bytes() == b"SEQS" + empty
        assert (tmp_path / "bin.idx").read_bytes() == b"SEQI" + empty
    elif extra:
        assert extra[1].read_bytes() == b""


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


# A SIGTERM, or a SIGINT to the whole process group as Ctrl-C in a terminal
# sends it, ends a run: every temp file goes, every target keeps its old
# bytes, and the run prints one error line and exits 128 + the signal.
STOPPED = {signum: (128 + signum, b"warmstart: error: Terminated: stopped by %s\n"
                    % signum.name.encode()) for signum in (signal.SIGTERM, signal.SIGINT)}

def slow_calls(name: str) -> str:
    """Code that runs the CLI with each `cli.<name>` call first touching
    calls/<pid>.<ns> and then taking half a second, so a test can signal the
    run in the middle."""
    return (
        "import os, sys, time\n"
        "import warmstart.cli as cli\n"
        f"real = getattr(cli, {name!r})\n"
        "def slow(*args, **kwargs):\n"
        "    open(f'calls/{os.getpid()}.{time.monotonic_ns()}', 'w').close()\n"
        "    time.sleep(0.5)\n"
        "    return real(*args, **kwargs)\n"
        f"setattr(cli, {name!r}, slow)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )


def terminated(tmp_path, argv, started, signum, workers=None, group=False):
    """The child's exit status and stderr, after `signum` is sent once
    started() holds: a SIGTERM to the child alone, or with `group` to the
    session it leads, workers included, as systemd and Slurm stop a job; a
    SIGINT always to the session. stderr goes to a file outside tmp_path's
    own files: a worker that outlived the run would hold a pipe open."""
    (tmp_path / "log").mkdir()
    with open(tmp_path / "log" / "stderr", "wb") as stderr:
        proc = cli(tmp_path, *argv, workers=workers, run=subprocess.Popen,
                   stdout=subprocess.DEVNULL, stderr=stderr, start_new_session=True)
    try:
        for _ in range(6000):
            if started():
                break
            assert proc.poll() is None, (tmp_path / "log" / "stderr").read_bytes()
            time.sleep(0.01)
        if group or signum == signal.SIGINT:
            os.killpg(proc.pid, signum)
        else:
            proc.send_signal(signum)
        return proc.wait(timeout=60), (tmp_path / "log" / "stderr").read_bytes()
    finally:
        proc.kill()
        proc.wait()


def stop_lr_curve(tmp_path, signum):
    (tmp_path / "c.csv").write_bytes(b"old\n")
    before = files_in(tmp_path)
    code, stderr = terminated(
        tmp_path, ["lr-curve", "--total", "1000000000", "--warmup", "10", "--out", "c.csv"],
        lambda: any(p.stat().st_size for p in tmp_path.glob("c.csv.*.tmp")), signum)
    assert (code, stderr) == STOPPED[signum]
    assert files_in(tmp_path) == before


def test_sigterm_leaves_lr_curve_out_as_it_was(tmp_path):
    stop_lr_curve(tmp_path, signal.SIGTERM)


def test_sigint_to_the_group_leaves_lr_curve_out_as_it_was(tmp_path):
    stop_lr_curve(tmp_path, signal.SIGINT)


SAMPLE_BATCHES_STOPS = pytest.mark.parametrize("extra, workers, calls, processes", [
    (["--out", "b.tsv", "--report", "b.eff"], "1", 2, 1),  # after the first run is written
    (["--format", "binary", "--out", "bin"], "2", 2, 2),  # once both workers are busy
])


def calling_pids(calls: Path) -> set:
    """The pids that touched a file in `calls`: the run's own and its workers'."""
    return {int(p.name.split(".")[0]) for p in calls.iterdir()}


def survivors(pids) -> list:
    """The processes of `pids` still running; none may outlive the run, so
    each is ended."""
    alive = []
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
            alive.append(pid)
    return alive


def stop_sample_batches(tmp_path, vocab, big_store, extra, workers, calls, processes, signum,
                        group=False):
    for name in ("b.tsv", "b.eff", "bin", "bin.idx"):
        (tmp_path / name).write_bytes(b"old\n")
    (tmp_path / "calls").mkdir()
    before = files_in(tmp_path)
    code, stderr = terminated(
        tmp_path, ["-c", slow_calls("corrupt_batch"), *BASE, "--store", big_store,
                   "--vocab", vocab, *extra],
        lambda: len(list((tmp_path / "calls").iterdir())) >= calls, signum, workers, group)
    pids = calling_pids(tmp_path / "calls")
    assert (len(pids), survivors(pids)) == (processes, [])
    assert (code, stderr) == STOPPED[signum]
    assert files_in(tmp_path) == before  # no temp file left, every target as it was


@SAMPLE_BATCHES_STOPS
def test_sigterm_leaves_sample_batches_outputs_as_they_were(
    tmp_path, vocab, big_store, extra, workers, calls, processes
):
    stop_sample_batches(tmp_path, vocab, big_store, extra, workers, calls, processes,
                        signal.SIGTERM)


def test_sigterm_to_the_group_leaves_sample_batches_outputs_as_they_were(
    tmp_path, vocab, big_store
):
    stop_sample_batches(tmp_path, vocab, big_store, ["--format", "binary", "--out", "bin"], "2",
                        2, 2, signal.SIGTERM, group=True)


@SAMPLE_BATCHES_STOPS
def test_sigint_to_the_group_leaves_sample_batches_outputs_as_they_were(
    tmp_path, vocab, big_store, extra, workers, calls, processes
):
    stop_sample_batches(tmp_path, vocab, big_store, extra, workers, calls, processes,
                        signal.SIGINT)


def test_a_signal_while_the_workers_are_forked_still_stops_the_run(tmp_path, vocab, big_store):
    """A SIGINT that arrives during the fork, here from an at-fork hook of the
    run's own process, is not lost in the hook: the run stops."""
    script = ("import os, signal, sys\n"
              "import warmstart.cli as cli\n"
              "os.register_at_fork(after_in_parent=lambda: os.kill(os.getpid(), signal.SIGINT))\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    before = files_in(tmp_path)
    proc = cli(tmp_path, "-c", script, *BASE, "--store", big_store, "--vocab", vocab,
               "--out", "b.tsv", workers="2")
    assert (proc.returncode, proc.stderr) == STOPPED[signal.SIGINT]
    assert files_in(tmp_path) == before


def test_micro_batch_0_reaches_a_pipe_before_the_runs_are_rendered(tmp_path, vocab):
    """stdout is flushed after micro-batch 0: its lines do not wait in the
    pipe's buffer for the runs. The whole output is under 8 KiB, so nothing
    else would push them out before the run ends."""
    store = tmp_path / "short.seqs"
    write_store([[3 + i % 8, 4] for i in range(300)], store)  # micro-batch 0, then two runs
    (tmp_path / "calls").mkdir()
    proc = cli(tmp_path, "-c", slow_calls("corrupt_batch"), *BASE, "--micro-batch", "1",
               "--store", store, "--vocab", vocab, workers="1", run=subprocess.Popen,
               stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        assert select.select([proc.stdout], [], [], 60)[0], "no output within 60 s"
        first = os.read(proc.stdout.fileno(), 1 << 16)
        calls = len(list((tmp_path / "calls").iterdir()))
        running = proc.poll() is None
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert first.startswith(b"0\t") and first.endswith(b"\n")
    assert calls <= 1 and running  # the second run has not started

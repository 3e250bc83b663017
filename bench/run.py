"""warmstart benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload epoch_text --seed 1 --seconds 20 --trace 0

Run from a source checkout (the program is imported from ./src). One run:

1. synthesizes the workload's inputs from --seed (bench/synth.py);
2. runs one untimed warm-up job and checks its output with an independent
   oracle (bench/oracle.py); every later job must reproduce its digest;
3. with --trace 0, measures set-up time in fresh processes, then runs
   `python -m warmstart ...` jobs one at a time (a closed loop with a single
   client) for --seconds and reports the end-to-end metrics;
   with --trace 1, alternates untraced jobs with jobs traced in-process
   (bench/layertrace.py) for --seconds and reports the per-layer metrics.

It prints one results record (every metric with unit, sample count and
quartiles, plus the environment), then as its last line the summary
`{"correct", "attempted", "failed", "metrics"}`. Records and spans are kept
under .bench_work/; job inputs and outputs are deleted when the run ends.
The page cache cannot be dropped here, so all figures are warm-cache.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_TIMED_JOBS = 3
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "first_output_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "op_ok_ratio": "ratio",
}
TRACE_NOTES = [
    "per-layer times are self times: span time minus the spans it caused",
    "trace.overhead_s is traced minus untraced median wall; the traced job runs "
    "in this process, so it skips interpreter start-up and imports",
]
RATIOS = {
    "vocab.unk_ratio", "vocab.word_repeat_share", "batcher.padding_efficiency",
    "translate.hit_ratio", "job.cpu_util",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in RATIOS:
        return "ratio"
    if "bytes" in name:
        return "B"
    if name == "transplant.mean_pieces":
        return "pieces/row"
    return "count"


class BenchError(Exception):
    pass


@dataclass
class Job:
    kind: str
    wall_s: float
    first_output_s: float
    peak_rss_mb: float
    cpu_s: float
    digest: str
    stdout: bytes = b""
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> dict:
        return {
            "kind": self.kind, "wall_s": self.wall_s, "first_output_s": self.first_output_s,
            "peak_rss_mb": self.peak_rss_mb, "cpu_s": self.cpu_s, "digest": self.digest,
            "ok": self.ok, "errors": self.errors,
        }


def _file_sha(path: Path) -> bytes:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            while chunk := f.read(1 << 20):
                h.update(chunk)
    except FileNotFoundError:
        return b"missing"
    return h.digest()


def output_digest(stdout_sha: bytes, files: list[Path]) -> str:
    d = hashlib.sha256(stdout_sha)
    for p in files:
        d.update(p.name.encode() + b"\0" + _file_sha(p))
    return d.hexdigest()


def job_env(job_dir: Path) -> dict[str, str]:
    """The caller's environment minus WARMSTART_* and PYTHON* settings (such
    as PYTHONUNBUFFERED, which would change how jobs write their output),
    with an absolute src on PYTHONPATH and the run log in the job directory."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("WARMSTART_") and not (k.startswith("PYTHON") and k != "PYTHONHOME")
    }
    env["PYTHONPATH"] = str(SRC)
    env["WARMSTART_RUN_LOG"] = str(job_dir / "run.log")
    return env


def run_job(w, inputs: dict, job_dir: Path, seed: int, kind: str, keep_stdout: bool) -> Job:
    """One `python -m warmstart` job in a fresh process, timed from spawn."""
    job_dir.mkdir(parents=True)
    w.prepare(inputs, job_dir)
    argv = [sys.executable, "-m", "warmstart", *w.argv(inputs, job_dir, seed)]
    sha = hashlib.sha256()
    chunks: list[bytes] = []
    first = None
    with open(job_dir / "stderr", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=job_dir,
                                env=job_env(job_dir))
        try:
            fd = proc.stdout.fileno()
            while chunk := os.read(fd, 1 << 20):
                if first is None:
                    first = perf_counter() - t0
                sha.update(chunk)
                if keep_stdout:
                    chunks.append(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    job = Job(
        kind=kind, wall_s=wall, first_output_s=wall if first is None else first,
        peak_rss_mb=usage.ru_maxrss / 1024, cpu_s=usage.ru_utime + usage.ru_stime,
        digest=output_digest(sha.digest(), w.outputs(job_dir)), stdout=b"".join(chunks),
    )
    if proc.returncode != 0:
        tail = (job_dir / "stderr").read_text(encoding="utf-8", errors="replace")[-500:]
        job.errors.append(f"exit code {proc.returncode}: {tail.strip()}")
    return job


def run_traced(tracer, w, inputs: dict, job_dir: Path, seed: int, job_id: str) -> Job:
    """The same job through `warmstart.cli.main` in this process, traced."""
    import warmstart.cli as cli

    job_dir.mkdir(parents=True)
    w.prepare(inputs, job_dir)
    argv = w.argv(inputs, job_dir, seed)
    saved = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith("WARMSTART_")}
    os.environ["WARMSTART_RUN_LOG"] = str(job_dir / "run.log")
    tracer.reset(job_id)
    main = tracer.wrap("cli.main", cli.main)
    out_path = job_dir / "stdout"
    try:
        with open(out_path, "w", encoding="utf-8") as f, contextlib.redirect_stdout(f):
            t0 = perf_counter()
            try:
                rc = main(argv)
            except SystemExit as e:
                rc = e.code
            f.flush()
            wall = perf_counter() - t0
    finally:
        os.environ.pop("WARMSTART_RUN_LOG")
        os.environ.update(saved)
    stdout = out_path.read_bytes()
    job = Job(
        kind="traced", wall_s=wall, first_output_s=wall, peak_rss_mb=0.0, cpu_s=0.0,
        digest=output_digest(hashlib.sha256(stdout).digest(), w.outputs(job_dir)),
        stdout=stdout,
    )
    if rc != 0:
        job.errors.append(f"exit code {rc}")
    return job


def measure_setup(w, inputs: dict, cwd: Path) -> float:
    """Seconds a fresh process spends importing warmstart.cli and making
    the workload's set-up calls (interpreter start-up excluded)."""
    code = (
        "import sys, time\nt0 = time.perf_counter()\nimport warmstart.cli as cli\n"
        f"a = sys.argv[1:]\n{w.setup_code}\nprint(repr(time.perf_counter() - t0))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *w.setup_args(inputs)],
        capture_output=True, text=True, cwd=cwd, env=job_env(cwd), timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up calls failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip())


def judge(job: Job, reference: str | None) -> None:
    if job.ok and job.digest != reference:
        job.errors.append("output digest differs from the checked warm-up output")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(unit: str, samples: list[float], base=None) -> dict:
    q1, med, q3 = quartiles(samples)
    entry = {"value": med, "unit": unit, "n": len(samples), "q1": q1, "q3": q3,
             "samples": samples}
    if base is not None:
        entry["base"] = base
    return entry


def end_to_end(w, inputs, run_dir, seed, seconds, jobs, items) -> dict:
    setups = [measure_setup(w, inputs, run_dir) for _ in range(SETUP_REPEATS)]
    timed: list[Job] = []
    reference = jobs[0].digest if jobs[0].ok else None
    start = perf_counter()
    # At least MIN_TIMED_JOBS jobs, unless they would take twice the budget.
    while (elapsed := perf_counter() - start) < seconds or (
        len(timed) < MIN_TIMED_JOBS and elapsed < 2 * seconds
    ):
        job_dir = run_dir / f"job{len(jobs)}"
        job = run_job(w, inputs, job_dir, seed, "timed", keep_stdout=False)
        shutil.rmtree(job_dir)
        judge(job, reference)
        jobs.append(job)
        timed.append(job)
    ok = sum(j.ok for j in jobs)
    u = END_TO_END_UNITS
    return {
        "items_per_s": describe(u["items_per_s"], [items / j.wall_s for j in timed]),
        "first_output_s": describe(u["first_output_s"],
                                   [j.first_output_s for j in timed]),
        "peak_rss_mb": describe(u["peak_rss_mb"], [j.peak_rss_mb for j in timed]),
        "setup_s": describe(u["setup_s"], setups),
        "op_ok_ratio": describe(u["op_ok_ratio"], [ok / len(jobs)], base=len(jobs)),
    }


def per_layer(w, inputs, run_dir, seed, seconds, jobs, trace_path) -> dict:
    sys.path.insert(0, str(SRC))
    from layertrace import Tracer

    tracer = Tracer()
    tracer.install()
    untraced: list[Job] = []
    traced: list[Job] = []
    layer_runs: list[dict] = []
    bases: dict = {}
    reference = jobs[0].digest if jobs[0].ok else None
    try:
        start = perf_counter()
        while not traced or perf_counter() - start < seconds:
            job_dir = run_dir / f"job{len(jobs)}"
            job = run_job(w, inputs, job_dir, seed, "untraced", keep_stdout=False)
            shutil.rmtree(job_dir)
            judge(job, reference)
            jobs.append(job)
            untraced.append(job)

            job_dir = run_dir / f"job{len(jobs)}"
            job = run_traced(tracer, w, inputs, job_dir, seed, f"{w.name}-s{seed}-j{len(jobs)}")
            shutil.rmtree(job_dir)
            judge(job, reference)
            jobs.append(job)
            traced.append(job)
            guard_errors = tracer.check_guards(w.uses, w.idle)
            if guard_errors:
                raise BenchError("\n".join(guard_errors))
            layer_runs.append(tracer.layer_metrics(len(job.stdout)))
            bases = tracer.ratio_bases()
    finally:
        tracer.restore()
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(trace_path)
    values = {k: [d[k] for d in layer_runs] for k in layer_runs[0]}
    values["job.cpu_s"] = [j.cpu_s for j in untraced]
    values["job.cpu_util"] = [j.cpu_s / j.wall_s for j in untraced]
    values["trace.overhead_s"] = [
        statistics.median(j.wall_s for j in traced) - statistics.median(j.wall_s for j in untraced)
    ]
    return {k: describe(layer_unit(k), v, bases.get(k)) for k, v in values.items()}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
        "seed": seed,
    }


def run(w, args, run_dir: Path) -> dict:
    t0 = perf_counter()
    inputs = w.synth(run_dir / "inputs", args.seed)
    synth_s = perf_counter() - t0

    warm_dir = run_dir / "warmup"
    warm = run_job(w, inputs, warm_dir, args.seed, "warmup", keep_stdout=True)
    t0 = perf_counter()
    if warm.ok:
        warm.errors.extend(w.check(inputs, warm_dir, warm.stdout, args.seed))
    oracle_s = perf_counter() - t0
    items = w.items(inputs, warm.stdout) if warm.ok else 0
    shutil.rmtree(warm_dir)
    jobs = [warm]

    if args.trace:
        trace_path = WORK / "traces" / f"{w.name}-seed{args.seed}.jsonl"
        metrics = per_layer(w, inputs, run_dir, args.seed, args.seconds, jobs, trace_path)
    else:
        metrics = end_to_end(w, inputs, run_dir, args.seed, args.seconds, jobs, items)
    public_inputs = {k: v for k, v in inputs.items() if not isinstance(v, str)}
    return {
        "benchmark": "warmstart",
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(args.seed),
        "inputs": dict(public_inputs, synth_s=synth_s, items_per_job=items),
        "oracle_s": oracle_s,
        "load": "closed loop, one client: one job at a time from this process",
        "notes": [
            "warm page cache: inputs were just written and the cache cannot be dropped here",
            "each metric value is the median of its samples; q1/q3 are their quartiles",
        ] + w.notes + (TRACE_NOTES if args.trace else []),
        "digest": warm.digest,
        "metrics": metrics,
        "jobs": [j.summary() for j in jobs],
    }


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "warmstart" / "cli.py").is_file():
        print(f"bench: no warmstart source under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{w.name}-s{args.seed}-", dir=WORK))
    try:
        record = run(w, args, run_dir)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    failed = sum(not j["ok"] for j in record["jobs"])
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(record["jobs"]),
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

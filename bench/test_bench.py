"""Self-tests for the benchmark: `python -m pytest bench -q` from the repo root.

They run real `python -m warmstart` jobs on small inputs, so they need the
program's source under ./src like the benchmark itself.
"""

from __future__ import annotations

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layertrace import Tracer
from workloads import WORKLOADS

SMALL = {
    "epoch_text": {"count": 60},
    "ingest_zipf": {"target_bytes": 30000, "docs": 6, "lexicon_words": 3000,
                    "whole_words": 500, "size": 2000},
    "transplant_dict": {"dim": 8, "lexicon_words": 3000, "whole_words": 500, "size": 2000},
}


def synth_small(name: str, out_dir: Path, seed: int) -> dict:
    return WORKLOADS[name].synth(out_dir, seed, **SMALL[name])


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_byte_identical_for_a_seed(tmp_path, name):
    synth_small(name, tmp_path / "a", seed=5)
    synth_small(name, tmp_path / "b", seed=5)
    synth_small(name, tmp_path / "c", seed=6)
    a, b, c = (tree_bytes(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c


def real_job(tmp_path: Path, name: str) -> tuple[dict, Path, bytes]:
    w = WORKLOADS[name]
    inputs = synth_small(name, tmp_path / "inputs", seed=3)
    job_dir = tmp_path / "job"
    job = run.run_job(w, inputs, job_dir, 3, "warmup", keep_stdout=True)
    assert job.ok, job.errors
    assert w.check(inputs, job_dir, job.stdout, 3) == []
    return inputs, job_dir, job.stdout


def test_epoch_oracle_rejects_one_flipped_id(tmp_path):
    inputs, job_dir, stdout = real_job(tmp_path, "epoch_text")
    lines = stdout.split(b"\n")
    idx, inp, tgt = lines[7].split(b"\t")
    ids = inp.split()
    ids[-2] = b"3" if ids[-2] != b"3" else b"4"
    lines[7] = b"\t".join([idx, b" ".join(ids), tgt])
    assert WORKLOADS["epoch_text"].check(inputs, job_dir, b"\n".join(lines), 3)


def test_ingest_oracle_rejects_one_flipped_id(tmp_path):
    inputs, job_dir, stdout = real_job(tmp_path, "ingest_zipf")
    store = job_dir / "corpus.seqs"
    raw = bytearray(store.read_bytes())
    pos = 16 + 4 * 5  # fifth id of the first sequence
    (tid,) = struct.unpack_from("<I", raw, pos)
    struct.pack_into("<I", raw, pos, 3 if tid != 3 else 4)
    store.write_bytes(bytes(raw))
    assert WORKLOADS["ingest_zipf"].check(inputs, job_dir, stdout, 3)


def test_transplant_oracle_rejects_one_flipped_value(tmp_path):
    inputs, job_dir, stdout = real_job(tmp_path, "transplant_dict")
    out = job_dir / "out.embt"
    raw = bytearray(out.read_bytes())
    dim = 8
    for row in range(3, 2000):  # flip the low bit of some row's first value
        pos = 16 + 4 * dim * row
        raw[pos] ^= 1
        out.write_bytes(bytes(raw))
        if WORKLOADS["transplant_dict"].check(inputs, job_dir, stdout, 3):
            return
        raw[pos] ^= 1
    pytest.fail("no single flipped row was detected")


def test_digest_mismatch_fails_the_job():
    job = run.Job("timed", 1.0, 1.0, 1.0, 1.0, digest="b")
    run.judge(job, "a")
    assert not job.ok


def test_emitted_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = list(Tracer().layer_metrics(0)) + ["job.cpu_s", "job.cpu_util", "trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: run.layer_unit(k) for k in layer_names
    }


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "epoch_text", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_trace_guards_flag_used_and_idle_layers():
    t = Tracer()
    t.calls["vocab.load"] = 1
    t.calls["translate.fetch"] = 2
    errors = t.check_guards(["vocab.load", "masking."], ["translate."])
    assert len(errors) == 2
    assert "masking." in errors[0] and "translate.fetch" in errors[1]

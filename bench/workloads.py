"""The three benchmark workloads: how to synthesize, run and check each job.

Each workload runs one `python -m warmstart` subcommand over inputs made by
`synth`, and checks its output with `oracle`. `uses` and `idle` are the
trace guards: span-name prefixes that must see calls, or must see none.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle
import synth

EPOCH_ARGS = {"rate": 0.15, "mean_span": 3.0, "micro": 16, "effective": 128, "epoch": 0}
SEQ_LEN, MIN_TAIL = 512, 16


@dataclass
class Workload:
    name: str
    synth: Callable[[Path, int], dict]
    argv: Callable[[dict, Path, int], list[str]]
    check: Callable[[dict, Path, bytes, int], list[str]]
    # Files a job writes (besides stdout), hashed into its output digest.
    outputs: Callable[[Path], list[Path]]
    # Items one job completes: sequences emitted, tokens stored or rows built.
    items: Callable[[dict, bytes], int]
    # Set-up calls a fresh process makes, as code over `cli` and argv `a`.
    setup_code: str
    setup_args: Callable[[dict], list[str]]
    uses: list[str]
    idle: list[str]
    prepare: Callable[[dict, Path], None] = lambda inputs, job_dir: None
    notes: list[str] = field(default_factory=list)


def _epoch_argv(inp: dict, job_dir: Path, seed: int) -> list[str]:
    a = EPOCH_ARGS
    return [
        "sample-batches", "--store", inp["store"], "--vocab", inp["vocab"],
        "--seed", str(seed), "--epoch", str(a["epoch"]), "--mode", "span",
        "--rate", str(a["rate"]), "--mean-span", str(a["mean_span"]),
        "--micro-batch", str(a["micro"]), "--effective-batch", str(a["effective"]),
        "--format", "text",
    ]


def _epoch_check(inp: dict, job_dir: Path, stdout: bytes, seed: int) -> list[str]:
    a = EPOCH_ARGS
    return oracle.check_epoch_text(
        stdout, inp["store"], synth.VOCAB_SIZE, synth.SENTINELS, synth.EOS_ID,
        a["rate"], a["mean_span"], a["micro"], a["effective"], seed, a["epoch"],
    )


def _ingest_argv(inp: dict, job_dir: Path, seed: int) -> list[str]:
    return [
        "prepare-corpus", "--vocab", inp["vocab"], "--in", inp["input"],
        "--out", str(job_dir / "corpus.seqs"),
        "--seq-len", str(SEQ_LEN), "--min-tail", str(MIN_TAIL), "--seed", str(seed),
    ]


def _ingest_check(inp: dict, job_dir: Path, stdout: bytes, seed: int) -> list[str]:
    return oracle.check_ingest_zipf(
        stdout, job_dir / "corpus.seqs", inp["vocab"], inp["input"], SEQ_LEN, MIN_TAIL
    )


def _ingest_items(inp: dict, stdout: bytes) -> int:
    # "sequences=N tokens=T ..." -- the oracle has checked T already.
    return int(stdout.split()[1].split(b"=")[1])


def _transplant_argv(inp: dict, job_dir: Path, seed: int) -> list[str]:
    return [
        "transplant", "--src-emb", inp["src_emb"], "--src-vocab", inp["src_vocab"],
        "--tgt-vocab", inp["tgt_vocab"], "--provider", "dict", "--dict-file", inp["dict"],
        "--cache", str(job_dir / "cache.tsv"), "--report", str(job_dir / "report.json"),
        "--out", str(job_dir / "out.embt"), "--seed", str(seed),
    ]


def _transplant_prepare(inp: dict, job_dir: Path) -> None:
    # Every job starts from the same half-filled cache and appends to it.
    shutil.copyfile(inp["cache"], job_dir / "cache.tsv")


def _transplant_check(inp: dict, job_dir: Path, stdout: bytes, seed: int) -> list[str]:
    return oracle.check_transplant_dict(
        stdout, job_dir / "out.embt", job_dir / "report.json",
        (job_dir / "cache.tsv").read_bytes(), Path(inp["cache"]).read_bytes(),
        inp["src_vocab"], inp["tgt_vocab"], inp["src_emb"], inp["dict"],
    )


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="epoch_text",
            synth=synth.synth_epoch_text,
            argv=_epoch_argv,
            check=_epoch_check,
            outputs=lambda job_dir: [],
            items=lambda inp, stdout: inp["sequences"],
            setup_code="cli.load_vocab(a[0]); cli.SequenceStoreReader(a[1])",
            setup_args=lambda inp: [inp["vocab"], inp["store"]],
            uses=["vocab.load", "corpus.", "masking.", "batcher."],
            idle=["vocab.tokenize", "translate.", "transplant."],
        ),
        Workload(
            name="ingest_zipf",
            synth=synth.synth_ingest_zipf,
            argv=_ingest_argv,
            check=_ingest_check,
            outputs=lambda job_dir: [job_dir / "corpus.seqs", job_dir / "corpus.seqs.idx"],
            items=_ingest_items,
            setup_code="cli.load_vocab(a[0])",
            setup_args=lambda inp: [inp["vocab"]],
            uses=["vocab.load", "vocab.tokenize", "corpus."],
            idle=["masking.", "batcher.", "translate.", "transplant."],
            notes=["corpus.write_s self time includes reading each document and "
                   "collapsing its whitespace, done inside the generator write_store drains"],
        ),
        Workload(
            name="transplant_dict",
            synth=synth.synth_transplant_dict,
            argv=_transplant_argv,
            check=_transplant_check,
            outputs=lambda job_dir: [job_dir / n for n in ("out.embt", "report.json", "cache.tsv")],
            items=lambda inp, stdout: inp["target_rows"],
            setup_code=(
                "cli.load_vocab(a[0]); cli.load_vocab(a[1]); cli.read_embeddings(a[2]); "
                "cli.TranslationTable.load(a[3]); cli.DictionaryProvider.from_file(a[4])"
            ),
            setup_args=lambda inp: [
                inp["src_vocab"], inp["tgt_vocab"], inp["src_emb"], inp["cache"], inp["dict"]
            ],
            uses=["vocab.load", "vocab.tokenize", "translate.", "transplant."],
            idle=["corpus.", "masking.", "batcher."],
            prepare=_transplant_prepare,
        ),
    ]
}

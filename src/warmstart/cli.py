"""Command-line entry point tying the pipeline stages together.

Subcommands: transplant, prepare-corpus, sample-batches, lr-curve, memplan,
stats. Each subcommand's options are declared once, in a table of `Option`
rows. Every value can come from a `key = value` config file (--config) with
command-line flags taking precedence; the seed falls back to the
WARMSTART_SEED environment variable, then 0. Errors exit 1 with a single
machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import ExitStack
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import __version__
from .batcher import assemble, padding_stats, plan_accumulation
from .config import (
    ConfigError,
    Option,
    append_run_log,
    parse_bool,
    parse_config_file,
    resolve_options,
    resolve_seed,
)
from .corpus import (SequenceStoreReader, chunk_corpus, default_index_path, replacing,
                     store_writer, write_store)
from .errors import WarmstartError
from .masking import MaskKey, MaskMode, MaskSpec, make_example
from .memplan import (
    HardwareSpec,
    MemoryReport,
    ModelSpec,
    PrecisionMode,
    estimate,
    interconnect_compare,
    recommend,
)
from .schedule import LrSchedule, iter_curve
from .transplant import read_embeddings, transplant, write_embeddings
from .translate import (
    DictionaryProvider,
    IdentityProvider,
    RemoteTranslationProvider,
    TranslationTable,
    translate_all,
)
from .vocab import DEFAULT_BOUNDARY_MARKER, Vocabulary, load_vocab, tokenize_greedy


def _require(value, flag: str):
    if value is None:
        raise ConfigError(f"missing required value: {flag}")
    return value


def _check_paths(outputs, inputs) -> None:
    """Fail in one line when two outputs, or an output and an input, are one
    file. Each entry is (flag, path or None). An existing target that is not
    a regular file, such as a FIFO, is exempt: it is written directly."""
    written: dict[str, str] = {}
    for n, (flag, path) in enumerate([*outputs, *inputs]):
        if path is None:
            continue
        real = os.path.realpath(path)
        if os.path.exists(real) and not os.path.isfile(real):
            continue
        if real in written:
            raise ConfigError(f"{written[real]} and {flag} are the same file: {path}")
        if n < len(outputs):  # inputs may share a file with each other
            written[real] = flag


def _store_files(flag: str, *stores) -> list:
    """Each store and its side index, as _check_paths entries."""
    return [(flag, p) for s in stores if s is not None for p in (s, default_index_path(s))]


def _parse_rate_limit(raw: str) -> float:
    """Accept `N` or `N/s` request-per-second forms; the provider checks
    the value."""
    text = raw.strip()
    if text.endswith("/s"):
        text = text[: -len("/s")]
    try:
        return float(text)
    except ValueError as e:
        raise ConfigError(f"cannot parse rate limit {raw!r}") from e


def _parse_gib(raw: str) -> int:
    """Gibibytes (possibly fractional) to an exact byte count."""
    try:
        gib = Fraction(raw.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"cannot parse memory size {raw!r}") from e
    if gib <= 0:
        raise ConfigError("memory size must be positive")
    return round(gib * 2**30)


# One row per option: flag, default, converter, choices, required, help.
# The config key is the argparse dest, so the same row drives the parser,
# config-file resolution and the run-log hash.
VOCAB_OPTIONS = (
    Option("--pad-id", 0, int),
    Option("--eos-id", 1, int),
    Option("--unk-id", 2, int),
    Option("--sentinel-count", 100, int),
    Option("--boundary-marker", DEFAULT_BOUNDARY_MARKER),
)

TRANSPLANT_OPTIONS = VOCAB_OPTIONS + (
    Option("--src-emb", required=True),
    Option("--src-vocab", required=True),
    Option("--tgt-vocab", required=True),
    Option("--out", required=True),
    Option("--report", help="write a JSON tally here"),
    Option("--cache", help="persistent translation cache file"),
    Option("--provider", "identity", choices=("dict", "remote", "identity")),
    Option("--dict-file"),
    Option("--remote-url"),
    Option("--source-lang"),
    Option("--target-lang", "en"),
    Option("--retry-failed", False, parse_bool),
    Option("--rate-limit", help="requests per second, N or N/s"),
    Option("--timeout-ms", 10000, int),
)

PREPARE_CORPUS_OPTIONS = VOCAB_OPTIONS + (
    Option("--vocab", required=True),
    Option("--in", required=True, help="text file or directory of *.txt", dest="input"),
    Option("--out", required=True),
    Option("--seq-len", 512, int),
    Option("--min-tail", 16, int),
)

SAMPLE_BATCHES_OPTIONS = VOCAB_OPTIONS + (
    Option("--store", required=True),
    Option("--vocab", required=True),
    Option("--epoch", 0, int),
    Option("--mode", "span", choices=("span", "iid")),
    Option("--rate", 0.15, float),
    Option("--mean-span", 3.0, float),
    Option("--micro-batch", 16, int),
    Option("--effective-batch", 128, int),
    Option("--sort-by-length", False, parse_bool),
    Option("--format", "text", choices=("text", "binary")),
    Option("--out", help="text path, or base path for binary stores"),
    Option("--report", help="per-batch efficiency lines"),
)

LR_CURVE_OPTIONS = (
    Option("--peak", 4e-3, float),
    Option("--warmup", 5000, int),
    Option("--total", convert=int),
    Option("--shape", "linear", choices=("linear", "rsqrt")),
    Option("--stride", 1, int),
    Option("--store", help="derive --total from this store"),
    Option("--epochs", 10, int),
    Option("--effective-batch", 128, int),
    Option("--out"),
)

MEMPLAN_OPTIONS = (
    Option("--params", convert=int, required=True),
    Option("--precision", "fp32", choices=("fp32", "fp16", "bf16")),
    Option("--offload", False, parse_bool),
    Option("--gpus", 1, int),
    Option("--gpu-mem", help="per-GPU memory, GiB"),
    Option("--ram", help="system memory, GiB"),
    Option("--nvlink", False, parse_bool),
)

STATS_OPTIONS = (Option("--store", required=True),)


def _build_provider(o: dict):
    name = o["provider"]
    if name == "dict":
        return DictionaryProvider.from_file(_require(o["dict_file"], "--dict-file"))
    if name == "remote":
        rate_raw = o["rate_limit"]
        return RemoteTranslationProvider(
            url=_require(o["remote_url"], "--remote-url"),
            source_lang=o["source_lang"],
            target_lang=o["target_lang"],
            rate_limit_per_s=None if rate_raw is None else _parse_rate_limit(rate_raw),
            timeout_ms=o["timeout_ms"],
        )
    return IdentityProvider()


def _load_vocab(path, o: dict) -> Vocabulary:
    return load_vocab(path, **{opt.key: o[opt.key] for opt in VOCAB_OPTIONS})


def cmd_transplant(o: dict, seed: int) -> int:
    cache_path = o["cache"]
    _check_paths([("--out", o["out"]), ("--report", o["report"]), ("--cache", cache_path)],
                 [("--src-emb", o["src_emb"]), ("--src-vocab", o["src_vocab"]),
                  ("--tgt-vocab", o["tgt_vocab"]), ("--dict-file", o["dict_file"])])
    src = _load_vocab(o["src_vocab"], o)
    tgt = _load_vocab(o["tgt_vocab"], o)
    src_emb = read_embeddings(o["src_emb"])
    provider = _build_provider(o)

    if cache_path is not None and Path(cache_path).exists():
        table = TranslationTable.load(cache_path, persist=True)
    else:
        table = TranslationTable(persist_path=cache_path)

    specials = tgt.special_ids()
    pending = [tok for i, tok in enumerate(tgt.tokens) if i not in specials]
    translate_all(
        table,
        provider,
        pending,
        boundary_marker=tgt.boundary_marker,
        retry_failed=o["retry_failed"],
    )

    out_emb, report = transplant(src_emb, src, tgt, table)
    write_embeddings(out_emb, o["out"])

    if o["report"] is not None:
        payload = {
            "report": report.as_dict(),
            "seed": seed,
            "provider": provider.name,
            "notes": [
                "special tokens copied by role (pad, eos, unk, sentinel k)",
                "unk-only rows inherit the unknown-token embedding",
            ],
        }
        with replacing(o["report"], "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")

    r = report.as_dict()
    print(
        f"transplanted {r['total_tokens']} tokens: "
        f"{r['translated_count']} translated, {r['failed_count']} failed, "
        f"{r['bypassed_count']} bypassed, {r['specials_copied']} specials copied"
    )
    return 0


def _read_documents(input_path, vocab: Vocabulary):
    """Directory: each *.txt file (name-sorted) is one document. Single
    file: blank-line-separated blocks are documents."""
    p = Path(input_path)
    if p.is_dir():
        files = sorted(p.glob("*.txt"))
        if not files:
            raise ConfigError(f"{input_path}: no *.txt files found")
        texts = (path.read_text(encoding="utf-8") for path in files)  # one file at a time
    else:
        texts = p.read_text(encoding="utf-8").split("\n\n")
    for text in texts:
        ids = tokenize_greedy(vocab, " ".join(text.split()))
        if ids:
            yield ids


def cmd_prepare_corpus(o: dict, seed: int) -> int:
    seq_len, min_tail = o["seq_len"], o["min_tail"]
    _check_paths(_store_files("--out", o["out"]), [("--vocab", o["vocab"]), ("--in", o["input"])])
    vocab = _load_vocab(o["vocab"], o)
    seqs = chunk_corpus(_read_documents(o["input"], vocab), seq_len, min_tail)
    total = 0

    def counted():
        nonlocal total
        for seq in seqs:
            total += len(seq.ids)
            yield seq

    count = write_store(counted(), o["out"])
    print(f"sequences={count} tokens={total} seq_len={seq_len} min_tail={min_tail}")
    return 0


def cmd_sample_batches(o: dict, seed: int) -> int:
    epoch, micro, out_path = o["epoch"], o["micro_batch"], o["out"]
    text = o["format"] == "text"
    if not text and out_path is None:
        raise ConfigError("--out is required with --format binary")
    stores = [] if text else [f"{out_path}.{part}.seqs" for part in ("inputs", "targets")]
    outputs = [("--out", out_path)] if text else _store_files("--out", *stores)
    _check_paths(outputs + [("--report", o["report"])],
                 _store_files("--store", o["store"]) + [("--vocab", o["vocab"])])

    vocab = _load_vocab(o["vocab"], o)
    spec = MaskSpec(rate=o["rate"], mean_span=o["mean_span"], mode=MaskMode(o["mode"]))
    plan = plan_accumulation(o["effective_batch"], micro)
    reader = SequenceStoreReader(o["store"])

    order = range(reader.count)
    if o["sort_by_length"]:
        order = sorted(order, key=reader.lengths().__getitem__)  # stable: ties keep store order

    # One micro-batch at a time: read, mask, assemble, report, emit. Files
    # replace their targets only once the whole epoch has succeeded.
    starts = range(0, len(order), micro)
    real_cells = total_cells = 0
    with ExitStack() as files:
        if text:
            out = sys.stdout if out_path is None else files.enter_context(
                replacing(out_path, "w", encoding="utf-8"))
        else:
            append_in, append_tgt = (files.enter_context(store_writer(s)) for s in stores)
        if o["report"] is not None:
            report = files.enter_context(replacing(o["report"], "w", encoding="utf-8"))
        for b, s in enumerate(starts):
            indices = order[s : s + micro]
            examples = [make_example(reader.read(i), spec, MaskKey(seed, epoch, i), vocab)
                        for i in indices]
            batch = assemble(examples, micro, vocab.pad_id)
            stats = padding_stats(batch)
            real_cells += sum(batch.input_lengths) + sum(batch.target_lengths)
            total_cells += batch.rows * (batch.width_in + batch.width_tgt)
            if o["report"] is not None:
                report.write(f"batch={b} rows={batch.rows} width_in={batch.width_in} "
                             f"width_tgt={batch.width_tgt} input_eff={stats.input_efficiency} "
                             f"target_eff={stats.target_efficiency} combined={stats.combined}\n")
            for i, ex in zip(indices, examples):
                if text:
                    out.write(f"{i}\t{' '.join(map(str, ex.input_ids))}\t"
                              f"{' '.join(map(str, ex.target_ids))}\n")
                else:
                    append_in(ex.input_ids)
                    append_tgt(ex.target_ids)

    overall = Fraction(real_cells, total_cells) if total_cells else None
    print(
        f"plan: micro={plan.micro_batch_size} steps={plan.accumulation_steps} "
        f"effective={plan.effective_batch}"
    )
    print(
        f"batches={len(starts)} sequences={len(order)} epoch={epoch} "
        f"mode={spec.mode.value} seed={seed}"
        + ("" if overall is None else f" efficiency={float(overall):.4f}")
    )
    return 0


def cmd_lr_curve(o: dict, seed: int) -> int:
    total, out_path = o["total"], o["out"]
    _check_paths([("--out", out_path)], _store_files("--store", o["store"]))
    if total is None:
        if o["store"] is None:
            raise ConfigError("need --total, or --store to derive it from")
        epochs, effective = o["epochs"], o["effective_batch"]
        count = SequenceStoreReader(o["store"]).count
        total = math.ceil(epochs * count / effective)
        print(f"derived total={total} from {count} sequences x {epochs} epochs / {effective}")

    sched = LrSchedule(
        total_steps=total, peak=o["peak"], warmup_steps=o["warmup"], shape=o["shape"]
    )
    rows = [f"step,lr\n"]
    rows.extend(f"{step},{rate:.17g}\n" for step, rate in iter_curve(sched, o["stride"]))
    if out_path is None:
        sys.stdout.writelines(rows)
    else:
        with replacing(out_path, "w", encoding="utf-8") as f:
            f.writelines(rows)
        print(f"wrote {len(rows) - 1} points to {out_path}")
    return 0


def _print_memory_report(title: str, rep: MemoryReport) -> None:
    print(f"{title}:")
    print(f"  weights      {rep.weights_bytes:,} B")
    print(f"  gradients    {rep.gradients_bytes:,} B")
    print(f"  optimizer    {rep.optimizer_bytes:,} B ({rep.optimizer_location.value})")
    print(f"  gpu total    {rep.gpu_total_bytes:,} B")
    if rep.cpu_total_bytes:
        print(f"  cpu total    {rep.cpu_total_bytes:,} B")
    if rep.fits is not None:
        print(f"  per gpu      {rep.per_gpu_bytes:,} B")
        print(f"  fits         {'yes' if rep.fits else 'no'}")
        print(f"  headroom     {float(rep.headroom_fraction):.4f}")


def cmd_memplan(o: dict, seed: int) -> int:
    params, offload, gpu_mem, ram = o["params"], o["offload"], o["gpu_mem"], o["ram"]
    precision = PrecisionMode.parse(o["precision"])
    model = ModelSpec(param_count=params)
    hardware = None
    if gpu_mem is not None or ram is not None or o["gpus"] != 1 or o["nvlink"]:
        if gpu_mem is None or ram is None:
            raise ConfigError("--gpus, --nvlink, --gpu-mem and --ram need both --gpu-mem and --ram")
        hardware = HardwareSpec(
            gpu_count=o["gpus"],
            gpu_memory_bytes=_parse_gib(gpu_mem),
            system_ram_bytes=_parse_gib(ram),
            nvlink_pairs=o["nvlink"],
        )

    rep = estimate(model, precision, offload, hardware)
    _print_memory_report(f"memory for {params:,} parameters ({precision.flag})", rep)
    for note in rep.notes:
        print(f"  note: {note}")

    kv = {
        "params": params,
        "precision": precision.flag,
        "offload": str(offload).lower(),
        "weights_bytes": rep.weights_bytes,
        "gradients_bytes": rep.gradients_bytes,
        "optimizer_bytes": rep.optimizer_bytes,
        "optimizer_location": rep.optimizer_location.value,
        "gpu_total_bytes": rep.gpu_total_bytes,
        "cpu_total_bytes": rep.cpu_total_bytes,
        "per_gpu_bytes": rep.per_gpu_bytes,
    }
    if rep.fits is not None:
        kv["fits"] = str(rep.fits).lower()
        kv["headroom"] = str(rep.headroom_fraction)

    if hardware is not None:
        inter = interconnect_compare(hardware)
        print("interconnect:")
        if not inter.applicable:
            print("  not applicable (single GPU)")
        else:
            print(f"  gpu-to-gpu path: {inter.gpu_to_gpu_path}")
            for note in inter.notes:
                print(f"  {note}")
        kv["nvlink_min_gb_s"] = inter.nvlink_min_gb_s
        kv["nvlink_max_gb_s"] = inter.nvlink_max_gb_s
        kv["pcie4_gb_s"] = inter.pcie4_gb_s

        rec = recommend(model, hardware)
        print("recommendation:")
        if not rec.actions:
            print("  fits as-is; no action required")
        for i, action in enumerate(rec.actions, start=1):
            print(f"  {i}. {action}")
        for note in rec.notes:
            print(f"  note: {note}")
        kv["recommend_fits"] = str(rec.fits).lower()
        kv["recommend_actions"] = "; ".join(rec.actions)

    print("---")
    for key, value in kv.items():
        print(f"{key}={value}")
    return 0


def cmd_stats(o: dict, seed: int) -> int:
    reader = SequenceStoreReader(o["store"])
    lengths = reader.lengths()
    print(f"sequences={reader.count}")
    print(f"tokens={sum(lengths)}")
    if lengths:
        mean = sum(lengths) / len(lengths)
        print(f"length_min={min(lengths)} length_max={max(lengths)} length_mean={mean:.2f}")
        hi = max(lengths)
        width = max(1, math.ceil(hi / 8))
        buckets: dict[int, int] = {}
        for n in lengths:
            buckets[(n - 1) // width] = buckets.get((n - 1) // width, 0) + 1
        for b in sorted(buckets):
            lo_edge = b * width + 1
            hi_edge = (b + 1) * width
            print(f"len[{lo_edge},{hi_edge}]={buckets[b]}")
    return 0


SUBCOMMANDS = (
    ("transplant", cmd_transplant, TRANSPLANT_OPTIONS, "build a warm-start embedding matrix"),
    ("prepare-corpus", cmd_prepare_corpus, PREPARE_CORPUS_OPTIONS,
     "chunk text into a sequence store"),
    ("sample-batches", cmd_sample_batches, SAMPLE_BATCHES_OPTIONS,
     "draw masked batches for an epoch"),
    ("lr-curve", cmd_lr_curve, LR_CURVE_OPTIONS, "emit the learning-rate schedule as CSV"),
    ("memplan", cmd_memplan, MEMPLAN_OPTIONS, "training memory estimate and fit advice"),
    ("stats", cmd_stats, STATS_OPTIONS, "sequence store statistics"),
)

# Keys a config file may hold: any subcommand's, so one file can drive the
# whole pipeline, plus the seed.
CONFIG_KEYS = frozenset(["seed"]).union(
    opt.key for _, _, options, _ in SUBCOMMANDS for opt in options
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warmstart",
        description="warm-start preparation toolkit: embedding transplant, "
        "corpus chunking, span-corruption batching, schedules and memory plans",
    )
    parser.add_argument("--version", action="version", version=f"warmstart {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, func, options, help_text in SUBCOMMANDS:
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--run-log", default=None, help="provenance log path")
        # Every default is None so resolve_options can tell a given flag
        # from an absent one; the row's own default applies after config.
        for opt in options:
            if opt.convert is parse_bool:
                p.add_argument(opt.flag, dest=opt.key, action="store_true", default=None,
                               help=opt.help)
            else:
                p.add_argument(opt.flag, dest=opt.key, type=opt.convert, choices=opt.choices,
                               default=None, help=opt.help)
        p.set_defaults(func=func, options=options)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = {} if args.config is None else parse_config_file(args.config, CONFIG_KEYS)
        seed = resolve_seed(args.seed, cfg)
        values = resolve_options(args.options, args, cfg)
        code = args.func(values, seed)
        append_run_log(args.subcommand, values, seed, path=args.run_log)
        return code
    except (WarmstartError, OSError) as e:
        print(f"warmstart: error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point tying the pipeline stages together.

Subcommands: transplant, prepare-corpus, sample-batches, lr-curve, memplan,
stats. Each subcommand's options are declared once, in a table of `Option`
rows. Every value resolves the same way: command-line flag, then a
`key = value` config file (--config), then the row's environment variable
(--seed and --run-log have one), then the row's default. Errors exit 1 with
a single machine-parsable line on stderr; bad flags are usage errors (exit 2).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from array import array
from collections import Counter, deque
from contextlib import ExitStack, closing
from fractions import Fraction
from itertools import chain, islice, pairwise
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
# assemble and make_example are not called here; bench/layertrace.py patches
# them on this module by name.
from .batcher import assemble, padding_stats, plan_accumulation  # noqa: F401
from .config import (
    ConfigError,
    Option,
    append_run_log,
    parse_bool,
    parse_config_file,
    resolve_options,
    resolve_workers,
)
from .corpus import (DEFAULT_MIN_TAIL, DEFAULT_SEQ_LEN, SequenceStoreReader, check_chunking,
                     chunk_corpus, default_index_path, is_special_file, replacing, store_writer,
                     write_store)
from .errors import WarmstartError, utf8_input
from .masking import MaskMode, MaskSpec, corrupt_batch, make_example  # noqa: F401
from .memplan import (
    HardwareSpec,
    MemoryReport,
    ModelSpec,
    PrecisionMode,
    estimate,
    interconnect_compare,
    recommend,
)
from .schedule import DEFAULT_PEAK, DEFAULT_WARMUP_STEPS, LrSchedule, iter_curve
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


def _check_paths(o: dict, outputs, inputs) -> None:
    """Fail in one line when two outputs, or an output and an input, are one
    file. Each entry is (flag, path or None); the run log counts as an
    output. An existing target that is not a regular file, such as a FIFO or
    a pipe, is exempt: it is written directly."""
    outputs = [*outputs, ("--run-log", o["run_log"])]
    written: dict[str, str] = {}
    for n, (flag, path) in enumerate([*outputs, *inputs]):
        if path is None or is_special_file(path):
            continue
        real = os.path.realpath(path)
        if real in written:
            raise ConfigError(f"{written[real]} and {flag} are the same file: {path}")
        if n < len(outputs):  # inputs may share a file with each other
            written[real] = flag


def _store_files(flag: str, *stores) -> list:
    """Each store and its side index, as _check_paths entries."""
    return [(flag, p) for s in stores if s is not None for p in (s, default_index_path(s))]


def per_second(raw: str) -> float:
    """Requests per second, `N` or `N/s`; the provider checks the value."""
    return float(raw.strip().removesuffix("/s"))


def gibibytes(raw: str) -> int:
    """Gibibytes (possibly fractional) to an exact byte count; positive."""
    try:
        gib = Fraction(raw)
    except ZeroDivisionError as e:
        raise ValueError(str(e)) from e
    if gib <= 0:
        raise ValueError("memory size must be positive")
    return round(gib * 2**30)


# One row per option: flag, default, converter, choices, required, help.
# The config key is the argparse dest, so the same row drives the parser,
# config-file resolution and the run-log hash. Every subcommand's table
# starts with RUN_OPTIONS: the run log records the seed in a field of its
# own, and the log's path is set per run, never in a config file.
RUN_OPTIONS = (
    Option("--seed", 0, int, env="WARMSTART_SEED"),
    Option("--run-log", "warmstart-runs.log", help="provenance log path", env="WARMSTART_RUN_LOG"),
)

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
    Option("--rate-limit", convert=per_second, help="requests per second, N or N/s"),
    Option("--timeout-ms", 10000, int),
)

PREPARE_CORPUS_OPTIONS = VOCAB_OPTIONS + (
    Option("--vocab", required=True),
    Option("--in", required=True, help="text file or directory of *.txt", dest="input"),
    Option("--out", required=True),
    Option("--seq-len", DEFAULT_SEQ_LEN, int),
    Option("--min-tail", DEFAULT_MIN_TAIL, int),
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
    Option("--peak", DEFAULT_PEAK, float),
    Option("--warmup", DEFAULT_WARMUP_STEPS, int),
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
    Option("--gpu-mem", convert=gibibytes, help="per-GPU memory, GiB"),
    Option("--ram", convert=gibibytes, help="system memory, GiB"),
    Option("--nvlink", False, parse_bool),
)

STATS_OPTIONS = (Option("--store", required=True),)


def _build_provider(o: dict):
    name = o["provider"]
    if name == "dict":
        return DictionaryProvider.from_file(_require(o["dict_file"], "--dict-file"))
    if name == "remote":
        return RemoteTranslationProvider(
            url=_require(o["remote_url"], "--remote-url"),
            source_lang=o["source_lang"],
            target_lang=o["target_lang"],
            rate_limit_per_s=o["rate_limit"],
            timeout_ms=o["timeout_ms"],
        )
    return IdentityProvider()


def _load_vocab(path, o: dict) -> Vocabulary:
    return load_vocab(path, **{opt.key: o[opt.key] for opt in VOCAB_OPTIONS})


def cmd_transplant(o: dict) -> int:
    cache_path = o["cache"]
    _check_paths(o, [("--out", o["out"]), ("--report", o["report"]), ("--cache", cache_path)],
                 [("--src-emb", o["src_emb"]), ("--src-vocab", o["src_vocab"]),
                  ("--tgt-vocab", o["tgt_vocab"]), ("--dict-file", o["dict_file"])])
    provider = _build_provider(o)  # a bad provider setting fails before any input is read
    # A bad cache fails before the vocabularies and the matrix are read.
    if cache_path is not None and Path(cache_path).exists():
        table = TranslationTable.load(cache_path, persist=True)
    else:
        table = TranslationTable(persist_path=cache_path)
    src = _load_vocab(o["src_vocab"], o)
    tgt = _load_vocab(o["tgt_vocab"], o)
    src_emb = read_embeddings(o["src_emb"])

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
            "seed": o["seed"],
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


GROUP_BYTES = 256 * 1024  # about this much text is tokenized at a time


def _read_text(path) -> str:
    with utf8_input(path):
        return Path(path).read_text(encoding="utf-8")


def _read_documents(input_path, vocab: Vocabulary, workers: int):
    """The ids of each non-empty document, in order, as compact arrays.
    Directory: each *.txt file (name-sorted) is one document. Single file:
    blank-line-separated blocks are documents.

    Documents are tokenized in groups of about GROUP_BYTES of text, one
    document at least, through _ordered_map: the first group here, which
    fills the vocabulary's word memo that forked workers then inherit, and
    the rest on `workers` processes. A file is read where its group is
    tokenized."""
    p = Path(input_path)
    if p.is_dir():
        docs = sorted(p.glob("*.txt"))
        if not docs:
            raise ConfigError(f"{input_path}: no *.txt files found")
        sizes, read = [path.stat().st_size for path in docs], _read_text
    else:
        docs = _read_text(p).split("\n\n")
        sizes, read = map(len, docs), str  # a block is its own text
    groups, start, size = [], 0, 0
    for end, n in enumerate(sizes, start=1):
        size += n
        if size >= GROUP_BYTES or end == len(docs):
            groups.append(docs[start:end])
            start, size = end, 0

    def tokenize_group(group) -> list:
        ids = (tokenize_greedy(vocab, " ".join(read(doc).split())) for doc in group)
        return [array("I", doc_ids) for doc_ids in ids if doc_ids]

    for done in _ordered_map(tokenize_group, groups, workers):
        yield from done


def cmd_prepare_corpus(o: dict) -> int:
    seq_len, min_tail = o["seq_len"], o["min_tail"]
    check_chunking(seq_len, min_tail)  # before any input is read
    _check_paths(o, _store_files("--out", o["out"]),
                 [("--vocab", o["vocab"]), ("--in", o["input"])])
    workers = resolve_workers()
    vocab = _load_vocab(o["vocab"], o)
    total = 0

    def counted(seqs):
        nonlocal total
        for seq in seqs:
            total += len(seq.ids)
            yield seq

    with closing(_read_documents(o["input"], vocab, workers)) as docs:
        count = write_store(counted(chunk_corpus(docs, seq_len, min_tail)), o["out"])
    print(f"sequences={count} tokens={total} seq_len={seq_len} min_tail={min_tail}")
    return 0


RUN_SEQUENCES = 256  # about this many sequences go to a worker at a time


class _Decimals:
    """Ids as decimal text, encoded a whole micro-batch at a time.

    Row i of the table holds the digits of i and a space, zero-padded to
    one width, and the mask row marks the bytes in use. Both are built once,
    arithmetically, and viewed as one opaque item per row, so encoding is
    a gather and a masked select over flat arrays.
    """

    def __init__(self, size: int):
        ids = np.arange(size)
        width = len(str(size - 1)) + 1
        table = np.zeros((size, width), dtype=np.uint8)
        self._widths = np.empty(size, dtype=np.int64)
        for n in range(1, width):  # the ids of n digits are one range
            lo, hi = 10 ** (n - 1) if n > 1 else 0, min(10**n, size)
            for k in range(n):  # the k-th digit from the right
                table[lo:hi, n - 1 - k] = ord("0") + ids[lo:hi] // 10**k % 10
            table[lo:hi, n] = ord(" ")
            self._widths[lo:hi] = n + 1
        used = np.arange(width) < self._widths[:, None]
        self._table = table.view(f"V{width}").ravel()
        self._used = used.view(f"V{width}").ravel()

    def rows(self, ids, lengths, end: str) -> tuple[str, list[int]]:
        """Each row's ids separated by spaces and closed by `end`, as one
        string, and the offset in it where each row ends. No row is empty."""
        text = self._table[ids].view(np.uint8)[self._used[ids].view(bool)]
        ends = np.cumsum(np.add.reduceat(self._widths[ids], np.cumsum(lengths) - lengths))
        text[ends - 1] = ord(end)
        return text.tobytes().decode("ascii"), ends.tolist()

    def lines(self, indices, batch) -> str:
        """`index TAB input ids TAB target ids` per row, each byte as
        ' '.join(map(str, ids)) would give it."""
        inputs, in_ends = self.rows(batch.inputs, batch.input_lengths, "\t")
        targets, tgt_ends = self.rows(batch.targets, batch.target_lengths, "\n")
        lines, i0, t0 = [], 0, 0
        for index, i1, t1 in zip(indices, in_ends, tgt_ends):
            lines.append(f"{index}\t{inputs[i0:i1]}{targets[t0:t1]}")
            i0, t0 = i1, t1
        return "".join(lines)


_worker_fn = None


def _set_worker_fn(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_worker_fn(item):
    return _worker_fn(item)


def _ordered_map(fn, items: list, workers: int):
    """fn(item) for each item, yielded in order.

    The first item runs in this process before any worker starts, so its
    result can be written at once. The rest run on `workers` forked
    processes, no more than there are items left, with at most two items
    per worker in flight. With one worker, on a platform without fork, or
    in a process that runs other threads, they run here. Workers inherit
    `fn` through fork, so only items and results are pickled. multiprocessing
    flushes stdout and stderr before it forks, and a worker exits without
    flushing its copies of other open files, so no buffered output is
    written twice.
    """
    if not items:
        return
    yield fn(items[0])
    rest = items[1:]
    workers = min(workers, len(rest))
    if workers > 1:
        import multiprocessing
        import threading

        # A forked child holds only the thread that forked it, so fork only
        # from a process that has no other.
        if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
            workers = 1
    if workers <= 1:
        yield from map(fn, rest)
        return
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_set_worker_fn, initargs=(fn,))
    try:
        todo = iter(rest)
        pending = deque(pool.submit(_call_worker_fn, item) for item in islice(todo, 2 * workers))
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(_call_worker_fn, item) for item in islice(todo, 1))
            yield result
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_sample_batches(o: dict) -> int:
    seed, epoch, micro = o["seed"], o["epoch"], o["micro_batch"]
    out_path, report_path = o["out"], o["report"]
    text = o["format"] == "text"
    if not text and out_path is None:
        raise ConfigError("--out is required with --format binary")
    stores = [] if text else [f"{out_path}.{part}.seqs" for part in ("inputs", "targets")]
    outputs = [("--out", out_path)] if text else _store_files("--out", *stores)
    _check_paths(o, outputs + [("--report", report_path)],
                 _store_files("--store", o["store"]) + [("--vocab", o["vocab"])])
    workers = resolve_workers()

    vocab = _load_vocab(o["vocab"], o)
    spec = MaskSpec(rate=o["rate"], mean_span=o["mean_span"], mode=MaskMode(o["mode"]))
    plan = plan_accumulation(o["effective_batch"], micro)
    reader = SequenceStoreReader(o["store"])

    order = np.arange(reader.count)
    if o["sort_by_length"]:
        order = np.argsort(reader.lengths(), kind="stable")  # ties keep store order
    decimals = _Decimals(vocab.size) if text else None

    def render(run: range):
        """The micro-batches of a run, corrupted at once: their text or rows,
        report lines, and real and total cells."""
        indices = order[run.start * micro : run.stop * micro].tolist()
        batch = corrupt_batch(reader, indices, spec, seed, epoch, vocab)
        lines, total = [], 0
        for b, part in zip(run, batch.split(micro)):
            stats = padding_stats(part)
            if report_path is not None:
                lines.append(f"batch={b} rows={part.rows} width_in={part.width_in} "
                             f"width_tgt={part.width_tgt} input_eff={stats.input_efficiency} "
                             f"target_eff={stats.target_efficiency} combined={stats.combined}\n")
            total += part.rows * (part.width_in + part.width_tgt)
        return (decimals.lines(indices, batch) if text else batch, "".join(lines),
                sum(batch.input_lengths) + sum(batch.target_lengths), total)

    def render_run(run: range) -> list:
        """The run rendered whole or, if that fails, micro-batch by micro-batch
        up to the failed one, whose error ends the list."""
        try:
            return [render(run)]
        except (WarmstartError, OSError):
            pass
        done = []
        for b in run:
            try:
                done.append(render(range(b, b + 1)))
            except (WarmstartError, OSError) as e:
                done.append(e)
                break
        return done

    # Micro-batch 0 alone, then runs of about RUN_SEQUENCES sequences, are
    # rendered in order and written here as they come. Files replace their
    # targets only once the whole epoch has succeeded.
    batches = math.ceil(len(order) / micro)
    runs = [range(lo, hi) for lo, hi in
            pairwise([0, *range(1, batches, max(1, RUN_SEQUENCES // micro)), batches])]
    real_cells = total_cells = 0
    with ExitStack() as files:
        if text:
            out = sys.stdout if out_path is None else files.enter_context(
                replacing(out_path, "w", encoding="utf-8"))
        else:
            append_in, append_tgt = (files.enter_context(store_writer(s)) for s in stores)
        if report_path is not None:
            report = files.enter_context(replacing(report_path, "w", encoding="utf-8"))
        results = files.enter_context(closing(_ordered_map(render_run, runs, workers)))
        for result in chain.from_iterable(results):
            if isinstance(result, Exception):
                raise result
            rows, lines, real, total = result
            if report_path is not None:
                report.write(lines)
            if text:
                out.write(rows)
            else:
                for ex in rows.examples():
                    append_in(ex.input_ids)
                    append_tgt(ex.target_ids)
            real_cells += real
            total_cells += total

    overall = Fraction(real_cells, total_cells) if total_cells else None
    print(
        f"plan: micro={plan.micro_batch_size} steps={plan.accumulation_steps} "
        f"effective={plan.effective_batch}"
    )
    print(
        f"batches={batches} sequences={len(order)} epoch={epoch} "
        f"mode={spec.mode.value} seed={seed}"
        + ("" if overall is None else f" efficiency={float(overall):.4f}")
    )
    return 0


def cmd_lr_curve(o: dict) -> int:
    total, out_path = o["total"], o["out"]
    _check_paths(o, [("--out", out_path)], _store_files("--store", o["store"]))
    if total is None:
        if o["store"] is None:
            raise ConfigError("need --total, or --store to derive it from")
        epochs, effective = o["epochs"], o["effective_batch"]
        for flag, value in (("--epochs", epochs), ("--effective-batch", effective)):
            if value < 1:
                raise ConfigError(f"{flag} must be at least 1, got {value}")
        count = SequenceStoreReader(o["store"]).count
        total = -(-epochs * count // effective)
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


def cmd_memplan(o: dict) -> int:
    params, offload, gpu_mem, ram = o["params"], o["offload"], o["gpu_mem"], o["ram"]
    precision = PrecisionMode.parse(o["precision"])
    model = ModelSpec(param_count=params)
    hardware = None
    if gpu_mem is not None or ram is not None or o["gpus"] != 1 or o["nvlink"]:
        if gpu_mem is None or ram is None:
            raise ConfigError("--gpus, --nvlink, --gpu-mem and --ram need both --gpu-mem and --ram")
        hardware = HardwareSpec(
            gpu_count=o["gpus"],
            gpu_memory_bytes=gpu_mem,
            system_ram_bytes=ram,
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


def cmd_stats(o: dict) -> int:
    _check_paths(o, [], _store_files("--store", o["store"]))
    reader = SequenceStoreReader(o["store"])
    lengths = reader.lengths()
    print(f"sequences={reader.count}")
    print(f"tokens={sum(lengths)}")
    if lengths:
        mean = sum(lengths) / len(lengths)
        print(f"length_min={min(lengths)} length_max={max(lengths)} length_mean={mean:.2f}")
        width = max(1, math.ceil(max(lengths) / 8))
        buckets = Counter((n - 1) // width for n in lengths)
        for b in sorted(buckets):
            print(f"len[{b * width + 1},{(b + 1) * width}]={buckets[b]}")
    return 0


SUBCOMMANDS = (
    ("transplant", cmd_transplant, RUN_OPTIONS + TRANSPLANT_OPTIONS,
     "build a warm-start embedding matrix"),
    ("prepare-corpus", cmd_prepare_corpus, RUN_OPTIONS + PREPARE_CORPUS_OPTIONS,
     "chunk text into a sequence store"),
    ("sample-batches", cmd_sample_batches, RUN_OPTIONS + SAMPLE_BATCHES_OPTIONS,
     "draw masked batches for an epoch"),
    ("lr-curve", cmd_lr_curve, RUN_OPTIONS + LR_CURVE_OPTIONS,
     "emit the learning-rate schedule as CSV"),
    ("memplan", cmd_memplan, RUN_OPTIONS + MEMPLAN_OPTIONS,
     "training memory estimate and fit advice"),
    ("stats", cmd_stats, RUN_OPTIONS + STATS_OPTIONS, "sequence store statistics"),
)

# Keys a config file may hold: any subcommand's but the run log's, so one
# file can drive the whole pipeline.
CONFIG_KEYS = frozenset(
    opt.key for _, _, options, _ in SUBCOMMANDS for opt in options
) - {"run_log"}


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
        # Every default is None so resolve_options can tell a given flag
        # from an absent one; the row's config, environment and default apply after.
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
        values = resolve_options(args.options, args, cfg)
        code = args.func(values)
        append_run_log(args.subcommand, values)
        return code
    except (WarmstartError, OSError) as e:
        print(f"warmstart: error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

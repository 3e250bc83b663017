"""Command-line entry point tying the pipeline stages together.

Subcommands: transplant, prepare-corpus, sample-batches, lr-curve, memplan,
stats. Each subcommand's options are declared once, in a table of `Option`
rows. Every value resolves the same way: command-line flag, then a
`key = value` config file (--config), then the row's environment variable
(--seed and --run-log have one), then the row's default. Errors exit 1 with
a single machine-parsable line on stderr, SIGTERM (143) and SIGINT (130) the
same way once temp files are removed; bad flags are usage errors (exit 2).
"""

from __future__ import annotations

import argparse
import math
import os
import signal
import struct
import sys
import threading
from array import array
from collections import Counter
from contextlib import ExitStack, closing
from importlib import import_module
from itertools import chain, pairwise
from pathlib import Path
from typing import Optional

from . import __version__
from .config import (
    ConfigError,
    Option,
    append_run_log,
    parse_bool,
    parse_config_file,
    resolve_options,
    resolve_workers,
)
from .corpus import (DEFAULT_MIN_TAIL, DEFAULT_SEQ_LEN, SequenceStoreReader, StoreFormatError,
                     check_chunking, chunk_corpus, default_index_path, is_special_file,
                     replacing, store_count, store_head, store_writer, write_store)
from .errors import Terminated, WarmstartError, WorkerError, read_text
from .schedule import DEFAULT_PEAK, DEFAULT_WARMUP_STEPS, LrSchedule, check_curve, iter_curve
from .vocab import (DEFAULT_BOUNDARY_MARKER, Vocabulary, check_layout, load_vocab,
                    tokenize_greedy)

# The names taken from the layers that some subcommand never reaches: those
# that use numpy (batcher, masking, transplant), and memplan and translate.
# Each module is imported on first use, so prepare-corpus and lr-curve start
# without any of them, and without numpy. A subcommand binds its modules
# with _bind; an attribute access from outside, such as
# `cli.padding_stats`, binds through __getattr__. assemble is not called
# here; it is listed because bench/layertrace.py patches it on this module
# by name.
_LAZY_NAMES = {
    ".batcher": ("assemble", "padding_stats", "plan_accumulation"),
    ".masking": ("MaskKey", "MaskMode", "MaskSpec", "corrupt_batch", "make_example"),
    ".memplan": ("HardwareSpec", "MemoryReport", "ModelSpec", "PrecisionMode", "estimate",
                 "interconnect_compare", "recommend"),
    ".translate": ("DictionaryProvider", "IdentityProvider", "RemoteTranslationProvider",
                   "TranslationTable", "translate_all"),
    ".transplant": ("read_embeddings", "transplant", "write_embeddings"),
}


def _bind(*modules: str) -> None:
    """Import the modules and bind the names taken from them here. A name
    already bound keeps its value, so a wrapper patched in before the first
    use stays in place."""
    for module in modules:
        found = import_module(module, __package__)
        for name in _LAZY_NAMES[module]:
            globals().setdefault(name, getattr(found, name))


def __getattr__(name: str):
    for module, names in _LAZY_NAMES.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _require(value, flag: str):
    if value is None:
        raise ConfigError(f"missing required value: {flag}")
    return value


def _check_paths(options, o: dict, config) -> None:
    """Fail in one line when two outputs, or an output and an input, are one
    file: the paths of the rows that declare a `file`, a store's index with
    it, and the config file, an input of every run. Outputs come first in row
    order, the run log last, then inputs. An existing target that is not a
    regular file, such as a FIFO or a pipe, is exempt: it is written directly."""
    outputs, inputs = [], []
    for opt in sorted(options, key=lambda opt: opt.key == "run_log"):
        if opt.file is not None and (path := o[opt.key]) is not None:
            paths = [path, default_index_path(path)] if opt.file.endswith("store") else [path]
            (inputs if opt.file.startswith("in") else outputs).extend((opt.flag, p) for p in paths)
    written: dict[str, str] = {}
    for n, (flag, path) in enumerate([*outputs, *inputs, ("--config", config)]):
        if path is None or is_special_file(path):
            continue
        real = os.path.realpath(path)
        if real in written:
            raise ConfigError(f"{written[real]} and {flag} are the same file: {path}")
        if n < len(outputs):  # inputs may share a file with each other
            written[real] = flag


def per_second(raw: str) -> float:
    """Requests per second, `N` or `N/s`; the provider checks the value."""
    return float(raw.strip().removesuffix("/s"))


def gibibytes(raw: str) -> int:
    """Gibibytes (possibly fractional) to an exact byte count; positive."""
    from fractions import Fraction

    try:
        gib = Fraction(raw)
    except ZeroDivisionError as e:
        raise ValueError(str(e)) from e
    if gib <= 0:
        raise ValueError("memory size must be positive")
    return round(gib * 2**30)


# One row per option: flag, default, converter, choices, required, help.
# The config key is the argparse dest, so one row drives the parser, the
# config file, the run-log hash and the path check. The parser puts
# RUN_OPTIONS first in every subcommand: the run log records the seed in a
# field of its own, and the log's path is set per run, never in a config file.
RUN_OPTIONS = (
    Option("--seed", 0, int, env="WARMSTART_SEED"),
    Option("--run-log", "warmstart-runs.log", help="provenance log path", env="WARMSTART_RUN_LOG",
           file="out"),
)

VOCAB_OPTIONS = (
    Option("--pad-id", 0, int),
    Option("--eos-id", 1, int),
    Option("--unk-id", 2, int),
    Option("--sentinel-count", 100, int),
    Option("--boundary-marker", DEFAULT_BOUNDARY_MARKER),
)

TRANSPLANT_OPTIONS = VOCAB_OPTIONS + (
    Option("--src-emb", required=True, file="in"),
    Option("--src-vocab", required=True, file="in"),
    Option("--tgt-vocab", required=True, file="in"),
    Option("--out", required=True, file="out"),
    Option("--report", help="write a JSON tally here", file="out"),
    Option("--cache", help="persistent translation cache file", file="out"),
    Option("--provider", "identity", choices=("dict", "remote", "identity")),
    Option("--dict-file", file="in"),
    Option("--remote-url"),
    Option("--source-lang"),
    Option("--target-lang", "en"),
    Option("--retry-failed", False, parse_bool),
    Option("--rate-limit", convert=per_second, help="requests per second, N or N/s"),
    Option("--timeout-ms", 10000, int),
)

PREPARE_CORPUS_OPTIONS = VOCAB_OPTIONS + (
    Option("--vocab", required=True, file="in"),
    Option("--in", required=True, help="text file or directory of *.txt", dest="input", file="in"),
    Option("--out", required=True, file="out store"),
    Option("--seq-len", DEFAULT_SEQ_LEN, int),
    Option("--min-tail", DEFAULT_MIN_TAIL, int),
)

SAMPLE_BATCHES_OPTIONS = VOCAB_OPTIONS + (
    Option("--store", required=True, file="in store"),
    Option("--vocab", required=True, file="in"),
    Option("--epoch", 0, int),
    Option("--mode", "span", choices=("span", "iid")),
    Option("--rate", 0.15, float),
    Option("--mean-span", 3.0, float),
    Option("--micro-batch", 16, int),
    Option("--effective-batch", 128, int),
    Option("--sort-by-length", False, parse_bool),
    Option("--format", "text", choices=("text", "binary")),
    Option("--out", help="text path, or the pair store for --format binary", file="out store"),
    Option("--report", help="per-batch efficiency lines", file="out"),
)

LR_CURVE_OPTIONS = (
    Option("--peak", DEFAULT_PEAK, float),
    Option("--warmup", DEFAULT_WARMUP_STEPS, int),
    Option("--total", convert=int),
    Option("--shape", "linear", choices=("linear", "rsqrt")),
    Option("--stride", 1, int),
    Option("--store", help="derive --total from this store", file="in store"),
    Option("--epochs", 10, int),
    Option("--effective-batch", 128, int),
    Option("--out", file="out"),
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

STATS_OPTIONS = (Option("--store", required=True, file="in store"),)


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


def _vocab_layout(o: dict) -> dict:
    """The load_vocab layout keywords, checked so that a bad layout fails
    before any input is read; the id range needs the vocabulary's size."""
    layout = {opt.key: o[opt.key] for opt in VOCAB_OPTIONS}
    check_layout(**layout)
    return layout


def cmd_transplant(o: dict) -> int:
    import json

    _bind(".translate", ".transplant")
    layout = _vocab_layout(o)
    cache_path = o["cache"]
    provider = _build_provider(o)  # a bad provider setting fails before any input is read
    # A bad cache fails before the vocabularies and the matrix are read.
    if cache_path is not None and Path(cache_path).exists():
        table = TranslationTable.load(cache_path, persist=True)
    else:
        table = TranslationTable(persist_path=cache_path)
    src = load_vocab(o["src_vocab"], **layout)
    tgt = load_vocab(o["tgt_vocab"], **layout)
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


def _read_documents(input_path, vocab: Vocabulary, workers: int):
    """The ids of each non-empty document, in order, as compact arrays.
    Directory: each *.txt file (name-sorted) is one document. Single file:
    blank-line-separated blocks are documents.

    Documents are tokenized in groups of about GROUP_BYTES of text, one
    document at least: the first group here, which fills the vocabulary's
    word memo that forked workers then inherit, and the rest through
    _ordered_map on `workers` processes. A file is read where its group is
    tokenized."""
    p = Path(input_path)
    if p.is_dir():
        docs = sorted(p.glob("*.txt"))
        if not docs:
            raise ConfigError(f"{input_path}: no *.txt files found")
        sizes, read = [path.stat().st_size for path in docs], read_text
    else:
        docs = read_text(p).split("\n\n")
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

    yield from tokenize_group(groups[0])  # there is one document at least
    for done in _ordered_map(tokenize_group, groups[1:], workers):
        yield from done


def cmd_prepare_corpus(o: dict) -> int:
    seq_len, min_tail = o["seq_len"], o["min_tail"]
    check_chunking(seq_len, min_tail)
    layout = _vocab_layout(o)  # both before any input is read
    workers = resolve_workers()
    vocab = load_vocab(o["vocab"], **layout)
    total = 0

    def counted(seqs):
        nonlocal total
        for ids in seqs:
            total += len(ids)
            yield ids

    with closing(_read_documents(o["input"], vocab, workers)) as docs:
        count = write_store(counted(chunk_corpus(docs, seq_len, min_tail)), o["out"])
    print(f"sequences={count} tokens={total} seq_len={seq_len} min_tail={min_tail}")
    return 0


RUN_SEQUENCES = 256  # about this many sequences go to a worker at a time


class _Decimals:
    """Ids as decimal text, encoded a whole micro-batch at a time.

    Row i of the table holds b"%d " % i, NUL-padded to one width, so
    encoding is a gather and one replace that drops the padding. That is
    exact: the digits and the space never contain a NUL byte.
    """

    def __init__(self, size: int):
        import numpy as np

        self._table = np.array([b"%d " % i for i in range(size)])
        self._widths = np.char.str_len(self._table)

    def rows(self, ids, lengths, end: str) -> tuple[str, list[int]]:
        """Each row's ids separated by spaces and closed by `end`, as one
        string, and the offset in it where each row ends. No row is empty."""
        import numpy as np

        text = bytearray(self._table[ids].tobytes().replace(b"\0", b""))
        ends = np.cumsum(np.add.reduceat(self._widths[ids], np.cumsum(lengths) - lengths))
        np.frombuffer(text, np.uint8)[ends - 1] = ord(end)
        return text.decode("ascii"), ends.tolist()

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


STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)  # each ends a run, see main


def _ordered_map(fn, items: list, workers: int):
    """fn(item) for each item, yielded in order.

    The items run on `workers` forked processes, no more than there are
    items: worker w inherits `fn` and the items, runs every workers-th item
    from item w, and writes each result, or the exception that ends its
    share, pickled to a pipe of its own, which holds it to one result ahead
    of the reader. A caller that wants a first result at once computes it
    itself, before the map forks. With one worker, on a platform without
    fork, or in a process that runs other threads, the items run here. A
    worker leaves only through os._exit, so it never returns into this
    process's frames nor flushes its copies of stdout and other open files;
    when the map ends, however it ends, every worker is killed.
    """
    workers = min(workers, len(items))
    # A forked child holds only the thread that forked it, so fork only
    # from a process that has no other.
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        yield from map(fn, items)
        return
    import pickle

    # Stop signals wait while the workers fork (an at-fork hook would lose
    # one); workers keep SIGINT blocked, as this process stops them.
    held = signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)
    pids, pipes = [], []
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    os.close(read_end)  # so a write fails once the parent is gone
                    signal.pthread_sigmask(signal.SIG_SETMASK, held | {signal.SIGINT})
                    for item in items[w::workers]:
                        try:
                            message = (True, fn(item))
                        except Exception as e:
                            message = (False, e)
                        data = memoryview(pickle.dumps(message))
                        while data:
                            data = data[os.write(write_end, data):]
                        if not message[0]:
                            break
                finally:
                    os._exit(0)
            os.close(write_end)
            pids.append(pid)
            pipes.append(open(read_end, "rb"))
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
        for i in range(len(items)):
            try:
                ok, value = pickle.load(pipes[i % workers])
            except (EOFError, pickle.UnpicklingError):  # the worker died
                raise WorkerError("a worker process died (killed, or out of memory?)") from None
            if not ok:
                raise value
            yield value
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)  # a second stop waits
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


class _Lengths:
    """A micro-batch's row lengths, with the rows and padded widths that
    batcher.padding_stats reads of a batch."""

    def __init__(self, input_lengths: list[int], target_lengths: list[int]):
        self.input_lengths, self.target_lengths = input_lengths, target_lengths
        self.rows, self.width_in, self.width_tgt = (
            len(input_lengths), max(input_lengths), max(target_lengths))


def cmd_sample_batches(o: dict) -> int:
    _bind(".batcher", ".masking")

    seed, epoch, micro = o["seed"], o["epoch"], o["micro_batch"]
    out_path, report_path = o["out"], o["report"]
    text = o["format"] == "text"
    if not text and out_path is None:
        raise ConfigError("--out is required with --format binary")
    spec = MaskSpec(rate=o["rate"], mean_span=o["mean_span"], mode=MaskMode(o["mode"]))
    MaskKey(seed, epoch, 0)  # rejects a negative epoch as every draw would
    plan = plan_accumulation(o["effective_batch"], micro)
    layout = _vocab_layout(o)  # all four before any input is read
    workers = resolve_workers()

    vocab = load_vocab(o["vocab"], **layout)

    def tally(first_batch: int, input_lengths: list, target_lengths: list) -> tuple[str, int, int]:
        """Row lengths cut into micro-batches, numbered from `first_batch`:
        their report lines, and their real and total cells."""
        lines, real, total = [], 0, 0
        for b, r in enumerate(range(0, len(input_lengths), micro), first_batch):
            part = _Lengths(input_lengths[r : r + micro], target_lengths[r : r + micro])
            stats = padding_stats(part)
            if report_path is not None:
                lines.append(f"batch={b} rows={part.rows} width_in={part.width_in} "
                             f"width_tgt={part.width_tgt} input_eff={stats.input_efficiency} "
                             f"target_eff={stats.target_efficiency} combined={stats.combined}\n")
            real += stats.input_real + stats.target_real
            total += stats.input_total + stats.target_total
        return "".join(lines), real, total

    def render_first(indices, seqs: list) -> tuple:
        """Micro-batch 0, the sequences `seqs` at `indices`, corrupted row by
        row through make_example, which needs no numpy, as render gives a
        run: its text or records, report line, and real and total cells. Its
        ids are checked first, then its rows in order, so it fails as
        corrupt_batch would."""
        for i, ids in zip(indices, seqs):
            if max(ids, default=0) >= vocab.size:
                raise StoreFormatError(f"{o['store']}: sequence {i} holds id "
                                       f"{next(t for t in ids if t >= vocab.size)}, "
                                       f"outside a vocabulary of {vocab.size}")
        examples = [make_example(ids, spec, MaskKey(seed, epoch, i), vocab)
                    for i, ids in zip(indices, seqs)]
        if text:
            rows = "".join(f"{i}\t{' '.join(map(str, e.input_ids))}\t"
                           f"{' '.join(map(str, e.target_ids))}\n"
                           for i, e in zip(indices, examples))
        else:
            rows = [struct.pack(f"<{len(ids)}I", *ids)
                    for e in examples for ids in (e.input_ids, e.target_ids)]
        return rows, *tally(0, [len(e.input_ids) for e in examples],
                            [len(e.target_ids) for e in examples])

    def render(run: range):
        """The micro-batches of a run, corrupted at once: their text or rows,
        report lines, and real and total cells."""
        indices = order[run.start * micro : run.stop * micro]
        batch = corrupt_batch(reader, indices, spec, seed, epoch, vocab)
        return (decimals.lines(indices, batch) if text else batch,
                *tally(run.start, batch.input_lengths, batch.target_lengths))

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

    # Micro-batch 0 is rendered and written first: in store order from the
    # head of the store, before the reader opens and numpy loads; sorted by
    # length, from the reader, since the order needs every length. Then runs
    # of about RUN_SEQUENCES sequences go to the workers, and are written
    # here in order as they come. Files replace their targets only once the
    # whole epoch has succeeded.
    if o["sort_by_length"]:
        import numpy as np

        reader = SequenceStoreReader(o["store"])
        order = np.argsort(reader.lengths(), kind="stable")  # ties keep store order
        indices = order[:micro]
        head = [reader.read(i) for i in indices]
    else:
        reader, head = None, store_head(o["store"], micro)
        indices = range(len(head))
    first = render_first(indices, head) if head else None  # an empty epoch has no micro-batch 0
    real_cells = total_cells = 0
    with ExitStack() as files:
        if text:
            out = sys.stdout if out_path is None else files.enter_context(
                replacing(out_path, "w", encoding="utf-8"))
        else:
            append = files.enter_context(store_writer(out_path))
        if report_path is not None:
            report = files.enter_context(replacing(report_path, "w", encoding="utf-8"))

        def write(rows, lines: str, real: int, total: int) -> None:
            nonlocal real_cells, total_cells
            if report_path is not None:
                report.write(lines)
            if text:
                out.write(rows)
            else:
                append(rows)
            real_cells += real
            total_cells += total

        if first is not None:
            write(*first)
            if text:  # the first lines reach a reader on a pipe before the rest is rendered
                out.flush()
        import numpy as np  # in store order, loaded only now

        if reader is None:
            reader = SequenceStoreReader(o["store"])
            order = range(reader.count)
        decimals = _Decimals(vocab.size) if text else None
        batches = math.ceil(len(order) / micro)
        runs = [range(lo, hi) for lo, hi in  # from micro-batch 1; an epoch of one has none
                pairwise([*range(1, batches, max(1, RUN_SEQUENCES // micro)), batches])]
        results = files.enter_context(closing(_ordered_map(render_run, runs, workers)))
        for result in chain.from_iterable(results):
            if isinstance(result, Exception):
                raise result
            rows, *rest = result
            if not text:
                inputs, targets = (np.split(ids.astype("<u4"), np.cumsum(lengths)[:-1])
                                   for ids, lengths in ((rows.inputs, rows.input_lengths),
                                                        (rows.targets, rows.target_lengths)))
                rows = chain.from_iterable(zip(inputs, targets))  # record 2i+1 is row i's target
            write(rows, *rest)

    # int / int is correctly rounded, as float(Fraction(real, total)) is
    efficiency = f" efficiency={real_cells / total_cells:.4f}" if total_cells else ""
    print(
        f"plan: micro={plan.micro_batch_size} steps={plan.accumulation_steps} "
        f"effective={plan.effective_batch}"
    )
    print(
        f"batches={batches} sequences={len(order)} epoch={epoch} "
        f"mode={spec.mode.value} seed={seed}{efficiency}"
    )
    return 0


def cmd_lr_curve(o: dict) -> int:
    total, out_path = o["total"], o["out"]
    check_curve(o["peak"], o["stride"])  # before the store is opened
    if total is None:
        if o["store"] is None:
            raise ConfigError("need --total, or --store to derive it from")
        epochs, effective = o["epochs"], o["effective_batch"]
        for flag, value in (("--epochs", epochs), ("--effective-batch", effective)):
            if value < 1:
                raise ConfigError(f"{flag} must be at least 1, got {value}")
        count = store_count(o["store"])
        total = -(-epochs * count // effective)
        print(f"derived total={total} from {count} sequences x {epochs} epochs / {effective}")

    sched = LrSchedule(
        total_steps=total, peak=o["peak"], warmup_steps=o["warmup"], shape=o["shape"]
    )
    with ExitStack() as files:  # rows are written as they come, so memory stays flat
        out = sys.stdout if out_path is None else files.enter_context(
            replacing(out_path, "w", encoding="utf-8"))
        out.write("step,lr\n")
        for points, (step, rate) in enumerate(iter_curve(sched, o["stride"]), 1):
            out.write(f"{step},{rate:.17g}\n")
    if out_path is not None:
        print(f"wrote {points} points to {out_path}")
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
    _bind(".memplan")
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
    ("transplant", cmd_transplant, TRANSPLANT_OPTIONS, "build a warm-start embedding matrix"),
    ("prepare-corpus", cmd_prepare_corpus, PREPARE_CORPUS_OPTIONS, "chunk text into a sequence store"),
    ("sample-batches", cmd_sample_batches, SAMPLE_BATCHES_OPTIONS, "draw masked batches for an epoch"),
    ("lr-curve", cmd_lr_curve, LR_CURVE_OPTIONS, "emit the learning-rate schedule as CSV"),
    ("memplan", cmd_memplan, MEMPLAN_OPTIONS, "training memory estimate and fit advice"),
    ("stats", cmd_stats, STATS_OPTIONS, "sequence store statistics"),
)

# Keys a config file may hold: any subcommand's but the run log's, so one
# file can drive the whole pipeline.
CONFIG_KEYS = frozenset(
    opt.key for _, _, options, _ in SUBCOMMANDS for opt in RUN_OPTIONS + options
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
        options = RUN_OPTIONS + options
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file")
        # Every default is None so resolve_options can tell a given flag
        # from an absent one; the row's config, environment and default apply after.
        for opt in options:
            kind = ({"action": "store_true"} if opt.convert is parse_bool
                    else {"type": opt.convert, "choices": opt.choices})
            p.add_argument(opt.flag, dest=opt.key, default=None, help=opt.help, **kind)
        p.set_defaults(func=func, options=options)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    pid = os.getpid()

    def terminate(signum, frame):
        if os.getpid() != pid:  # a forked worker exits at once, as with no handler
            os._exit(128 + signum)
        raise Terminated(signal.Signals(signum))

    previous = {}  # only the main thread can set a handler
    if threading.current_thread() is threading.main_thread():
        previous = {signum: signal.signal(signum, terminate) for signum in STOP_SIGNALS}
    try:
        cfg = {} if args.config is None else parse_config_file(args.config, CONFIG_KEYS)
        values = resolve_options(args.options, args, cfg)
        _check_paths(args.options, values, args.config)
        code = args.func(values)
        append_run_log(args.subcommand, values)
        return code
    except (WarmstartError, OSError, Terminated) as e:
        print(f"warmstart: error: {type(e).__name__}: {e}", file=sys.stderr)
        return 128 + e.signum if isinstance(e, Terminated) else 1
    finally:
        for signum, handler in previous.items():
            if handler is not None:
                signal.signal(signum, handler)


if __name__ == "__main__":
    sys.exit(main())

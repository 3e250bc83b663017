"""Outside-in layer tracing for an in-process `warmstart.cli.main` call.

The tracer patches each layer's public functions at the names their callers
look up (module globals such as `warmstart.cli.make_example`, or class
attributes such as `SequenceStoreReader.read`) with wrappers that record a
span and update counters. Spans nest through a stack, so a layer's self time
is its span time minus the time of the spans it caused; the wrappers' own
bookkeeping is charged to neither. Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import inspect
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

MARKER = "▁"


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (job, span id, parent id, name, start, end)
        self.job = ""
        self._next_id = 0
        self._stack: list[list] = []  # [span id, time of child wrappers]
        self._patches: list[tuple] = []
        self.reset()

    def reset(self, job: str = "") -> None:
        """Start a new job: counters clear, spans already recorded stay."""
        self.job = job
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.words_seen: set[str] = set()

    def wrap(self, name, fn, observe=None, before=None):
        """`fn` with a span called `name`. `before(args, kwargs)` runs ahead
        of the call and `observe(args, kwargs, result, ctx)` after it,
        where ctx is what `before` returned; neither counts as span time."""
        tracer = self

        def traced(*args, **kwargs):
            w0 = perf_counter()
            ctx = before(args, kwargs) if before else None
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
            tracer.spans.append((tracer.job, sid, parent, name, t0, t1))
            tracer.calls[name] += 1
            tracer.self_s[name] += (t1 - t0) - frame[1]
            if observe:
                observe(args, kwargs, result, ctx)
            if tracer._stack:
                tracer._stack[-1][1] += perf_counter() - w0
            return result

        return traced

    def patch(self, owner, attr, name, observe=None, before=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, observe, before))
        else:
            new = self.wrap(name, raw, observe, before)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- counters observed at layer boundaries ---------------------------

    def _tokenize(self, args, kwargs, result, ctx) -> None:
        vocab, text = args[0], args[1]
        c = self.counts
        c["chars_in"] += len(text)
        c["tokens_out"] += len(result)
        c["unk"] += result.count(vocab.unk_id)
        for w in text.split():
            c["words"] += 1
            if w in self.words_seen:
                c["repeated_words"] += 1
            else:
                self.words_seen.add(w)

    def _write_store(self, args, kwargs, result, ctx) -> None:
        bound = ctx.arguments
        index = bound.get("index_path") or str(bound["path"]) + ".idx"
        self.counts["seqs_written"] += result
        self.counts["bytes_written"] += _size(bound["path"]) + _size(index)

    def _draw(self, args, kwargs, result, ctx) -> None:
        self.counts["spans"] += len(result)
        self.counts["masked_tokens"] += sum(e - s + 1 for s, e in result)

    def _assemble(self, args, kwargs, batch, ctx) -> None:
        self.counts["real_cells"] += sum(batch.input_lengths) + sum(batch.target_lengths)
        self.counts["total_cells"] += batch.rows * (batch.width_in + batch.width_tgt)

    def _before_drive(self, args, kwargs):
        table, tokens = args[0], args[2]
        marker = kwargs.get("boundary_marker", MARKER)
        keys = {t[len(marker):] if t.startswith(marker) else t for t in tokens}
        self.counts["unique_keys"] += len(keys)
        self.counts["cache_hits"] += sum(1 for k in keys if table.get(k) is not None)
        return _size(table.persist_path) if table.persist_path else 0

    def _drive(self, args, kwargs, result, size_before) -> None:
        table = args[0]
        if table.persist_path:
            self.counts["persist_bytes"] += _size(table.persist_path) - size_before

    def _fetch(self, args, kwargs, result, ctx) -> None:
        self.counts["items_fetched"] += len(args[1])

    def _map(self, args, kwargs, pieces, ctx) -> None:
        self.counts["pieces"] += len(pieces)
        self.counts["multi_piece_rows"] += len(pieces) > 1

    def _emb_read(self, args, kwargs, result, ctx) -> None:
        self.counts["emb_bytes"] += _size(args[0])

    def _emb_write(self, args, kwargs, result, ctx) -> None:
        self.counts["emb_bytes"] += _size(args[1])

    def _count_tails(self, original):
        """chunk_corpus is a generator that write_store drains, so it gets no
        span of its own; its documents are counted as they pass."""
        sig = inspect.signature(original)
        tracer = self

        def chunk_corpus(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            seq_len, min_tail = bound.arguments["seq_len"], bound.arguments["min_tail"]
            tracer.calls["corpus.chunk"] += 1

            def counted(docs):
                for doc in docs:
                    tail = len(doc) % seq_len
                    if 0 < tail < min_tail:
                        tracer.counts["tails_dropped"] += 1
                    yield doc

            bound.arguments["docs"] = counted(bound.arguments["docs"])
            return original(*bound.args, **bound.kwargs)

        return chunk_corpus

    def install(self) -> None:
        """Wrap every traced entry point of the seven layers."""
        import warmstart.cli as cli
        import warmstart.masking as masking
        import warmstart.transplant as transplant_mod
        from warmstart.corpus import SequenceStoreReader
        from warmstart.translate import DictionaryProvider, TranslationTable

        write_sig = inspect.signature(cli.write_store)
        p = self.patch
        p(cli, "load_vocab", "vocab.load")
        p(cli, "tokenize_greedy", "vocab.tokenize", self._tokenize)
        p(transplant_mod, "tokenize_greedy", "vocab.tokenize", self._tokenize)
        p(SequenceStoreReader, "__init__", "corpus.open")
        p(SequenceStoreReader, "read", "corpus.read")
        p(SequenceStoreReader, "lengths", "corpus.lengths")
        p(cli, "write_store", "corpus.write", self._write_store,
          before=lambda a, k: write_sig.bind(*a, **k))
        self._patches.append((cli, "chunk_corpus", cli.chunk_corpus))
        cli.chunk_corpus = self._count_tails(cli.chunk_corpus)
        p(cli, "make_example", "masking.example")
        p(masking, "draw_mask", "masking.draw", self._draw)
        p(masking, "apply_span_corruption", "masking.corrupt")
        p(cli, "assemble", "batcher.assemble", self._assemble)
        p(cli, "padding_stats", "batcher.stats")
        p(TranslationTable, "load", "translate.table_load")
        p(DictionaryProvider, "from_file", "translate.dict_load")
        p(cli, "translate_all", "translate.drive", self._drive, before=self._before_drive)
        p(DictionaryProvider, "translate_batch", "translate.fetch", self._fetch)
        p(TranslationTable, "insert_many", "translate.persist")
        p(TranslationTable, "insert", "translate.persist")
        p(cli, "transplant", "transplant.rows")
        p(transplant_mod, "map_token", "transplant.map", self._map)
        p(cli, "read_embeddings", "transplant.emb_read", self._emb_read)
        p(cli, "write_embeddings", "transplant.emb_write", self._emb_write)

    def layer_metrics(self, stdout_bytes: int) -> dict[str, float]:
        """Per-layer metric values of the job traced since `reset`.

        Ratios whose base is zero (the layer was idle) read 0.
        """
        s, n, c = self.self_s, self.calls, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "vocab.load_s": s["vocab.load"],
            "vocab.tokenize_s": s["vocab.tokenize"],
            "vocab.tokenize_calls": n["vocab.tokenize"],
            "vocab.chars_in": c["chars_in"],
            "vocab.tokens_out": c["tokens_out"],
            "vocab.unk_ratio": ratio(c["unk"], c["tokens_out"]),
            "vocab.word_repeat_share": ratio(c["repeated_words"], c["words"]),
            "corpus.open_s": s["corpus.open"],
            "corpus.read_s": s["corpus.read"],
            "corpus.reads": n["corpus.read"],
            "corpus.lengths_s": s["corpus.lengths"],
            "corpus.write_s": s["corpus.write"],
            "corpus.bytes_written": c["bytes_written"],
            "corpus.seqs_written": c["seqs_written"],
            "corpus.tails_dropped": c["tails_dropped"],
            "masking.example_s": s["masking.example"],
            "masking.draw_s": s["masking.draw"],
            "masking.corrupt_s": s["masking.corrupt"],
            "masking.examples": n["masking.example"],
            "masking.masked_tokens": c["masked_tokens"],
            "masking.spans": c["spans"],
            "batcher.assemble_s": s["batcher.assemble"],
            "batcher.stats_s": s["batcher.stats"],
            "batcher.batches": n["batcher.assemble"],
            "batcher.padding_efficiency": ratio(c["real_cells"], c["total_cells"]),
            "cli.self_s": s["cli.main"],
            "cli.bytes_out": stdout_bytes,
            "translate.table_load_s": s["translate.table_load"],
            "translate.dict_load_s": s["translate.dict_load"],
            "translate.drive_s": s["translate.drive"],
            "translate.fetch_s": s["translate.fetch"],
            "translate.fetch_calls": n["translate.fetch"],
            "translate.items_fetched": c["items_fetched"],
            "translate.hit_ratio": ratio(c["cache_hits"], c["unique_keys"]),
            "translate.persist_s": s["translate.persist"],
            "translate.persist_bytes": c["persist_bytes"],
            "transplant.rows_s": s["transplant.rows"],
            "transplant.map_s": s["transplant.map"],
            "transplant.multi_piece_rows": c["multi_piece_rows"],
            "transplant.mean_pieces": ratio(c["pieces"], n["transplant.map"]),
            "transplant.emb_read_s": s["transplant.emb_read"],
            "transplant.emb_write_s": s["transplant.emb_write"],
            "transplant.emb_bytes": c["emb_bytes"],
        }

    def ratio_bases(self) -> dict[str, int]:
        """The denominator of every ratio metric, for the results record."""
        c, n = self.counts, self.calls
        return {
            "vocab.unk_ratio": c["tokens_out"],
            "vocab.word_repeat_share": c["words"],
            "batcher.padding_efficiency": c["total_cells"],
            "translate.hit_ratio": c["unique_keys"],
            "transplant.mean_pieces": n["transplant.map"],
        }

    def check_guards(self, uses: list[str], idle: list[str]) -> list[str]:
        """Errors for a prefix in `uses` with no calls, or in `idle` with some."""
        errors = []
        for prefix in uses:
            if not any(v for k, v in self.calls.items() if k.startswith(prefix)):
                errors.append(f"trace guard: no call to {prefix}* on a workload that must use it")
        for prefix in idle:
            hit = sorted(k for k, v in self.calls.items() if k.startswith(prefix) and v)
            if hit:
                errors.append(f"trace guard: {', '.join(hit)} called where the layer should be idle")
        return errors

    def write_spans(self, path) -> None:
        """All spans recorded so far, one JSON array per line:
        [job, span id, parent id, name, start_s, end_s]."""
        origin = min((sp[4] for sp in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as f:
            for job, sid, parent, name, t0, t1 in self.spans:
                f.write(json.dumps([job, sid, parent, name, round(t0 - origin, 7),
                                    round(t1 - origin, 7)]) + "\n")


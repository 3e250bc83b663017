"""Independent output checks for the benchmark workloads.

Each `check_*` function re-derives what a job must have produced from the
synthesized inputs alone and returns a list of error strings (empty when the
output is correct). Nothing here imports the program: the tokenizer is a
separate trie implementation of the documented greedy longest-match rule,
and the binary formats are parsed with numpy.
"""

from __future__ import annotations

import json
import random
import struct
import unicodedata
from fractions import Fraction
from pathlib import Path

import numpy as np

MARKER = "▁"
_END = ""  # trie key of a terminal; never a single character
MAX_ERRORS = 5


def needs_translation(normalized: str) -> bool:
    """False for tokens made only of digits, punctuation, whitespace and
    boundary markers (and for the empty string)."""
    for ch in normalized:
        if ch == MARKER or ch.isdigit() or ch.isspace():
            continue
        if unicodedata.category(ch).startswith("P"):
            continue
        return True
    return False


def read_tokens(path) -> list[str]:
    text = Path(path).read_text(encoding="utf-8")
    return [line.split("\t", 1)[0] for line in text.splitlines()]


class GreedyTokenizer:
    """Greedy longest-match over a trie of the matchable tokens.

    Matchable means every id except pad (0), eos (1), unk and the sentinel
    block at the top. Spaces become boundary markers and one marker is
    prepended; an unmatched marker is skipped, any other unmatched character
    yields unk. When no matchable token holds a marker past position 0, no
    match can cross a word start, so words are tokenized once and memoized.
    """

    def __init__(self, tokens: list[str], unk_id: int, sentinel_count: int):
        self.unk_id = unk_id
        reserved = {0, 1, unk_id} | set(range(len(tokens) - sentinel_count, len(tokens)))
        self.trie: dict = {}
        word_local = True
        for i, tok in enumerate(tokens):
            if i in reserved or not tok:
                continue
            node = self.trie
            for ch in tok:
                node = node.setdefault(ch, {})
            node[_END] = i
            if MARKER in tok[1:]:
                word_local = False
        self.memo: dict[str, list[int]] | None = {} if word_local else None

    def _walk(self, s: str) -> list[int]:
        out: list[int] = []
        i, n = 0, len(s)
        while i < n:
            node, j, best, best_end = self.trie, i, -1, i
            while j < n:
                node = node.get(s[j])
                if node is None:
                    break
                j += 1
                tid = node.get(_END)
                if tid is not None:
                    best, best_end = tid, j
            if best >= 0:
                out.append(best)
                i = best_end
            elif s[i] == MARKER:
                i += 1
            else:
                out.append(self.unk_id)
                i += 1
        return out

    def tokenize(self, text: str) -> list[int]:
        if not text:
            return []
        s = MARKER + text.replace(" ", MARKER)
        if self.memo is None:
            return self._walk(s)
        out: list[int] = []
        memo = self.memo
        for word in s[1:].split(MARKER):
            ids = memo.get(word)
            if ids is None:
                ids = memo[word] = self._walk(MARKER + word)
            out.extend(ids)
        return out


def parse_store(path) -> list[np.ndarray]:
    """Sequences of a "SEQS" v1 store, validated against its header."""
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != b"SEQS":
        raise ValueError(f"{path}: bad store magic")
    version, count = struct.unpack("<IQ", raw[4:16])
    if version != 1 or (len(raw) - 16) % 4:
        raise ValueError(f"{path}: bad store version or size")
    words = np.frombuffer(raw, dtype="<u4", offset=16)
    seqs = []
    pos = 0
    for _ in range(count):
        n = int(words[pos])
        seqs.append(words[pos + 1 : pos + 1 + n])
        pos += 1 + n
    if pos != len(words):
        raise ValueError(f"{path}: {len(words) - pos} trailing words after {count} sequences")
    return seqs


def parse_index(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != b"SEQI":
        raise ValueError(f"{path}: bad index magic")
    version, count = struct.unpack("<IQ", raw[4:16])
    if version != 1 or len(raw) != 16 + 8 * count:
        raise ValueError(f"{path}: bad index version or size")
    return np.frombuffer(raw, dtype="<u8", offset=16)


def read_embt(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != b"EMBT":
        raise ValueError(f"{path}: bad embedding magic")
    version, rows, dim = struct.unpack("<III", raw[4:16])
    if version != 1 or len(raw) != 16 + 4 * rows * dim:
        raise ValueError(f"{path}: bad embedding version or size")
    return np.frombuffer(raw, dtype="<f4", offset=16).reshape(rows, dim)


def _mask_plan(n: int, rate: float, mean_span: float) -> tuple[int, int]:
    """(masked tokens, spans) the masking contract fixes for length n."""
    masked = max(1, min(round(rate * n), n - 1))
    spans = max(1, min(round(masked / mean_span), masked))
    return masked, min(spans, n - masked)


def check_epoch_text(
    stdout: bytes, store, vocab_size: int, sentinels: int, eos_id: int,
    rate: float, mean_span: float, micro: int, effective: int, seed: int, epoch: int,
) -> list[str]:
    """Every line rebuilds its store sequence from the input and target
    sentinels, with the exact mask count and span count, position 0 never
    masked, and lines in store order; the summary lines agree."""
    errors: list[str] = []
    seqs = parse_store(store)
    lines = stdout.decode("utf-8").split("\n")
    if lines[-1] != "":
        return ["stdout does not end with a newline"]
    data, summary = lines[:-3], lines[-3:-1]
    if len(data) != len(seqs):
        return [f"{len(data)} example lines for {len(seqs)} stored sequences"]
    first_sentinel = vocab_size - sentinels
    real = cells = 0
    in_lens: list[int] = []
    tgt_lens: list[int] = []
    for k, line in enumerate(data):
        if len(errors) >= MAX_ERRORS:
            break
        fields = line.split("\t")
        if len(fields) != 3 or fields[0] != str(k):
            errors.append(f"line {k}: expected index {k} and 3 fields")
            continue
        inp = list(map(int, fields[1].split()))
        tgt = list(map(int, fields[2].split()))
        in_lens.append(len(inp))
        tgt_lens.append(len(tgt))
        seq = seqs[k].tolist()
        n = len(seq)
        if inp[-1] != eos_id or tgt[-2:] != [first_sentinel, eos_id]:
            errors.append(f"line {k}: bad eos or closing sentinel")
            continue
        body, tbody = inp[:-1], tgt[:-2]
        in_pos = [j for j, v in enumerate(body) if v >= first_sentinel]
        t_pos = [j for j, v in enumerate(tbody) if v >= first_sentinel]
        n_spans = len(t_pos)
        want_ids = [vocab_size - 1 - s for s in range(n_spans)]
        if (
            not t_pos or t_pos[0] != 0 or len(in_pos) != n_spans
            or [body[j] for j in in_pos] != want_ids or [tbody[j] for j in t_pos] != want_ids
        ):
            errors.append(f"line {k}: sentinels out of order or unpaired")
            continue
        if in_pos[0] == 0 or any(b - a < 2 for a, b in zip(in_pos, in_pos[1:])):
            errors.append(f"line {k}: position 0 masked or adjacent spans")
            continue
        bounds = t_pos + [len(tbody)]
        spans = [tbody[a + 1 : b] for a, b in zip(bounds, bounds[1:])]
        if any(not s for s in spans):
            errors.append(f"line {k}: empty span")
            continue
        rebuilt: list[int] = []
        prev = 0
        for j, span in zip(in_pos, spans):
            rebuilt.extend(body[prev:j])
            rebuilt.extend(span)
            prev = j + 1
        rebuilt.extend(body[prev:])
        if rebuilt != seq:
            errors.append(f"line {k}: does not rebuild store sequence {k}")
            continue
        if (sum(map(len, spans)), n_spans) != _mask_plan(n, rate, mean_span):
            errors.append(f"line {k}: {sum(map(len, spans))} tokens in {n_spans} spans, "
                          f"expected {_mask_plan(n, rate, mean_span)} for length {n}")
    if errors:
        return errors
    for s in range(0, len(in_lens), micro):
        bi, bt = in_lens[s : s + micro], tgt_lens[s : s + micro]
        real += sum(bi) + sum(bt)
        cells += len(bi) * (max(bi) + max(bt))
    batches = -(-len(seqs) // micro)
    want = [
        f"plan: micro={micro} steps={effective // micro} effective={effective}",
        f"batches={batches} sequences={len(seqs)} epoch={epoch} mode=span seed={seed} "
        f"efficiency={float(Fraction(real, cells)):.4f}",
    ]
    if summary != want:
        errors.append(f"summary lines {summary!r}, expected {want!r}")
    return errors


def check_ingest_zipf(
    stdout: bytes, store, vocab, input_dir, seq_len: int, min_tail: int
) -> list[str]:
    """The store holds the reference tokenization of every document, cut
    into seq_len chunks with tails shorter than min_tail dropped; the index
    and the summary line agree."""
    tok = GreedyTokenizer(read_tokens(vocab), unk_id=2, sentinel_count=100)
    expected: list[list[int]] = []
    for path in sorted(Path(input_dir).glob("*.txt")):
        ids = tok.tokenize(" ".join(path.read_text(encoding="utf-8").split()))
        full = len(ids) // seq_len * seq_len
        expected.extend(ids[s : s + seq_len] for s in range(0, full, seq_len))
        tail = len(ids) - full
        if tail and tail >= min_tail:
            expected.append(ids[full:])
    try:
        seqs = parse_store(store)
        offsets = parse_index(str(store) + ".idx")
    except ValueError as e:
        return [str(e)]
    errors: list[str] = []
    if len(seqs) != len(expected):
        return [f"store holds {len(seqs)} sequences, expected {len(expected)}"]
    for k, (got, want) in enumerate(zip(seqs, expected)):
        if got.tolist() != want:
            errors.append(f"sequence {k} differs from the reference tokenization")
            if len(errors) >= MAX_ERRORS:
                return errors
    want_offsets = 16 + 4 * (np.cumsum([0] + [len(s) + 1 for s in expected[:-1]]))
    if len(offsets) != len(expected) or not np.array_equal(offsets, want_offsets):
        errors.append("index offsets do not match the store")
    total = sum(map(len, expected))
    want_line = f"sequences={len(expected)} tokens={total} seq_len={seq_len} min_tail={min_tail}"
    if stdout.decode("utf-8") != want_line + "\n":
        errors.append(f"summary {stdout!r}, expected {want_line!r}")
    return errors


def expected_outcomes(tgt_tokens: list[str], dict_path, sentinels: int) -> dict[str, tuple[str, str]]:
    """normalized key -> (status, text) for every regular target token."""
    mapping = {}
    for line in Path(dict_path).read_text(encoding="utf-8").splitlines():
        if line:
            key, value = line.split("\t")
            mapping[key] = value
    out: dict[str, tuple[str, str]] = {}
    for tok in tgt_tokens[3 : len(tgt_tokens) - sentinels]:
        key = tok[1:] if tok.startswith(MARKER) else tok
        if key in out:
            continue
        if needs_translation(key) and mapping.get(key):
            out[key] = ("OK", mapping[key])
        else:
            out[key] = ("FAIL", key)
    return out


def check_transplant_dict(
    stdout: bytes, out_emb, report_path, cache_after: bytes, cache_before: bytes,
    src_vocab, tgt_vocab, src_emb, dict_path, sentinels: int = 100, sample: int = 2048,
) -> list[str]:
    """Special rows are copied by role and single-piece rows are bit-equal
    to their source row; on a fixed sample of multi-piece rows the value is
    the float64 mean cast once to float32. The report, the summary line and
    the cache file after the run agree with the dictionary."""
    src_tokens, tgt_tokens = read_tokens(src_vocab), read_tokens(tgt_vocab)
    try:
        src, out = read_embt(src_emb), read_embt(out_emb)
    except ValueError as e:
        return [str(e)]
    if out.shape != (len(tgt_tokens), src.shape[1]):
        return [f"output shape {out.shape}, expected {(len(tgt_tokens), src.shape[1])}"]
    outcomes = expected_outcomes(tgt_tokens, dict_path, sentinels)
    tok = GreedyTokenizer(src_tokens, unk_id=2, sentinel_count=sentinels)
    size = len(tgt_tokens)
    copy_to: list[int] = [0, 1, 2] + [size - 1 - k for k in range(sentinels)]
    copy_from: list[int] = [0, 1, 2] + [len(src_tokens) - 1 - k for k in range(sentinels)]
    multi: list[tuple[int, list[int]]] = []
    translated = failed = bypassed = unk_only = pieces_total = 0
    for t in range(3, size - sentinels):
        key = tgt_tokens[t][1:] if tgt_tokens[t].startswith(MARKER) else tgt_tokens[t]
        status, text = outcomes[key]
        if status == "OK":
            translated += 1
        elif needs_translation(key):
            failed += 1
        else:
            bypassed += 1
        pieces = tok.tokenize(text)
        if not pieces or all(p == 2 for p in pieces):
            pieces = [2]
            unk_only += 1
        pieces_total += len(pieces)
        if len(pieces) == 1:
            copy_to.append(t)
            copy_from.append(pieces[0])
        else:
            multi.append((t, pieces))
    errors: list[str] = []
    bits_out = out.view(np.uint32)
    bits_src = src.view(np.uint32)
    bad = np.nonzero((bits_out[copy_to] != bits_src[copy_from]).any(axis=1))[0]
    if len(bad):
        errors.append(f"{len(bad)} copied rows differ from their source row, first id {copy_to[bad[0]]}")
    for t, pieces in random.Random(0).sample(multi, min(sample, len(multi))):
        acc = np.zeros(src.shape[1], dtype=np.float64)
        for p in pieces:
            acc += src[p]
        if not np.array_equal((acc / len(pieces)).astype(np.float32).view(np.uint32), bits_out[t]):
            errors.append(f"row {t} is not the mean of source rows {pieces}")
            break
    regular = size - 3 - sentinels
    mean = Fraction(pieces_total, regular)
    want_report = {
        "total_tokens": size, "translated_count": translated, "failed_count": failed,
        "bypassed_count": bypassed, "specials_copied": 3 + sentinels,
        "mean_pieces_per_token": str(mean), "mean_pieces_per_token_float": float(mean),
        "unk_only_count": unk_only,
    }
    try:
        report = json.loads(Path(report_path).read_text(encoding="utf-8"))["report"]
    except (OSError, ValueError, KeyError) as e:
        return errors + [f"report unreadable: {e}"]
    if report != want_report:
        errors.append(f"report {report!r}, expected {want_report!r}")
    want_line = (
        f"transplanted {size} tokens: {translated} translated, {failed} failed, "
        f"{bypassed} bypassed, {3 + sentinels} specials copied\n"
    )
    if stdout.decode("utf-8") != want_line:
        errors.append(f"summary {stdout!r}, expected {want_line!r}")
    if not cache_after.startswith(cache_before):
        errors.append("cache file lost or rewrote its pre-seeded lines")
    lines = cache_after.decode("utf-8").split("\n")
    entries = {}
    for line in lines[:-1]:
        key, status, text = line.split("\t")
        if key in entries:
            errors.append(f"cache holds {key!r} twice")
            break
        entries[key] = (status, text)
    if lines[-1] != "" or entries != outcomes:
        errors.append("cache file does not hold exactly the expected outcomes")
    return errors

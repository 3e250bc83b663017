"""Deterministic input synthesizers for the three benchmark workloads.

Every generator is a pure function of its seed argument and its size
arguments: the same arguments write byte-identical files. Each returns a
dict describing what it wrote (paths, sizes and the input properties a
later optimisation may depend on, such as `word_repeat_share`).

The binary files follow the formats the program reads: the sequence store
("SEQS" + index "SEQI") and the embedding matrix ("EMBT"). They are written
here with numpy so that synthesis never runs the code under test.
"""

from __future__ import annotations

import random
import struct
from pathlib import Path

import numpy as np

from oracle import GreedyTokenizer, needs_translation

MARKER = "▁"
SPECIALS = ["<pad>", "</s>", "<unk>"]
EOS_ID, UNK_ID = 1, 2
VOCAB_SIZE = 32768
SENTINELS = 100
LETTERS = "abcdefghijklmnopqrstuvwxyz"
# Never in any vocabulary, so each occurrence tokenizes to unk.
OOV_CHARS = "éàçøß"
# Target-language letters: the source vocabulary lacks the last six, so a
# failed translation that keeps its own text can collapse to unk pieces.
TARGET_LETTERS = LETTERS + "äöüõšž"


def _sentinel_tail(count: int) -> list[str]:
    # Sentinel k must sit at id size-1-k, so the tail is written k-descending.
    return [f"<extra_id_{k}>" for k in range(count - 1, -1, -1)]


def write_vocab(path: Path, tokens: list[str]) -> None:
    path.write_text("\n".join(tokens) + "\n", encoding="utf-8")


def make_lexicon(rng: random.Random, n_words: int, oov_share: float) -> list[str]:
    """Distinct lowercase words, mostly 2..12 letters, a few with an OOV character.

    The length of the word at each rank, and whether it holds an OOV
    character, come from a fixed generator, so every seed gets the same
    profile and hence about the same text and token counts; only the
    letters depend on the seed.
    """
    weights = [1, 3, 6, 9, 10, 9, 7, 5, 3, 2, 1]  # lengths 2..12
    fixed = random.Random(0)
    lengths = fixed.choices(range(2, 13), weights, k=n_words)
    oov = [fixed.random() < oov_share for _ in range(n_words)]
    words: list[str] = []
    seen: set[str] = set()
    for n, has_oov in zip(lengths, oov):
        while True:
            w = "".join(rng.choice(LETTERS) for _ in range(n))
            if has_oov:
                pos = rng.randrange(n)
                w = w[:pos] + rng.choice(OOV_CHARS) + w[pos + 1 :]
            if w not in seen:
                break
            n += 1  # short lengths run out of distinct words
        seen.add(w)
        words.append(w)
    return words


def make_subword_vocab(
    rng: random.Random, ranked_words: list[str], whole_words: int, size: int = VOCAB_SIZE
) -> list[str]:
    """A sentencepiece-like inventory for `ranked_words` (most frequent first).

    Single letters (bare and marked) guarantee that every in-alphabet string
    tokenizes without unk. The `whole_words` most frequent words are whole
    marked pieces; the rest are word-initial prefixes and inner substrings,
    so rarer words take several pieces. The boundary marker only ever
    appears at position 0 of a token.
    """
    regular = size - len(SPECIALS) - SENTINELS
    pieces: list[str] = []
    seen: set[str] = set()

    def add(tok: str) -> None:
        if tok not in seen and len(pieces) < regular:
            seen.add(tok)
            pieces.append(tok)

    for ch in LETTERS:
        add(ch)
        add(MARKER + ch)
    clean = [w for w in ranked_words if not any(c in OOV_CHARS for c in w)]
    for w in clean[:whole_words]:
        add(MARKER + w)
    while len(pieces) < regular:
        w = rng.choice(clean)
        if len(w) < 3:
            continue
        n = rng.randint(2, min(6, len(w) - 1))
        if rng.random() < 0.3:
            add(MARKER + w[:n])
        else:
            start = rng.randrange(1, len(w) - n + 1)
            add(w[start : start + n])
    rng.shuffle(pieces)
    return SPECIALS + pieces + _sentinel_tail(SENTINELS)


def zipf_weights(n: int, exponent: float = 1.1) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return w / w.sum()


def word_repeat_share(words) -> float:
    """Share of words already seen earlier in the same input."""
    seen: set[str] = set()
    repeats = total = 0
    for w in words:
        total += 1
        if w in seen:
            repeats += 1
        else:
            seen.add(w)
    return repeats / total if total else 0.0


def synth_epoch_text(
    out_dir: Path, seed: int, count: int = 20000, min_len: int = 100, max_len: int = 512
) -> dict:
    """A sequence store of `count` sequences, lengths uniform in
    [min_len, max_len], ids uniform over the regular (non-special) ids."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    tokens = SPECIALS + [f"{MARKER}w{i}" for i in range(VOCAB_SIZE - 3 - SENTINELS)]
    tokens += _sentinel_tail(SENTINELS)
    vocab_path = out_dir / "vocab.txt"
    write_vocab(vocab_path, tokens)

    lengths = rng.integers(min_len, max_len + 1, size=count, dtype=np.int64)
    total = int(lengths.sum())
    ids = rng.integers(len(SPECIALS), VOCAB_SIZE - SENTINELS, size=total, dtype=np.uint32)
    words = np.empty(count + total, dtype="<u4")
    starts = np.cumsum(lengths + 1) - (lengths + 1)
    is_len = np.zeros(count + total, dtype=bool)
    is_len[starts] = True
    words[is_len] = lengths
    words[~is_len] = ids
    store_path = out_dir / "corpus.seqs"
    with open(store_path, "wb") as f:
        f.write(b"SEQS" + struct.pack("<IQ", 1, count))
        f.write(words.tobytes())
    with open(str(store_path) + ".idx", "wb") as f:
        f.write(b"SEQI" + struct.pack("<IQ", 1, count))
        f.write((16 + 4 * starts).astype("<u8").tobytes())
    return {
        "vocab": str(vocab_path),
        "store": str(store_path),
        "sequences": count,
        "tokens": total,
        "store_bytes": store_path.stat().st_size,
        "word_repeat_share": 0.0,
    }


def synth_ingest_zipf(
    out_dir: Path,
    seed: int,
    target_bytes: int = 6_000_000,
    docs: int = 400,
    lexicon_words: int = 60000,
    whole_words: int = 12000,
    size: int = VOCAB_SIZE,
) -> dict:
    """A directory of `docs` *.txt documents, about `target_bytes` of text
    whose words follow a Zipf law over a fixed lexicon, plus the vocabulary
    they are tokenized with."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed * 1000003 + 2)
    nrng = np.random.default_rng([seed, 2])
    lexicon = make_lexicon(rng, lexicon_words, oov_share=0.005)
    vocab_path = out_dir / "vocab.txt"
    write_vocab(vocab_path, make_subword_vocab(rng, lexicon, whole_words, size))

    p = zipf_weights(len(lexicon))
    mean_word = float(np.dot(p, [len(w) + 1 for w in lexicon]))
    n_words = int(target_bytes / mean_word)
    drawn = nrng.choice(len(lexicon), size=n_words, p=p)
    # Document sizes vary by a factor of ten; every document gets >= 20 words.
    shares = nrng.uniform(0.2, 2.0, size=docs)
    cuts = np.cumsum(np.maximum(20, (shares / shares.sum() * n_words).astype(np.int64)))
    cuts = np.minimum(cuts, n_words)
    cuts[-1] = n_words

    text_dir = out_dir / "docs"
    text_dir.mkdir(exist_ok=True)
    all_words: list[str] = []
    nbytes = 0
    start = 0
    for d, end in enumerate(cuts.tolist()):
        words = [lexicon[i] for i in drawn[start:end]]
        start = end
        all_words.extend(words)
        # Paragraphs of 40..120 words; whitespace is collapsed by the reader.
        lines = []
        pos = 0
        while pos < len(words):
            step = rng.randint(40, 120)
            lines.append(" ".join(words[pos : pos + step]))
            pos += step
        text = "\n\n".join(lines) + "\n"
        path = text_dir / f"doc_{d:05d}.txt"
        path.write_text(text, encoding="utf-8")
        nbytes += path.stat().st_size
    return {
        "vocab": str(vocab_path),
        "input": str(text_dir),
        "documents": docs,
        "words": len(all_words),
        "text_bytes": nbytes,
        "word_repeat_share": word_repeat_share(all_words),
    }


def _embt_bytes(matrix: np.ndarray) -> bytes:
    rows, dim = matrix.shape
    return b"EMBT" + struct.pack("<III", 1, rows, dim) + matrix.astype("<f4").tobytes()


def synth_transplant_dict(
    out_dir: Path,
    seed: int,
    dim: int = 512,
    lexicon_words: int = 60000,
    whole_words: int = 12000,
    dict_share: float = 0.85,
    cached_share: float = 0.5,
    bypass_share: float = 0.015,
    size: int = VOCAB_SIZE,
) -> dict:
    """Source and target vocabularies of `size` tokens, source embeddings,
    a translation dictionary covering `dict_share` of the linguistic target
    tokens and a cache file pre-seeded with `cached_share` of the outcomes.

    Translations are one or two source-lexicon words drawn without
    replacement, kept only when they tokenize to 1..4 source pieces, so the
    tokenizer sees short, mostly distinct strings.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed * 1000003 + 3)
    nrng = np.random.default_rng([seed, 3])
    lexicon = make_lexicon(rng, lexicon_words, oov_share=0.0)
    src_tokens = make_subword_vocab(rng, lexicon, whole_words, size)
    src_vocab = out_dir / "src_vocab.txt"
    write_vocab(src_vocab, src_tokens)
    src_emb = out_dir / "src.embt"
    src_emb.write_bytes(_embt_bytes(nrng.standard_normal((size, dim), dtype=np.float32)))

    regular = size - len(SPECIALS) - SENTINELS
    tgt_regular: list[str] = []
    seen: set[str] = set()
    punct = [",", ".", "-", ":", ";", "!", "?", "(", ")", "'"]
    while len(tgt_regular) < regular:
        if rng.random() < bypass_share:
            tok = rng.choice([MARKER, ""]) + (
                str(rng.randrange(10**rng.randint(1, 5))) if rng.random() < 0.7
                else "".join(rng.choice(punct) for _ in range(rng.randint(1, 3)))
            )
        else:
            base = "".join(rng.choice(TARGET_LETTERS) for _ in range(rng.randint(2, 10)))
            tok = MARKER + base if rng.random() < 0.6 else base
            # About one in five words also appears in its other form, so two
            # vocabulary entries normalize to one translation key.
            if rng.random() < 0.2:
                twin = base if tok.startswith(MARKER) else MARKER + base
                if twin not in seen and tok not in seen and len(tgt_regular) + 1 < regular:
                    seen.add(twin)
                    tgt_regular.append(twin)
        if tok not in seen:
            seen.add(tok)
            tgt_regular.append(tok)
    rng.shuffle(tgt_regular)
    tgt_tokens = SPECIALS + tgt_regular + _sentinel_tail(SENTINELS)
    tgt_vocab = out_dir / "tgt_vocab.txt"
    write_vocab(tgt_vocab, tgt_tokens)

    src_tok = GreedyTokenizer(src_tokens, UNK_ID, SENTINELS)
    keys: list[str] = []
    key_seen: set[str] = set()
    for tok in tgt_regular:
        key = tok[1:] if tok.startswith(MARKER) else tok
        if key not in key_seen:
            key_seen.add(key)
            keys.append(key)
    order = list(range(len(lexicon)))
    rng.shuffle(order)
    cursor = 0
    mapping: dict[str, str] = {}
    for key in keys:
        if not needs_translation(key) or rng.random() >= dict_share:
            continue
        while True:
            n = 1 if rng.random() < 0.7 else 2
            words = []
            for _ in range(n):
                words.append(lexicon[order[cursor % len(order)]])
                cursor += 1
            text = " ".join(words)
            if 1 <= len(src_tok.tokenize(text)) <= 4:
                break
        mapping[key] = text
    dict_path = out_dir / "dict.tsv"
    dict_path.write_text("".join(f"{k}\t{v}\n" for k, v in mapping.items()), encoding="utf-8")

    cached = [k for k in keys if rng.random() < cached_share]
    lines = []
    for key in cached:
        if key in mapping:
            lines.append(f"{key}\tOK\t{mapping[key]}\n")
        else:
            lines.append(f"{key}\tFAIL\t{key}\n")
    cache_path = out_dir / "cache.tsv"
    cache_path.write_text("".join(lines), encoding="utf-8")
    texts = [mapping.get(k, k) for k in keys]
    return {
        "src_vocab": str(src_vocab),
        "tgt_vocab": str(tgt_vocab),
        "src_emb": str(src_emb),
        "dict": str(dict_path),
        "cache": str(cache_path),
        "target_rows": size,
        "unique_keys": len(keys),
        "dict_entries": len(mapping),
        "cached_entries": len(cached),
        "emb_bytes": src_emb.stat().st_size,
        "word_repeat_share": word_repeat_share(w for t in texts for w in t.split()),
    }


"""Subword vocabularies: loading, greedy tokenization, detokenization.

A vocabulary is an ordered token inventory (line index = token id) with three
reserved roles (pad, end-of-sequence, unknown) and an optional block of
sentinel tokens occupying the highest ids in descending order: sentinel k has
id ``size - 1 - k``.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import WarmstartError, read_text

DEFAULT_BOUNDARY_MARKER = "▁"  # "▁", marks word-initial pieces
_SCORE_COLUMNS = re.compile(r"\t[^\n]*")  # from a line's first tab to its end
MEMO_MAX_WORDS = 65_536  # about 9 MB; past it new words are scanned, not stored


class VocabularyError(WarmstartError):
    pass


class DuplicateTokenError(VocabularyError):
    pass


def check_layout(pad_id: int, eos_id: int, unk_id: int, sentinel_count: int,
                 boundary_marker: str) -> None:
    """Fail unless the layout is one a vocabulary of some size can hold: the
    checks that need no tokens, so a bad setting fails before any input."""
    if len(boundary_marker) != 1:
        raise VocabularyError("boundary marker must be a single character")
    if sentinel_count < 0:
        raise VocabularyError("sentinel_count must be non-negative")
    if len({pad_id, eos_id, unk_id}) != 3:
        raise VocabularyError("pad_id, eos_id and unk_id must be distinct")


class Vocabulary:
    """Immutable token inventory; every operation on it gives the same output
    for the same input.

    Loading keeps the tokens and checks the layout; the tokenizer state is
    built once, on the first tokenize_greedy call. Its one mutable part is
    the word memo, a cache that never changes an output: threads that fill it
    at once store equal values, so instances are safe to share across
    threads. A forked worker inherits the state as built and the memo as
    filled so far, and fills its own copy from there; words it adds do not
    reach the parent or other workers.
    """

    def __init__(
        self,
        tokens: Iterable[str],
        pad_id: int = 0,
        eos_id: int = 1,
        unk_id: int = 2,
        sentinel_count: int = 100,
        boundary_marker: str = DEFAULT_BOUNDARY_MARKER,
    ) -> None:
        self.tokens: tuple[str, ...] = tuple(tokens)
        self.pad_id = pad_id
        self.eos_id = eos_id
        self.unk_id = unk_id
        self.sentinel_count = sentinel_count
        self.boundary_marker = boundary_marker
        self._validate()

    @cached_property
    def _matcher(self) -> tuple[dict[str, int], dict[str, int], Optional[dict]]:
        """The tokenizer state, built on first use: matchable token -> id (no
        reserved id; unk comes only from the no-match fallback), first
        character -> longest match length, and the word memo, None when it
        would not be exact (a matchable token holds the marker past position 0)."""
        reserved = self.special_ids()
        match_ids = {tok: i for i, tok in enumerate(self.tokens) if i not in reserved}
        maxlen: dict[str, int] = {}
        for tok in match_ids:
            if tok and len(tok) > maxlen.get(tok[0], 0):
                maxlen[tok[0]] = len(tok)
        marker = self.boundary_marker
        memo = None if any(marker in tok[1:] for tok in match_ids) else {}
        return match_ids, maxlen, memo

    def _validate(self) -> None:
        check_layout(self.pad_id, self.eos_id, self.unk_id, self.sentinel_count,
                     self.boundary_marker)
        size = len(self.tokens)
        if size < 3 + self.sentinel_count:
            raise VocabularyError(
                f"vocabulary of size {size} cannot hold 3 special tokens "
                f"plus {self.sentinel_count} sentinels"
            )
        if len(set(self.tokens)) != size:  # walk the ids only to name the first repeat
            first: dict[str, int] = {}
            for i, tok in enumerate(self.tokens):
                if first.setdefault(tok, i) != i:
                    raise DuplicateTokenError(
                        f"duplicate token {tok!r} at ids {first[tok]} and {i}"
                    )
        specials = (self.pad_id, self.eos_id, self.unk_id)
        first_sentinel = size - self.sentinel_count
        for name, sid in zip(("pad_id", "eos_id", "unk_id"), specials):
            if not 0 <= sid < size:
                raise VocabularyError(f"{name}={sid} out of range for size {size}")
            if sid >= first_sentinel:
                raise VocabularyError(f"{name}={sid} collides with the sentinel block")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def sentinel_id(self, k: int) -> int:
        """Id of sentinel k; sentinels descend from the top of the id space."""
        if not 0 <= k < self.sentinel_count:
            raise VocabularyError(
                f"sentinel {k} out of range (sentinel_count={self.sentinel_count})"
            )
        return self.size - 1 - k

    def special_ids(self) -> frozenset[int]:
        """Ids with reserved roles: pad, eos, unk and every sentinel."""
        ids = {self.pad_id, self.eos_id, self.unk_id}
        ids.update(range(self.size - self.sentinel_count, self.size))
        return frozenset(ids)

    def __repr__(self) -> str:
        return (
            f"Vocabulary(size={self.size}, pad={self.pad_id}, eos={self.eos_id}, "
            f"unk={self.unk_id}, sentinels={self.sentinel_count})"
        )


def load_vocab(path, **layout) -> Vocabulary:
    """Load a newline-delimited vocabulary file into a Vocabulary built with
    the `layout` keywords (pad_id, eos_id, unk_id, sentinel_count, ...).

    One token per line, id = 0-based line index. Only "\\n" ends a line (a
    "\\r" right before it is part of the ending). Anything after the first
    horizontal tab on a line is ignored, so sentencepiece-style score columns
    are accepted and discarded.
    """
    text = read_text(path, newline="")
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    lines = (_SCORE_COLUMNS.sub("", text) if "\t" in text else text).split("\n")
    if not text or text.endswith("\n"):  # a final newline ends the last line; it starts none
        lines.pop()
    return Vocabulary(lines, **layout)


def tokenize_greedy(vocab: Vocabulary, text: str) -> list[int]:
    """Deterministic left-to-right greedy longest-match tokenization.

    Spaces are rewritten to the boundary marker and one marker is prepended,
    so word-initial pieces match their marked forms. At each position the
    longest matching token wins; a position with no match emits unk_id and
    advances one Unicode scalar, except that an unmatched boundary marker is
    consumed silently (markers are introduced by the preprocessing itself).
    Never emits pad, eos or sentinel ids.

    The marked text is the concatenation of marker + word for each word of
    text.split(" "), empty words included. Unless a token holds the marker
    past position 0, no match crosses into the next word's marker, so the
    scan splits into per-word scans and each word's ids are memoized (at most
    MEMO_MAX_WORDS words) in the tables the first call builds on the vocabulary.
    """
    if not text:
        return []
    marker = vocab.boundary_marker
    _, _, memo = vocab._matcher
    if memo is None:
        return _scan(vocab, marker + text.replace(" ", marker))
    out: list[int] = []
    for word in text.split(" "):
        ids = memo.get(word)
        if ids is None:
            ids = tuple(_scan(vocab, marker + word))
            if len(memo) < MEMO_MAX_WORDS:
                memo[word] = ids
        out += ids
    return out


def _scan(vocab: Vocabulary, s: str) -> list[int]:
    """The greedy longest-match scan of an already marked string."""
    marker = vocab.boundary_marker
    match_ids, maxlen_by_first, _ = vocab._matcher
    out: list[int] = []
    i = 0
    n = len(s)
    while i < n:
        limit = min(maxlen_by_first.get(s[i], 0), n - i)
        matched = -1
        for length in range(limit, 0, -1):
            tid = match_ids.get(s[i : i + length])
            if tid is not None:
                matched = tid
                i += length
                break
        if matched >= 0:
            out.append(matched)
        elif s[i] == marker:
            i += 1
        else:
            out.append(vocab.unk_id)
            i += 1
    return out


def detokenize(vocab: Vocabulary, ids: Sequence[int]) -> str:
    """Concatenate token strings, turn boundary markers back into spaces."""
    size = vocab.size
    for tid in ids:
        if not 0 <= tid < size:
            raise VocabularyError(f"token id {tid} out of range for size {size}")
    text = "".join(vocab.tokens[tid] for tid in ids)
    text = text.replace(vocab.boundary_marker, " ")
    if text.startswith(" "):
        text = text[1:]
    return text

"""Token translation: providers, outcome caching, batch driving.

Every vocabulary token is translated into the source model's language before
its embedding is synthesized. Translations are expensive (often a remote
service), so outcomes are cached in memory and optionally persisted to a
line-oriented file that survives byte-identical round trips.
"""

from __future__ import annotations

import math
import re
import threading
import time
import unicodedata
from enum import Enum
from itertools import repeat
from typing import Callable, NamedTuple, Optional, Protocol, Sequence

from .corpus import replacing
from .errors import WarmstartError, read_text
from .vocab import DEFAULT_BOUNDARY_MARKER


class TranslationError(WarmstartError):
    pass


class CachePersistenceError(TranslationError):
    """Raised when outcomes could not be appended to the cache file.

    Carries the outcomes that were computed but never written, so a caller
    can retry persistence without re-fetching.
    """

    def __init__(self, message: str, undelivered: dict[str, "TranslationOutcome"]):
        super().__init__(message)
        self.undelivered = dict(undelivered)


class CacheFormatError(TranslationError):
    pass


class TranslationStatus(Enum):
    TRANSLATED = "OK"
    FAILED = "FAIL"


_STATUSES = {status.value: status for status in TranslationStatus}


class TranslationOutcome(NamedTuple):
    status: TranslationStatus
    text: str

    @property
    def ok(self) -> bool:
        return self.status is TranslationStatus.TRANSLATED


def _outcome(token: str, translation) -> TranslationOutcome:
    """The one rule for a translation: a non-empty string is TRANSLATED;
    anything else is no translation, so FAILED carries the token's own text."""
    if isinstance(translation, str) and translation:
        return TranslationOutcome(TranslationStatus.TRANSLATED, translation)
    return TranslationOutcome(TranslationStatus.FAILED, token)


def normalize_token(token: str, boundary_marker: str = DEFAULT_BOUNDARY_MARKER) -> str:
    """Strip at most one leading boundary marker; the rest is kept verbatim."""
    if token.startswith(boundary_marker):
        return token[len(boundary_marker):]
    return token


def needs_translation(normalized: str, boundary_marker: str = DEFAULT_BOUNDARY_MARKER) -> bool:
    """False for tokens translation cannot improve: empty, or made entirely
    of digits, punctuation, whitespace and boundary markers."""
    if not normalized:
        return False
    for ch in normalized:
        if ch == boundary_marker or ch.isdigit() or ch.isspace():
            continue
        if unicodedata.category(ch).startswith("P"):
            continue
        return True
    return False


class TranslationProvider(Protocol):
    """Anything that can translate a batch of normalized tokens.

    ``translate_batch`` gets at most ``batch_size`` texts and returns one
    entry per text, in order: a translation string, or anything else (None)
    for no translation. `translate_all` does the batching and turns each
    entry into an outcome; a raise, or a result with no length or the wrong
    one, counts as no translation for the whole batch.
    """

    name: str
    batch_size: int

    def translate_batch(self, texts: Sequence[str]) -> list: ...


_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ESCAPE_SEQUENCE = re.compile(r"\\(.?)", re.DOTALL)  # an empty group: backslash ends the field


def _escape(field: str) -> str:
    return field.translate(_ESCAPES)


def _unescape(field: str) -> str:
    return _ESCAPE_SEQUENCE.sub(_unescape_one, field)


def _unescape_one(m: re.Match) -> str:
    nxt = m.group(1)
    if not nxt:
        raise CacheFormatError("dangling escape at end of field")
    if nxt not in _UNESCAPES:
        raise CacheFormatError(f"unknown escape sequence \\{nxt}")
    return _UNESCAPES[nxt]


def _columns(lines: list[str], width: int) -> Optional[list[list[str]]]:
    """The tab-separated fields of the non-blank lines, split all at once, as
    `width` columns; None when a non-blank line does not hold `width` fields."""
    filled = len(lines) - lines.count("")
    if list(map(str.count, lines, repeat("\t"))).count(width - 1) != filled:
        return None
    if filled < len(lines):
        lines = list(filter(None, lines))
    fields = "\t".join(lines).split("\t") if lines else []
    return [fields[i::width] for i in range(width)]


def _first_line_error(path, lines: list[str]) -> CacheFormatError:
    """The error of the first cache line that does not parse, once a bulk
    read has found one: a raw CR, a field count other than 3, a bad escape
    in the token, an unknown status or a bad escape in the text."""
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        fields = line.split("\t")
        try:
            if "\r" in line:
                raise CacheFormatError("raw carriage return (CRLF line endings?)")
            if len(fields) != 3:
                raise CacheFormatError(f"expected 3 tab-separated fields, got {len(fields)}")
            _unescape(fields[0])
            if fields[1] not in _STATUSES:
                raise CacheFormatError(f"unknown status {fields[1]!r}")
            _unescape(fields[2])
        except CacheFormatError as e:
            return CacheFormatError(f"{path}:{lineno}: {e}")
    raise AssertionError("every cache line parses")


def _format_line(token: str, outcome: TranslationOutcome) -> str:
    return f"{_escape(token)}\t{outcome.status.value}\t{_escape(outcome.text)}\n"


class TranslationTable:
    """Insertion-ordered map from normalized token to translation outcome.

    Thread-safe. When ``persist_path`` is set, each insert is appended to the
    file immediately, so a crashed run loses nothing already fetched. The
    file format is one record per line: token, status ("OK"/"FAIL") and text,
    tab-separated, with backslash escapes for the four characters that would
    break the framing. Serialization is canonical: load followed by save
    reproduces the file byte for byte.
    """

    def __init__(self, persist_path=None):
        self.persist_path = persist_path
        self._entries: dict[str, TranslationOutcome] = {}
        self._lock = threading.RLock()
        self._torn = False  # the file ends in a line cut short; rewrite, not append

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, token: str) -> Optional[TranslationOutcome]:
        with self._lock:
            return self._entries.get(token)

    def insert(self, token: str, outcome: TranslationOutcome) -> None:
        self.insert_many({token: outcome})

    def insert_many(self, outcomes: dict[str, TranslationOutcome]) -> None:
        """Record outcomes in memory, then persist them: appended as new
        lines, or, when any of them replaces an entry (which invalidates its
        earlier line), by rewriting the whole file once.

        On a write failure the CachePersistenceError carries all of
        `outcomes`, since none of them is known to have reached the file.
        """
        with self._lock:
            rewrite = self._torn or any(token in self._entries for token in outcomes)
            self._entries.update(outcomes)
            if self.persist_path is None:
                return
            try:
                if rewrite:
                    self.save(self.persist_path)
                    self._torn = False
                else:
                    with open(self.persist_path, "a", encoding="utf-8", newline="") as f:
                        f.writelines(_format_line(t, o) for t, o in outcomes.items())
            except OSError as e:
                action = "rewrite" if rewrite else "append to"
                raise CachePersistenceError(
                    f"cannot {action} cache file {self.persist_path}: {e}", outcomes
                ) from e

    def items(self) -> list[tuple[str, TranslationOutcome]]:
        with self._lock:
            return list(self._entries.items())

    @classmethod
    def load(cls, path, persist: bool = False) -> "TranslationTable":
        """Read a cache file. With ``persist=True`` new inserts keep
        appending to the same file. A last line with no newline is an append
        cut short: it is dropped, and the next insert rewrites the file. A
        raw CR is never written (CR is escaped), so one fails the load."""
        table = cls(persist_path=path if persist else None)
        whole, _, torn = read_text(path, newline="\n").rpartition("\n")
        table._torn = bool(torn)
        lines = whole.split("\n")
        columns = None if "\r" in whole else _columns(lines, 3)
        if columns is None or not set(columns[1]) <= _STATUSES.keys():
            raise _first_line_error(path, lines)
        tokens, statuses, texts = columns
        if "\\" in whole:  # only a field with a backslash has escapes to undo
            try:
                tokens, texts = list(map(_unescape, tokens)), list(map(_unescape, texts))
            except CacheFormatError:
                raise _first_line_error(path, lines) from None
        table._entries.update(zip(tokens, map(
            TranslationOutcome._make, zip(map(_STATUSES.get, statuses), texts))))
        return table

    def save(self, path) -> None:
        with self._lock:
            with replacing(path, "w", encoding="utf-8", newline="") as f:
                for token, outcome in self._entries.items():
                    f.write(_format_line(token, outcome))


def translate_all(
    table: TranslationTable,
    provider: TranslationProvider,
    tokens: Sequence[str],
    *,
    boundary_marker: str = DEFAULT_BOUNDARY_MARKER,
    retry_failed: bool = False,
) -> None:
    """Ensure the table covers every token, batching provider calls.

    Tokens are deduplicated after normalization. Cache hits and bypasses are
    resolved locally; the remainder goes to the provider in chunks of
    ``provider.batch_size``. This is the one place outcomes are built.
    """
    todo: list[str] = []
    bypassed: dict[str, TranslationOutcome] = {}
    for normalized in dict.fromkeys(normalize_token(t, boundary_marker) for t in tokens):
        cached = table.get(normalized)
        if cached is not None and not (retry_failed and not cached.ok):
            continue
        if not needs_translation(normalized, boundary_marker):
            bypassed[normalized] = _outcome(normalized, None)
            continue
        todo.append(normalized)
    if bypassed:  # one write; bypasses precede fetched entries in the file
        table.insert_many(bypassed)
    chunk = max(1, provider.batch_size)
    for start in range(0, len(todo), chunk):
        batch = todo[start : start + chunk]
        try:
            results = provider.translate_batch(batch)
            if len(results) != len(batch):
                raise TranslationError("wrong number of translations")
        except Exception:  # a raise, no length or the wrong one: the batch failed
            results = [None] * len(batch)
        table.insert_many({token: _outcome(token, x) for token, x in zip(batch, results)})


class IdentityProvider:
    """Translates nothing, so every token's own text is used downstream."""

    name = "identity"
    batch_size = 1024

    def translate_batch(self, texts: Sequence[str]) -> list[None]:
        return [None] * len(texts)


class DictionaryProvider:
    """Offline word list from a dict or (token, translation) pairs; a miss is no translation."""

    name = "dict"
    batch_size = 4096

    def __init__(self, mapping):
        self.mapping = dict(mapping)

    @classmethod
    def from_file(cls, path) -> "DictionaryProvider":
        """Two tab-separated columns per line; blank lines ignored."""
        lines = read_text(path).split("\n")
        columns = _columns(lines, 2)
        if columns is None:  # name the first line that is not two fields
            for lineno, line in enumerate(lines, start=1):
                count = line.count("\t") + 1
                if line and count != 2:
                    raise TranslationError(
                        f"{path}:{lineno}: expected 2 tab-separated fields, got {count}"
                    )
        return cls(zip(*columns))

    def translate_batch(self, texts: Sequence[str]) -> list[Optional[str]]:
        return [self.mapping.get(t) for t in texts]


def _post_json(url: str, json, timeout: float):
    """POST `json` as JSON and return the decoded reply; a non-2xx status raises."""
    import urllib.request  # here, so no subcommand pays its import
    from json import dumps, loads

    request = urllib.request.Request(
        url, data=dumps(json).encode(), headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return loads(resp.read())


class RemoteTranslationProvider:
    """HTTP JSON translation service client.

    POSTs ``{"texts": [...], "source": ..., "target": ...}`` and expects
    ``{"translations": [...]}`` with one string per input; an item that is
    not a string is no translation. After retries with exponential backoff,
    a transport or shape error is no translation for every text of the batch.
    The POST callable (`_post_json` by default), sleep and clock are injectable.
    """

    name = "remote"
    batch_size = 64
    max_retries = 3
    backoff_base_s = 0.5

    def __init__(
        self,
        url: str,
        source_lang: Optional[str] = None,
        target_lang: str = "en",
        rate_limit_per_s: Optional[float] = None,
        timeout_ms: int = 10000,
        post: Callable = _post_json,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate_limit_per_s is not None and not 0 < rate_limit_per_s < math.inf:
            raise TranslationError(
                f"rate limit must be finite and positive, got {rate_limit_per_s}")
        if not 0 < timeout_ms < math.inf:
            raise TranslationError(f"timeout_ms must be finite and positive, got {timeout_ms}")
        self.url = url
        self.source_lang = source_lang
        self.target_lang = target_lang
        self.rate_limit_per_s = rate_limit_per_s
        self.timeout_ms = timeout_ms
        self._sleep = sleep
        self._clock = clock
        self._last_request_at: Optional[float] = None
        self._post = post

    def _throttle(self) -> None:
        if self.rate_limit_per_s is None:
            return
        interval = 1.0 / self.rate_limit_per_s
        now = self._clock()
        if self._last_request_at is not None:
            wait = self._last_request_at + interval - now
            if wait > 0:
                self._sleep(wait)
                now = self._clock()
        self._last_request_at = now

    def translate_batch(self, texts: Sequence[str]) -> list:
        payload = {"texts": list(texts), "source": self.source_lang, "target": self.target_lang}
        for attempt in range(self.max_retries + 1):
            self._throttle()
            try:
                body = self._post(self.url, json=payload, timeout=self.timeout_ms / 1000.0)
                translations = body["translations"]
                if not isinstance(translations, list) or len(translations) != len(texts):
                    raise TranslationError("response shape mismatch")
                return translations
            except Exception:
                if attempt < self.max_retries:
                    self._sleep(self.backoff_base_s * (2 ** attempt))
        return [None] * len(texts)

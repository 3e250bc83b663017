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
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Protocol, Sequence

from .corpus import replacing
from .errors import WarmstartError
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


@dataclass(frozen=True)
class TranslationOutcome:
    status: TranslationStatus
    text: str

    @property
    def ok(self) -> bool:
        return self.status is TranslationStatus.TRANSLATED


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

    ``translate_batch`` returns one outcome per input, in order. A provider
    must degrade per item (FAILED outcome) rather than raise for routine
    translation failures; raising is reserved for misconfiguration.
    """

    name: str

    def translate_batch(self, texts: Sequence[str]) -> list[TranslationOutcome]: ...

    @property
    def max_in_flight(self) -> int: ...


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
        self._provenance: dict[str, str] = {}
        self._lock = threading.RLock()
        # Serializes lookup_or_fetch so concurrent misses fetch once.
        self._fetch_lock = threading.Lock()
        self._torn = False  # the file ends in a line cut short; rewrite, not append

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, token: str) -> bool:
        with self._lock:
            return token in self._entries

    def get(self, token: str) -> Optional[TranslationOutcome]:
        with self._lock:
            return self._entries.get(token)

    def provenance(self, token: str) -> Optional[str]:
        """Where the entry came from ("cache", "bypass", provider name).

        In-memory bookkeeping only; it is not persisted.
        """
        with self._lock:
            return self._provenance.get(token)

    def insert(self, token: str, outcome: TranslationOutcome, provenance: str) -> None:
        self.insert_many({token: outcome}, provenance)

    def insert_many(self, outcomes: dict[str, TranslationOutcome], provenance: str) -> None:
        """Record outcomes in memory, then persist them: appended as new
        lines, or, when any of them replaces an entry (which invalidates its
        earlier line), by rewriting the whole file once.

        On a write failure the CachePersistenceError carries all of
        `outcomes`, since none of them is known to have reached the file.
        """
        with self._lock:
            rewrite = self._torn or any(token in self._entries for token in outcomes)
            for token, outcome in outcomes.items():
                self._entries[token] = outcome
                self._provenance[token] = provenance
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
        cut short: it is dropped, and the next insert rewrites the file."""
        table = cls(persist_path=path if persist else None)
        with open(path, encoding="utf-8", newline="\n") as f:
            for lineno, raw in enumerate(f, start=1):
                table._torn = not raw.endswith("\n")
                if table._torn or raw == "\n":
                    continue
                fields = raw[:-1].split("\t")
                if len(fields) != 3:
                    raise CacheFormatError(
                        f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                    )
                token = _unescape(fields[0])
                try:
                    status = TranslationStatus(fields[1])
                except ValueError:
                    raise CacheFormatError(
                        f"{path}:{lineno}: unknown status {fields[1]!r}"
                    ) from None
                text = _unescape(fields[2])
                table._entries[token] = TranslationOutcome(status, text)
                table._provenance[token] = "cache"
        return table

    def save(self, path) -> None:
        with self._lock:
            with replacing(path, "w", encoding="utf-8", newline="") as f:
                for token, outcome in self._entries.items():
                    f.write(_format_line(token, outcome))


def lookup_or_fetch(
    table: TranslationTable,
    provider: TranslationProvider,
    token: str,
    *,
    boundary_marker: str = DEFAULT_BOUNDARY_MARKER,
    retry_failed: bool = False,
) -> TranslationOutcome:
    """Resolve one raw vocabulary token to a translation outcome.

    A one-token `translate_all` (cache, then bypass, then provider) run under
    the table's fetch lock, so concurrent callers of the same missing token
    trigger a single fetch. Provider exceptions and empty translations
    become FAILED/identity outcomes; they are cached like any other result.
    """
    with table._fetch_lock:
        translate_all(
            table, provider, [token], boundary_marker=boundary_marker, retry_failed=retry_failed
        )
        return table.get(normalize_token(token, boundary_marker))


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
    ``provider.max_in_flight``.
    """
    todo: list[str] = []
    bypassed: dict[str, TranslationOutcome] = {}
    seen: set[str] = set()
    for token in tokens:
        normalized = normalize_token(token, boundary_marker)
        if normalized in seen:
            continue
        seen.add(normalized)
        cached = table.get(normalized)
        if cached is not None and not (retry_failed and not cached.ok):
            continue
        if not needs_translation(normalized, boundary_marker):
            bypassed[normalized] = TranslationOutcome(TranslationStatus.FAILED, normalized)
            continue
        todo.append(normalized)
    if bypassed:  # one write; bypasses precede fetched entries in the file
        table.insert_many(bypassed, "bypass")
    chunk = max(1, provider.max_in_flight)
    for start in range(0, len(todo), chunk):
        batch = todo[start : start + chunk]
        try:
            results = provider.translate_batch(batch)
        except Exception:
            results = []  # fails like a result of the wrong length
        if len(results) != len(batch):
            results = [TranslationOutcome(TranslationStatus.FAILED, t) for t in batch]
        fixed: dict[str, TranslationOutcome] = {}
        for token, outcome in zip(batch, results):
            if outcome.ok and not outcome.text:
                outcome = TranslationOutcome(TranslationStatus.FAILED, token)
            fixed[token] = outcome
        table.insert_many(fixed, provider.name)


class IdentityProvider:
    """Marks every token FAILED so its own text is used downstream."""

    name = "identity"

    def translate_batch(self, texts: Sequence[str]) -> list[TranslationOutcome]:
        return [TranslationOutcome(TranslationStatus.FAILED, t) for t in texts]

    @property
    def max_in_flight(self) -> int:
        return 1024


class DictionaryProvider:
    """Offline word list: token -> translation, misses FAIL to identity."""

    name = "dict"

    def __init__(self, mapping: dict[str, str]):
        self.mapping = dict(mapping)

    @classmethod
    def from_file(cls, path) -> "DictionaryProvider":
        """Two tab-separated columns per line; blank lines ignored."""
        mapping: dict[str, str] = {}
        with open(path, encoding="utf-8") as f:
            for lineno, raw in enumerate(f, start=1):
                line = raw.rstrip("\n")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 2:
                    raise TranslationError(
                        f"{path}:{lineno}: expected 2 tab-separated fields, got {len(fields)}"
                    )
                mapping[fields[0]] = fields[1]
        return cls(mapping)

    def translate_batch(self, texts: Sequence[str]) -> list[TranslationOutcome]:
        out = []
        for t in texts:
            hit = self.mapping.get(t)
            if hit:
                out.append(TranslationOutcome(TranslationStatus.TRANSLATED, hit))
            else:
                out.append(TranslationOutcome(TranslationStatus.FAILED, t))
        return out

    @property
    def max_in_flight(self) -> int:
        return 4096


class RemoteTranslationProvider:
    """HTTP JSON translation service client.

    POSTs ``{"texts": [...], "source": ..., "target": ...}`` and expects
    ``{"translations": [...]}`` with one string per input. Transport and
    shape errors degrade to per-item FAILED/identity outcomes after retries
    with exponential backoff. The HTTP POST callable, sleep and clock are
    injectable for tests.
    """

    name = "remote"

    def __init__(
        self,
        url: str,
        source_lang: Optional[str] = None,
        target_lang: str = "en",
        batch_size: int = 64,
        rate_limit_per_s: Optional[float] = None,
        timeout_ms: int = 10000,
        max_retries: int = 3,
        backoff_base_s: float = 0.5,
        post: Optional[Callable] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        if batch_size < 1:
            raise TranslationError("batch_size must be at least 1")
        if rate_limit_per_s is not None and not 0 < rate_limit_per_s < math.inf:
            raise TranslationError(
                f"rate limit must be finite and positive, got {rate_limit_per_s}")
        if not 0 < timeout_ms < math.inf:
            raise TranslationError(f"timeout_ms must be finite and positive, got {timeout_ms}")
        self.url = url
        self.source_lang = source_lang
        self.target_lang = target_lang
        self.batch_size = batch_size
        self.rate_limit_per_s = rate_limit_per_s
        self.timeout_ms = timeout_ms
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self._sleep = sleep
        self._clock = clock
        self._last_request_at: Optional[float] = None
        if post is None:
            import requests

            def post(url, json, timeout):
                resp = requests.post(url, json=json, timeout=timeout)
                resp.raise_for_status()
                return resp.json()

        self._post = post

    @property
    def max_in_flight(self) -> int:
        return self.batch_size

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

    def _request(self, texts: Sequence[str]) -> Optional[list[str]]:
        payload = {"texts": list(texts), "source": self.source_lang, "target": self.target_lang}
        for attempt in range(self.max_retries + 1):
            self._throttle()
            try:
                body = self._post(self.url, json=payload, timeout=self.timeout_ms / 1000.0)
                translations = body["translations"]
                if not isinstance(translations, list) or len(translations) != len(texts):
                    raise TranslationError("response shape mismatch")
                return [str(t) for t in translations]
            except Exception:
                if attempt < self.max_retries:
                    self._sleep(self.backoff_base_s * (2 ** attempt))
        return None

    def translate_batch(self, texts: Sequence[str]) -> list[TranslationOutcome]:
        out: list[TranslationOutcome] = []
        for start in range(0, len(texts), self.batch_size):
            chunk = list(texts[start : start + self.batch_size])
            translations = self._request(chunk)
            if translations is None:
                out.extend(TranslationOutcome(TranslationStatus.FAILED, t) for t in chunk)
                continue
            for token, text in zip(chunk, translations):
                if text:
                    out.append(TranslationOutcome(TranslationStatus.TRANSLATED, text))
                else:
                    out.append(TranslationOutcome(TranslationStatus.FAILED, token))
        return out

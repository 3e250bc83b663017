import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warmstart.translate import (
    CacheFormatError,
    CachePersistenceError,
    DictionaryProvider,
    IdentityProvider,
    RemoteTranslationProvider,
    TranslationError,
    TranslationOutcome,
    TranslationStatus,
    TranslationTable,
    lookup_or_fetch,
    needs_translation,
    normalize_token,
    translate_all,
)


class CountingProvider:
    """Dictionary provider that counts translate_batch calls."""

    name = "counting"
    batch_size = 8

    def __init__(self, mapping):
        self.mapping = mapping
        self.calls = 0
        self.seen = []

    def translate_batch(self, texts):
        self.calls += 1
        self.seen.extend(texts)
        return [self.mapping.get(t) for t in texts]


class TestNormalize:
    def test_marker_strip(self):
        assert normalize_token("▁doktor") == "doktor"

    def test_case_preserved(self):
        assert normalize_token("▁Yndling") == "Yndling"

    def test_no_marker(self):
        assert normalize_token("tor") == "tor"

    def test_only_first_marker(self):
        assert normalize_token("▁▁x") == "▁x"


class TestNeedsTranslation:
    def test_digits(self):
        assert needs_translation("2022") is False

    def test_word(self):
        assert needs_translation("doktor") is True

    def test_punctuation(self):
        assert needs_translation("...") is False

    def test_empty(self):
        assert needs_translation("") is False

    def test_mixed_word_wins(self):
        assert needs_translation("a1") is True

    def test_marker_only(self):
        assert needs_translation("▁") is False


class TestLookupOrFetch:
    def test_dictionary_hit(self):
        table = TranslationTable()
        provider = DictionaryProvider({"doktor": "doctor"})
        out = lookup_or_fetch(table, provider, "▁doktor")
        assert out == TranslationOutcome(TranslationStatus.TRANSLATED, "doctor")

    def test_dictionary_miss_is_identity_failure(self):
        table = TranslationTable()
        provider = DictionaryProvider({})
        out = lookup_or_fetch(table, provider, "▁Aarhus")
        assert out == TranslationOutcome(TranslationStatus.FAILED, "Aarhus")

    def test_identity_provider(self):
        table = TranslationTable()
        out = lookup_or_fetch(table, IdentityProvider(), "▁go")
        assert out == TranslationOutcome(TranslationStatus.FAILED, "go")

    def test_cache_hit_skips_provider(self):
        table = TranslationTable()
        provider = CountingProvider({"doktor": "doctor"})
        lookup_or_fetch(table, provider, "▁doktor")
        lookup_or_fetch(table, provider, "▁doktor")
        assert provider.calls == 1

    def test_bypass_never_contacts_provider(self):
        table = TranslationTable()
        provider = CountingProvider({})
        out = lookup_or_fetch(table, provider, "▁2022")
        assert out == TranslationOutcome(TranslationStatus.FAILED, "2022")
        assert provider.calls == 0

    def test_retry_failed_requeries(self):
        table = TranslationTable()
        empty = CountingProvider({})
        lookup_or_fetch(table, empty, "▁doktor")
        better = CountingProvider({"doktor": "doctor"})
        out = lookup_or_fetch(table, better, "▁doktor", retry_failed=True)
        assert out.ok and out.text == "doctor"

    def test_provider_exception_degrades_to_identity(self):
        class Boom:
            name = "boom"
            batch_size = 1

            def translate_batch(self, texts):
                raise RuntimeError("down")

        table = TranslationTable()
        out = lookup_or_fetch(table, Boom(), "▁doktor")
        assert out == TranslationOutcome(TranslationStatus.FAILED, "doktor")
        # and the failure is cached
        assert table.get("doktor") == out

    def test_concurrent_misses_fetch_once(self):
        table = TranslationTable()
        provider = CountingProvider({"doktor": "doctor"})
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            results.append(lookup_or_fetch(table, provider, "▁doktor"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert provider.calls == 1
        assert all(r.text == "doctor" for r in results)


class TestTranslateAll:
    def test_result_of_the_wrong_length_degrades_to_identity(self):
        class Short:
            name = "short"
            batch_size = 2

            def translate_batch(self, texts):
                return ["x"]

        table = TranslationTable()
        translate_all(table, Short(), ["▁doktor", "▁hus"])
        assert table.items() == [
            ("doktor", TranslationOutcome(TranslationStatus.FAILED, "doktor")),
            ("hus", TranslationOutcome(TranslationStatus.FAILED, "hus")),
        ]

    def test_dedupes_normalized_tokens(self):
        table = TranslationTable()
        provider = CountingProvider({"go": "go!"})
        translate_all(table, provider, ["▁go", "go", "▁go"])
        assert provider.seen == ["go"]

    def test_batches_by_batch_size(self):
        table = TranslationTable()
        provider = CountingProvider({})
        tokens = [f"word{i}" for i in range(20)]
        translate_all(table, provider, tokens)
        assert provider.calls == 3  # 8 + 8 + 4

    def test_covers_everything(self):
        table = TranslationTable()
        provider = CountingProvider({"doktor": "doctor"})
        tokens = ["▁doktor", "▁2022", "▁Aarhus"]
        translate_all(table, provider, tokens)
        assert table.get("doktor").ok
        assert not table.get("2022").ok
        assert not table.get("Aarhus").ok

    def test_bypasses_are_persisted_in_one_write(self, tmp_path, monkeypatch):
        calls = []
        insert_many = TranslationTable.insert_many

        def counted(table, outcomes):
            calls.append(len(outcomes))
            insert_many(table, outcomes)

        monkeypatch.setattr(TranslationTable, "insert_many", counted)
        cache = tmp_path / "cache.tsv"
        table = TranslationTable(persist_path=cache)
        tokens = [t for i in range(500) for t in (f"▁{i}", f"▁word{i}")]
        translate_all(table, IdentityProvider(), tokens)
        assert calls == [500, 500]  # the bypasses, then one fetch batch
        assert [t for t, _ in table.items()][:2] == ["0", "1"]  # bypasses first, as before
        fresh = tmp_path / "fresh.tsv"
        table.save(fresh)
        assert cache.read_bytes() == fresh.read_bytes()
        # Retrying replaces every bypass: still one write, canonical file.
        calls.clear()
        translate_all(table, IdentityProvider(), tokens, retry_failed=True)
        assert calls == [500, 500]
        table.save(fresh)
        assert cache.read_bytes() == fresh.read_bytes()


class TestCacheFile:
    def test_round_trip_identical_bytes(self, tmp_path):
        table = TranslationTable()
        table.insert("doktor", TranslationOutcome(TranslationStatus.TRANSLATED, "doctor"))
        table.insert("Aarhus", TranslationOutcome(TranslationStatus.FAILED, "Aarhus"))
        table.insert("odd\ttoken", TranslationOutcome(TranslationStatus.TRANSLATED, "a\nb\\c\rd"))
        path = tmp_path / "cache.tsv"
        table.save(path)
        first = path.read_bytes()
        reloaded = TranslationTable.load(path)
        assert reloaded.items() == table.items()
        path2 = tmp_path / "cache2.tsv"
        reloaded.save(path2)
        assert path2.read_bytes() == first

    def test_persist_appends_on_insert(self, tmp_path):
        path = tmp_path / "cache.tsv"
        table = TranslationTable(persist_path=path)
        table.insert("go", TranslationOutcome(TranslationStatus.FAILED, "go"))
        table.insert("doktor", TranslationOutcome(TranslationStatus.TRANSLATED, "doctor"))
        reloaded = TranslationTable.load(path)
        assert len(reloaded) == 2
        assert reloaded.get("doktor").text == "doctor"

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("onlyonefield\n", encoding="utf-8")
        with pytest.raises(CacheFormatError):
            TranslationTable.load(path)

    def test_unknown_status_rejected(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("tok\tMAYBE\ttext\n", encoding="utf-8")
        with pytest.raises(CacheFormatError):
            TranslationTable.load(path)

    @pytest.mark.parametrize("field, message", [
        ("bad\\q", "unknown escape sequence \\q"),
        ("bad\\", "dangling escape at end of field"),
    ])
    def test_bad_escape_messages(self, tmp_path, field, message):
        path = tmp_path / "cache.tsv"
        path.write_text(f"tok\tOK\t{field}\n", encoding="utf-8")
        with pytest.raises(CacheFormatError) as exc:
            TranslationTable.load(path)
        assert str(exc.value) == f"{path}:1: {message}"

    def test_crlf_line_endings_rejected(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_bytes(b"hus\tOK\thouse\r\nbil\tOK\tcar\r\n")
        with pytest.raises(CacheFormatError) as exc:
            TranslationTable.load(path)
        assert str(exc.value) == f"{path}:1: raw carriage return (CRLF line endings?)"

    def test_bad_escape_rejected(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("tok\tOK\tbad\\q\n", encoding="utf-8")
        with pytest.raises(CacheFormatError):
            TranslationTable.load(path)


@settings(max_examples=200)
@given(
    entries=st.lists(
        st.tuples(
            st.text(min_size=1, max_size=12),
            st.booleans(),
            st.text(max_size=12),
        ),
        max_size=20,
    )
)
def test_cache_round_trip_property(entries, tmp_path_factory):
    table = TranslationTable()
    for token, ok, text in entries:
        status = TranslationStatus.TRANSLATED if ok else TranslationStatus.FAILED
        table.insert(token, TranslationOutcome(status, text))
    path = tmp_path_factory.mktemp("cache") / "c.tsv"
    table.save(path)
    first = path.read_bytes()
    reloaded = TranslationTable.load(path)
    reloaded.save(path)
    assert path.read_bytes() == first
    assert reloaded.items() == table.items()


def _remote(post, **kw):
    """A remote provider on `post`; the fixed class settings (`batch_size`,
    `max_retries`, `backoff_base_s`) given here are set on the instance."""
    fixed = {k: kw.pop(k) for k in ("batch_size", "max_retries", "backoff_base_s") if k in kw}
    provider = RemoteTranslationProvider("http://svc/translate", post=post, **kw)
    vars(provider).update(fixed)
    return provider


def _outcomes(provider, texts):
    """The outcomes translate_all records for `texts` on a fresh table."""
    table = TranslationTable()
    translate_all(table, provider, texts)
    return [table.get(t) for t in texts]


class TestRemoteProvider:
    def _provider(self, post, **kw):
        sleeps = []
        kw.setdefault("sleep", sleeps.append)
        kw.setdefault("clock", lambda: 0.0)
        return _remote(post, **kw), sleeps

    def test_happy_path(self):
        def post(url, json, timeout):
            return {"translations": [t.upper() for t in json["texts"]]}

        p, _ = self._provider(post)
        out = _outcomes(p, ["doktor", "go"])
        assert [o.text for o in out] == ["DOKTOR", "GO"]
        assert all(o.ok for o in out)

    def test_empty_translation_fails_to_identity(self):
        def post(url, json, timeout):
            return {"translations": ["" for _ in json["texts"]]}

        p, _ = self._provider(post)
        out = _outcomes(p, ["doktor"])
        assert out[0] == TranslationOutcome(TranslationStatus.FAILED, "doktor")

    def test_retries_then_degrades(self):
        calls = []

        def post(url, json, timeout):
            calls.append(1)
            raise IOError("connection refused")

        p, sleeps = self._provider(post, max_retries=2, backoff_base_s=0.5)
        out = _outcomes(p, ["doktor"])
        assert out[0].status is TranslationStatus.FAILED
        assert len(calls) == 3
        assert sleeps == [0.5, 1.0]  # exponential backoff

    def test_shape_mismatch_degrades(self):
        def post(url, json, timeout):
            return {"translations": ["only one"]}

        p, _ = self._provider(post, max_retries=0)
        out = _outcomes(p, ["a", "b"])
        assert all(not o.ok for o in out)

    def test_rate_limit_throttles(self):
        now = [0.0]
        waits = []

        def clock():
            return now[0]

        def sleep(dt):
            waits.append(dt)
            now[0] += dt

        def post(url, json, timeout):
            return {"translations": json["texts"]}

        p = _remote(post, sleep=sleep, clock=clock, rate_limit_per_s=2.0, batch_size=1)
        translate_all(TranslationTable(), p, ["a", "b"])
        assert waits == [pytest.approx(0.5)]

    def test_batch_size_respected(self):
        sizes = []

        def post(url, json, timeout):
            sizes.append(len(json["texts"]))
            return {"translations": json["texts"]}

        p, _ = self._provider(post, batch_size=3)
        translate_all(TranslationTable(), p, [f"w{i}" for i in range(7)])
        assert sizes == [3, 3, 1]

    def test_non_string_items_are_no_translation(self):
        def post(url, json, timeout):
            return {"translations": [None, 7, "house"]}

        p, _ = self._provider(post)
        assert _outcomes(p, ["bil", "syv", "hus"]) == [
            TranslationOutcome(TranslationStatus.FAILED, "bil"),
            TranslationOutcome(TranslationStatus.FAILED, "syv"),
            TranslationOutcome(TranslationStatus.TRANSLATED, "house"),
        ]

    def test_fixed_settings(self):
        p = RemoteTranslationProvider("http://svc", post=lambda url, json, timeout: {})
        assert (p.batch_size, p.max_retries, p.backoff_base_s) == (64, 3, 0.5)

    @pytest.mark.parametrize("kw", [
        {"timeout_ms": 0}, {"timeout_ms": -5}, {"timeout_ms": float("nan")},
        {"rate_limit_per_s": float("nan")}, {"rate_limit_per_s": float("inf")},
        {"rate_limit_per_s": 0.0},
    ])
    def test_bad_timeout_or_rate_limit_rejected_before_any_request(self, kw):
        calls = []

        def post(url, json, timeout):
            calls.append(timeout)
            return {"translations": json["texts"]}

        with pytest.raises(TranslationError) as exc:
            self._provider(post, **kw)[0].translate_batch(["doktor"])
        assert "must be finite and positive" in str(exc.value)
        assert calls == []

    def test_payload_carries_languages(self):
        payloads = []

        def post(url, json, timeout):
            payloads.append(json)
            return {"translations": json["texts"]}

        p, _ = self._provider(post, source_lang="da", target_lang="en")
        p.translate_batch(["hej"])
        assert payloads[0]["source"] == "da"
        assert payloads[0]["target"] == "en"


class _Fixed:
    """A provider whose every batch gets `result(texts)`."""

    name = "fixed"
    batch_size = 8

    def __init__(self, result):
        self.result = result

    def translate_batch(self, texts):
        return self.result(texts)


def _driven(provider_for):
    """What translate_all records for "hus" with the provider `provider_for(tmp_path)`."""
    def run(tmp_path):
        table = TranslationTable()
        translate_all(table, provider_for(tmp_path), ["▁hus"])
        return table.get("hus")
    return run


def _fixed(result):
    return _driven(lambda _: _Fixed(result))


def _raise(texts):
    raise RuntimeError("down")


def _down(url, json, timeout):
    raise IOError("connection refused")


def _dict_file(tmp_path):
    path = tmp_path / "dict.tsv"
    path.write_text("hus\t\nbil\tcar\n", encoding="utf-8")
    return DictionaryProvider.from_file(path)


@pytest.mark.parametrize("outcome_for_hus", [
    pytest.param(_driven(lambda _: IdentityProvider()), id="identity"),
    pytest.param(_driven(lambda _: DictionaryProvider({})), id="dict-miss"),
    pytest.param(_driven(_dict_file), id="dict-empty-column"),
    pytest.param(_driven(lambda _: _remote(_down, max_retries=1, sleep=lambda s: None)),
                 id="remote-chunk-failed"),
    pytest.param(_driven(lambda _: _remote(lambda url, json, timeout: {"translations": [""]})),
                 id="remote-empty"),
    pytest.param(_fixed(_raise), id="drive-raises"),
    pytest.param(_fixed(lambda texts: []), id="drive-wrong-length"),
    pytest.param(_fixed(lambda texts: [""]), id="drive-ok-empty"),
])
def test_no_usable_translation_is_failed_with_the_tokens_own_text(outcome_for_hus, tmp_path):
    assert outcome_for_hus(tmp_path) == TranslationOutcome(TranslationStatus.FAILED, "hus")


def test_retry_batch_mixing_a_replacement_with_new_tokens_saves_canonically(tmp_path):
    cache = tmp_path / "cache.tsv"
    table = TranslationTable(persist_path=cache)
    translate_all(table, CountingProvider({"hus": "house"}), ["doktor", "hus"])
    provider = CountingProvider({"doktor": "doctor", "bil": "car"})
    translate_all(table, provider, ["bil", "doktor", "vej"], retry_failed=True)
    assert provider.seen == ["bil", "doktor", "vej"]  # one batch, doktor replaced
    fresh = tmp_path / "fresh.tsv"
    table.save(fresh)
    assert cache.read_bytes() == fresh.read_bytes()
    assert TranslationTable.load(cache).items() == table.items()


def test_persistence_failure_carries_the_unwritten_outcomes(tmp_path):
    table = TranslationTable(persist_path=tmp_path / "missing" / "cache.tsv")
    outcomes = {
        "doktor": TranslationOutcome(TranslationStatus.TRANSLATED, "doctor"),
        "hus": TranslationOutcome(TranslationStatus.FAILED, "hus"),
    }
    with pytest.raises(CachePersistenceError) as exc:
        table.insert_many(outcomes)
    assert exc.value.undelivered == outcomes


def test_torn_last_cache_line_is_dropped_and_rewritten_away(tmp_path):
    cache = tmp_path / "cache.tsv"
    cache.write_bytes(b"hus\tOK\thouse\ndokumentet\tOK\tthe docu")
    table = TranslationTable.load(cache, persist=True)
    assert table.items() == [("hus", TranslationOutcome(TranslationStatus.TRANSLATED, "house"))]
    translate_all(table, CountingProvider({"bil": "car"}), ["bil"])
    assert cache.read_bytes() == b"hus\tOK\thouse\nbil\tOK\tcar\n"
    table.insert("vej", TranslationOutcome(TranslationStatus.FAILED, "vej"))
    assert cache.read_bytes().endswith(b"bil\tOK\tcar\nvej\tFAIL\tvej\n")
    assert TranslationTable.load(cache).items() == table.items()


def test_failed_rewrite_leaves_the_cache_unchanged(tmp_path, monkeypatch):
    import warmstart.translate as translate

    cache = tmp_path / "cache.tsv"
    table = TranslationTable(persist_path=cache)
    translate_all(table, CountingProvider({}), ["bil", "doktor", "hus", "vej"])
    before = cache.read_bytes()
    calls = []

    def format_line(token, outcome):
        calls.append(token)
        if len(calls) == 3:
            raise OSError(28, "No space left on device")
        return real_format_line(token, outcome)

    real_format_line = translate._format_line
    monkeypatch.setattr(translate, "_format_line", format_line)
    with pytest.raises(CachePersistenceError) as exc:
        translate_all(table, CountingProvider({"doktor": "doctor", "hus": "house"}),
                      ["bil", "doktor", "hus", "vej"], retry_failed=True)
    assert set(exc.value.undelivered) == {"bil", "doktor", "hus", "vej"}
    assert exc.value.undelivered["doktor"].text == "doctor"
    assert cache.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.tsv"]

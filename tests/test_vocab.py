import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import warmstart.vocab as vocab_mod
from warmstart.vocab import (
    DuplicateTokenError,
    Vocabulary,
    VocabularyError,
    _scan,
    detokenize,
    load_vocab,
    tokenize_greedy,
)

from conftest import TOY_TOKENS, write_vocab_file


class TestVocabulary:
    def test_sentinels_descend_from_top(self):
        v = Vocabulary([f"t{i}" for i in range(10)], sentinel_count=2)
        assert v.sentinel_id(0) == 9
        assert v.sentinel_id(1) == 8
        with pytest.raises(VocabularyError):
            v.sentinel_id(2)

    def test_duplicate_token_rejected(self):
        with pytest.raises(DuplicateTokenError):
            Vocabulary(["<pad>", "</s>", "<unk>", "▁go", "▁go"], sentinel_count=0)

    def test_too_small_for_specials(self):
        with pytest.raises(VocabularyError):
            Vocabulary(["a", "b"], sentinel_count=0)
        with pytest.raises(VocabularyError):
            Vocabulary(["a", "b", "c", "d"], sentinel_count=2)

    def test_special_ids_must_be_distinct(self):
        with pytest.raises(VocabularyError):
            Vocabulary(["a", "b", "c", "d"], pad_id=0, eos_id=0, unk_id=2, sentinel_count=0)

    def test_specials_cannot_sit_in_sentinel_block(self):
        with pytest.raises(VocabularyError):
            Vocabulary([f"t{i}" for i in range(10)], unk_id=9, sentinel_count=2)

    def test_special_ids_includes_sentinels(self):
        v = Vocabulary([f"t{i}" for i in range(10)], sentinel_count=2)
        assert v.special_ids() == frozenset({0, 1, 2, 8, 9})


class TestLoadVocab:
    def test_line_index_is_id(self, tmp_path):
        path = write_vocab_file(tmp_path / "v.txt", TOY_TOKENS)
        v = load_vocab(path, sentinel_count=0)
        assert v.size == 10
        assert v.tokens[7] == "tor"

    def test_sentinel_ids_from_file(self, tmp_path):
        path = write_vocab_file(tmp_path / "v.txt", [f"t{i}" for i in range(10)])
        v = load_vocab(path, sentinel_count=2)
        assert v.sentinel_id(0) == 9 and v.sentinel_id(1) == 8

    def test_score_column_discarded(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("<pad>\n</s>\n<unk>\ntor\t-3.2\n", encoding="utf-8")
        v = load_vocab(path, sentinel_count=0)
        assert v.tokens[3] == "tor"

    @pytest.mark.parametrize(
        "ch", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_newline_ends_a_line(self, tmp_path, ch):
        path = tmp_path / "v.txt"
        path.write_bytes(f"<pad>\n</s>\n<unk>\nx{ch}y\nz\n".encode())
        assert load_vocab(path, sentinel_count=0).tokens == (
            "<pad>", "</s>", "<unk>", f"x{ch}y", "z")

    @pytest.mark.parametrize("final", ["\n", ""])
    def test_crlf_file_loads_like_its_lf_twin(self, tmp_path, final):
        tokens = ["<pad>", "</s>", "<unk>", "", "▁go", "tor\t-3.2"]
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes(("\n".join(tokens) + final).encode())
        crlf.write_bytes(("\r\n".join(tokens) + final.replace("\n", "\r\n")).encode())
        expected = ("<pad>", "</s>", "<unk>", "", "▁go", "tor")
        assert load_vocab(lf, sentinel_count=0).tokens == expected
        assert load_vocab(crlf, sentinel_count=0).tokens == expected

    def test_duplicate_line_rejected(self, tmp_path):
        path = write_vocab_file(
            tmp_path / "v.txt", ["<pad>", "</s>", "<unk>", "▁go", "▁go"]
        )
        with pytest.raises(DuplicateTokenError):
            load_vocab(path, sentinel_count=0)

    @pytest.mark.parametrize("score", ["", "\t-3.2"])
    def test_duplicate_names_the_first_repeated_pair(self, tmp_path, score):
        # <unk> repeats too, but at a later id than ▁go's repeat.
        path = tmp_path / "v.txt"
        lines = ["<pad>", "</s>", "<unk>", "▁go", "▁go", "<unk>", "▁here", "▁here"]
        path.write_text("".join(f"{line}{score}\n" for line in lines), encoding="utf-8")
        with pytest.raises(DuplicateTokenError) as exc:
            load_vocab(path, sentinel_count=0)
        assert str(exc.value) == "duplicate token '▁go' at ids 3 and 4"


def _reference_tokens(data: bytes) -> list[str]:
    """Line by line: only "\\n" ends a line, a "\\r" right before it is part
    of the ending, and the token is what comes before the line's first tab."""
    tokens = []
    for line in io.StringIO(data.decode("utf-8"), newline="\n"):
        if line.endswith("\n"):
            line = line[:-1].removesuffix("\r")
        tokens.append(line.split("\t", 1)[0])
    return tokens


def _reference_duplicate(tokens: list[str]):
    seen: dict[str, int] = {}
    for i, tok in enumerate(tokens):
        if tok in seen:
            return f"duplicate token {tok!r} at ids {seen[tok]} and {i}"
        seen[tok] = i
    return None


@settings(max_examples=300, deadline=None)
@given(
    tokens=st.lists(st.text(st.sampled_from("ab▁\r\x0b"), max_size=4), min_size=4, max_size=12),
    scored=st.lists(st.booleans(), min_size=12, max_size=12),
    newline=st.sampled_from(["\n", "\r\n"]),
    final=st.booleans(),
    plant=st.one_of(st.none(), st.tuples(st.integers(0, 11), st.integers(0, 12))),
)
def test_load_vocab_matches_a_line_by_line_parse(tokens, scored, newline, final, plant,
                                                tmp_path_factory):
    if plant is not None:  # a copy of one token at another position
        src, dst = plant
        tokens.insert(dst % (len(tokens) + 1), tokens[src % len(tokens)])
    lines = [tok + ("\t-1.5\tx" if score else "") for tok, score in zip(tokens, scored * 2)]
    data = (newline.join(lines) + (newline if final else "")).encode()
    path = tmp_path_factory.mktemp("vocab") / "v.txt"
    path.write_bytes(data)
    expected = _reference_tokens(data)
    duplicate = _reference_duplicate(expected)
    if duplicate is None:
        assert load_vocab(path, sentinel_count=0).tokens == tuple(expected)
    else:
        with pytest.raises(DuplicateTokenError) as exc:
            load_vocab(path, sentinel_count=0)
        assert str(exc.value) == duplicate


class TestTokenizeGreedy:
    def test_multiword(self, toy_vocab):
        assert tokenize_greedy(toy_vocab, "here you go") == [3, 4, 5]

    def test_word_internal_split(self, toy_vocab):
        assert tokenize_greedy(toy_vocab, "doctor") == [6, 7]

    def test_longest_match_wins(self, toy_vocab):
        # "▁document" must beat its prefix "▁doc"
        assert tokenize_greedy(toy_vocab, "the document") == [8, 9]

    def test_empty(self, toy_vocab):
        assert tokenize_greedy(toy_vocab, "") == []

    def test_unknown_scalar(self, toy_vocab):
        assert tokenize_greedy(toy_vocab, "ζ") == [2]

    def test_unknown_advances_one_scalar(self, toy_vocab):
        # both scalars unmatched, marker itself is silent
        assert tokenize_greedy(toy_vocab, "ζζ") == [2, 2]

    def test_bare_piece_reachable_after_marker_skip(self, toy_vocab):
        # no "▁tor" exists; the prepended marker is consumed silently
        assert tokenize_greedy(toy_vocab, "tor") == [7]

    def test_never_emits_reserved_ids(self):
        v = Vocabulary([f"t{i}" for i in range(12)], sentinel_count=2)
        import random

        rng = random.Random(7)
        alphabet = "t0123456789▁ xyζ"
        for _ in range(10_000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
            ids = tokenize_greedy(v, text)
            assert v.pad_id not in ids
            assert v.eos_id not in ids
            assert all(i < v.size - v.sentinel_count for i in ids)

    def test_deterministic(self, toy_vocab):
        text = "the doctor document here"
        assert tokenize_greedy(toy_vocab, text) == tokenize_greedy(toy_vocab, text)


class TestDetokenize:
    def test_inverse_of_greedy(self, toy_vocab):
        assert detokenize(toy_vocab, [3, 4, 5]) == "here you go"

    def test_empty(self, toy_vocab):
        assert detokenize(toy_vocab, []) == ""

    def test_concatenation(self, toy_vocab):
        assert detokenize(toy_vocab, [6, 7]) == "doctor"

    def test_out_of_range(self, toy_vocab):
        with pytest.raises(VocabularyError):
            detokenize(toy_vocab, [99])


# Round trip holds for text built from marker-initial vocabulary words.
_WORDS = ["here", "you", "go", "doc", "the", "document"]


@settings(max_examples=200)
@given(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=8))
def test_round_trip_over_vocab_words(words):
    v = Vocabulary(TOY_TOKENS, sentinel_count=0)
    text = " ".join(words)
    assert detokenize(v, tokenize_greedy(v, text)) == text


def _whole_scan(v, text):
    """The reference: one greedy scan over the whole marked text."""
    if not text:
        return []
    marker = v.boundary_marker
    return _scan(v, marker + text.replace(" ", marker))


def test_tokenizer_state_is_built_once_on_first_tokenize(tmp_path, monkeypatch):
    builds = []
    build = Vocabulary._matcher.func

    def spy(v):
        builds.append(v)
        return build(v)

    monkeypatch.setattr(Vocabulary._matcher, "func", spy)
    v = load_vocab(write_vocab_file(tmp_path / "v.txt", TOY_TOKENS), sentinel_count=0)
    assert "_matcher" not in vars(v) and builds == []
    assert tokenize_greedy(v, "here you go") == [3, 4, 5]
    assert builds == [v]
    assert tokenize_greedy(v, "the doctor") == [8, 6, 7]
    assert builds == [v] and list(v._matcher[2]) == ["here", "you", "go", "the", "doctor"]


class TestWordMemo:
    def test_cross_word_token_is_still_emitted(self):
        # "a▁b" holds the marker past position 0, so it can match across the
        # space; a per-word scan would give "a" then "b".
        v = Vocabulary(["<pad>", "</s>", "<unk>", "a▁b", "a", "b"], sentinel_count=0)
        assert tokenize_greedy(v, "a b") == [3]
        assert tokenize_greedy(v, "a b a b") == [3, 3]
        assert v._matcher[2] is None

    def test_returned_list_is_the_callers_own(self, toy_vocab):
        first = tokenize_greedy(toy_vocab, "here you here")
        first.append(99)
        first[0] = 7
        assert tokenize_greedy(toy_vocab, "here you here") == [3, 4, 3]

    def test_words_past_the_cap_are_scanned_not_stored(self, toy_vocab, monkeypatch):
        monkeypatch.setattr(vocab_mod, "MEMO_MAX_WORDS", 2)
        text = "the doctor document here you go zz doc  tor "
        for _ in range(2):
            assert tokenize_greedy(toy_vocab, text) == _whole_scan(toy_vocab, text)
        assert list(toy_vocab._matcher[2]) == ["the", "doctor"]


_MEMO_ALPHABET = "ab▁"
_tokens = st.text(_MEMO_ALPHABET, min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_tokens, min_size=1, max_size=12, unique=True),
    st.lists(st.text(_MEMO_ALPHABET + " \tζ", max_size=16), min_size=1, max_size=6),
)
def test_memo_matches_one_whole_scan(tokens, texts):
    # Random small vocabularies, some with the marker past position 0;
    # texts with double, leading and trailing spaces, literal markers, tabs
    # and unmatched scalars. Repeating the texts reads them from the memo.
    v = Vocabulary(["<pad>", "</s>", "<unk>"] + tokens, sentinel_count=0)
    for text in texts + texts:
        assert tokenize_greedy(v, text) == _whole_scan(v, text)

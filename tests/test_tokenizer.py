"""Vocabulary induction (hand-run greedy merges), encode/decode, file I/O."""

import pytest

from bertlab import tokenizer as tk
from bertlab.errors import InputError, ValidationError


def test_hand_run_merge_sequence():
    # corpus: aaab x2, aab x1; alphabet {##a, ##b, a}
    # scores count(pair)/(count(l)*count(r)) give merges aa, ##ab, aaab, aab
    vocab = tk.train_vocab(["aaab aaab aab"], size=12)
    assert "aa" in vocab.ids
    assert vocab.tokens == (
        "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]",
        "##a", "##b", "a", "aa", "##ab", "aaab", "aab",
    )


def test_size_below_specials_is_input_error():
    with pytest.raises(InputError):
        tk.train_vocab(["ab"], size=4)


def test_size_below_alphabet_is_input_error():
    with pytest.raises(InputError):
        tk.train_vocab(["abcdefgh"], size=9)  # 5 specials + 8-ish pieces won't fit


def test_empty_corpus_is_input_error():
    with pytest.raises(InputError):
        tk.train_vocab([], size=100)
    with pytest.raises(InputError):
        tk.train_vocab(["", "   "], size=100)


def test_same_corpus_same_fingerprint():
    corpus = ["la casa rossa", "la casa blu", "il gatto rosso"]
    a = tk.train_vocab(corpus, size=40)
    b = tk.train_vocab(corpus, size=40)
    assert a.fingerprint == b.fingerprint
    assert a.tokens == b.tokens


def test_min_freq_filters_rare_words():
    vocab = tk.train_vocab(["aaa aaa zzz"], size=30, min_freq=2)
    assert "##z" not in vocab.ids and "z" not in vocab.ids


def test_vocabulary_invariants():
    vocab = tk.train_vocab(["abc abc ab"], size=16)
    assert sorted(vocab.ids.values()) == list(range(len(vocab)))
    assert len(set(vocab.specials.values())) == 5
    with pytest.raises(ValidationError):
        tk.Vocabulary.from_tokens(list(tk.SPECIAL_TOKENS) + ["a", "a"])
    with pytest.raises(ValidationError):
        tk.Vocabulary.from_tokens(["[PAD]", "[UNK]", "a"])


# -- encode / decode --------------------------------------------------------


@pytest.fixture
def vocab():
    return tk.Vocabulary.from_tokens(
        list(tk.SPECIAL_TOKENS)
        + ["la", "casa", "ross", "##a", "##o", "gatt", "corre", ".", "'", "e"]
    )


def test_empty_text_encodes_empty(vocab):
    seq = tk.encode("", vocab)
    assert seq.ids == () and seq.word_boundaries == ()


def test_unknown_word_is_single_unk(vocab):
    seq = tk.encode("xyz", vocab)
    assert seq.ids == (vocab.unk_id,)


def test_partial_coverage_still_single_unk(vocab):
    # "rossz": prefix "ross" matches but "##z" does not -> whole word UNK
    seq = tk.encode("rossz", vocab)
    assert seq.ids == (vocab.unk_id,)


def test_maximum_munch_prefers_longest_piece(vocab):
    seq = tk.encode("rossa", vocab)
    assert [vocab.tokens[i] for i in seq.ids] == ["ross", "##a"]


def test_round_trip_full_word_sentence(vocab):
    text = "la casa rossa corre"
    assert tk.decode(tk.encode(text, vocab), vocab) == text


def test_round_trip_up_to_whitespace(vocab):
    assert tk.decode(tk.encode("  la   casa  ", vocab), vocab) == "la casa"


def test_punctuation_isolated(vocab):
    seq = tk.encode("casa. e'la", vocab)
    assert [vocab.tokens[i] for i in seq.ids] == ["casa", ".", "e", "'", "la"]


def test_word_boundaries_partition_ids(vocab):
    seq = tk.encode("la rossa gatto.", vocab)
    toks = [vocab.tokens[i] for i in seq.ids]
    assert toks == ["la", "ross", "##a", "gatt", "##o", "."]
    assert seq.word_boundaries == (0, 1, 3, 5)
    # every continuation piece is inside a word started at a boundary
    for i, t in enumerate(toks):
        if t.startswith("##"):
            assert i not in seq.word_boundaries


def test_prefix_stability(vocab):
    a = tk.encode("la casa rossa", vocab)
    ab = tk.encode("la casa rossa e gatto", vocab)
    assert ab.ids[: len(a.ids)] == a.ids
    assert ab.word_boundaries[: len(a.word_boundaries)] == a.word_boundaries


def test_nfc_normalization_unifies_diacritics():
    vocab = tk.Vocabulary.from_tokens(list(tk.SPECIAL_TOKENS) + ["perché"])
    composed = "perché"          # precomposed e-acute
    decomposed = "perché"       # e + combining acute
    assert tk.encode(composed, vocab).ids == tk.encode(decomposed, vocab).ids != (vocab.unk_id,)


def test_lowercase_flag_applies_at_encode_time():
    cased = tk.Vocabulary.from_tokens(list(tk.SPECIAL_TOKENS) + ["casa"], lowercase=False)
    lower = tk.Vocabulary.from_tokens(list(tk.SPECIAL_TOKENS) + ["casa"], lowercase=True)
    assert tk.encode("Casa", cased).ids == (cased.unk_id,)
    assert tk.encode("Casa", lower).ids == (lower.ids["casa"],)


# -- file format ------------------------------------------------------------


def test_save_load_round_trip(tmp_path, vocab):
    path = tmp_path / "vocab.txt"
    tk.save_vocab(vocab, path)
    loaded = tk.load_vocab(path)
    assert loaded.tokens == vocab.tokens
    assert loaded.fingerprint == vocab.fingerprint
    assert loaded.specials == vocab.specials
    # one token per line, line index = id
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[vocab.ids["casa"]] == "casa"


def test_sidecar_records_casing_and_pretokenizer(tmp_path):
    vocab = tk.train_vocab(["Aa aa"], size=10, lowercase=True)
    path = tmp_path / "v.txt"
    tk.save_vocab(vocab, path)
    meta = (tmp_path / "v.txt.meta").read_text(encoding="utf-8")
    assert '"lowercase": true' in meta
    assert tk.PRETOKENIZER in meta
    assert tk.load_vocab(path).lowercase is True


def test_load_without_sidecar(tmp_path, vocab):
    path = tmp_path / "bare.txt"
    path.write_text("\n".join(vocab.tokens) + "\n", encoding="utf-8")
    loaded = tk.load_vocab(path)
    assert loaded.tokens == vocab.tokens


def test_load_missing_file_is_input_error(tmp_path):
    with pytest.raises(InputError):
        tk.load_vocab(tmp_path / "absent.txt")


@pytest.mark.parametrize("meta", ["{not json", "[1]"], ids=["not-json", "not-object"])
def test_malformed_sidecar_is_input_error(tmp_path, vocab, meta):
    path = tmp_path / "v.txt"
    tk.save_vocab(vocab, path)
    (tmp_path / "v.txt.meta").write_text(meta, encoding="utf-8")
    with pytest.raises(InputError, match="vocabulary sidecar"):
        tk.load_vocab(path)


def test_vocab_disagreeing_with_sidecar_fingerprint_is_input_error(tmp_path, vocab):
    path = tmp_path / "v.txt"
    tk.save_vocab(vocab, path)
    half = vocab.tokens[: len(vocab) // 2]
    path.write_text("".join(tok + "\n" for tok in half), encoding="utf-8")
    with pytest.raises(InputError, match="v.txt does not match the fingerprint"):
        tk.load_vocab(path)


def test_pretokenize_spans_mirror_pretokenize():
    text = "  Dura-mater, sì!  x"
    spans = tk.pretokenize_spans(text)
    assert [w for w, _, _ in spans] == tk.pretokenize(text)
    for word, start, end in spans:
        assert text[start:end] == word


def test_offsets_partition_each_word(vocab):
    text = "casa cane catena"
    seq, offsets = tk.encode_with_offsets(text, vocab)
    assert seq == tk.encode(text, vocab)
    assert len(offsets) == len(seq.ids)
    rebuilt = "".join(text[s:e] for s, e in offsets)
    assert rebuilt == text.replace(" ", "")
    for (s, e), i in zip(offsets, seq.ids):
        piece = vocab.tokens[i].removeprefix("##")
        if i != vocab.unk_id:
            assert text[s:e] == piece


def test_offsets_unk_word_covers_whole_word(vocab):
    seq, offsets = tk.encode_with_offsets("casa zzz", vocab)
    assert seq.ids[-1] == vocab.unk_id
    start, end = offsets[-1]
    assert "casa zzz"[start:end] == "zzz"

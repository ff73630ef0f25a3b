"""Vocabulary induction (hand-run greedy merges, the heap trainer against the
scan oracle), encode/decode, file I/O."""

import time
import unicodedata
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# -- the heap trainer against the scan it replaced ---------------------------


def word_counts_scan(corpus, lowercase=False):
    """Oracle: the trainer's word count that split every line."""
    word_freq = Counter()
    for line in corpus:
        word_freq.update(tk.pretokenize(tk.normalize(line, lowercase)))
    return word_freq


def train_vocab_scan(corpus, size, min_freq=1, lowercase=False):
    """Oracle: the trainer that rescans every live pair for the best merge.
    Slow (merges x pairs) but plainly the definition of the merge order."""
    word_freq = word_counts_scan(corpus, lowercase)
    words = [(list(tk._word_pieces(w)), f) for w, f in word_freq.items() if f >= min_freq]
    if not words:
        raise InputError("vocabulary training corpus is empty")

    alphabet = sorted({p for pieces, _ in words for p in pieces})
    if size < len(tk.SPECIAL_TOKENS) + len(alphabet):
        raise InputError("vocabulary size too small")
    tokens = list(tk.SPECIAL_TOKENS) + alphabet

    pair_counts = Counter()
    token_counts = Counter()
    first_seen = {}
    holders = {}
    serial = 0

    def scan_word(idx, sign):
        nonlocal serial
        pieces, freq = words[idx]
        for p in pieces:
            token_counts[p] += sign * freq
        for pair in zip(pieces, pieces[1:]):
            pair_counts[pair] += sign * freq
            if sign > 0:
                if pair not in first_seen:
                    first_seen[pair] = serial
                    serial += 1
                holders.setdefault(pair, set()).add(idx)

    for idx in range(len(words)):
        scan_word(idx, +1)

    while len(tokens) < size:
        live = [(p, c) for p, c in pair_counts.items() if c > 0]
        if not live:
            break
        best = max(
            live,
            key=lambda pc: (
                pc[1] / (token_counts[pc[0][0]] * token_counts[pc[0][1]]),
                pc[1],
                -first_seen[pc[0]],
            ),
        )[0]
        merged = tk._merge_spelling(*best)
        tokens.append(merged)
        for idx in sorted(holders.get(best, ())):
            scan_word(idx, -1)
            pieces = words[idx][0]
            rebuilt = []
            i = 0
            while i < len(pieces):
                if i + 1 < len(pieces) and (pieces[i], pieces[i + 1]) == best:
                    rebuilt.append(merged)
                    i += 2
                else:
                    rebuilt.append(pieces[i])
                    i += 1
            words[idx] = (rebuilt, words[idx][1])
            scan_word(idx, +1)
        for pair in [p for p, c in pair_counts.items() if c <= 0]:
            del pair_counts[pair]
            holders.pop(pair, None)

    return tk.Vocabulary.from_tokens(tokens, lowercase=lowercase)


# a few word shapes over two or three letters, so words repeat and many pairs
# tie on score and count; "A" only differs from "a" without lowercasing
_WORD = st.text(alphabet="aAb.", min_size=1, max_size=6) | st.sampled_from(["ab", "ba", "aab"])


@st.composite
def training_runs(draw):
    lines = draw(st.lists(st.lists(_WORD, max_size=5).map(" ".join), min_size=1, max_size=6))
    min_freq = draw(st.integers(1, 3))
    lowercase = draw(st.booleans())
    word_freq = Counter(w for line in lines for w in tk.pretokenize(tk.normalize(line, lowercase)))
    alphabet = {p for w, f in word_freq.items() if f >= min_freq for p in tk._word_pieces(w)}
    # from the smallest legal size to well past the point where no pair is left
    size = len(tk.SPECIAL_TOKENS) + len(alphabet) + draw(st.integers(0, 40))
    return lines, size, min_freq, lowercase


@settings(derandomize=True, max_examples=400, deadline=None)
@given(run=training_runs())
def test_heap_trainer_matches_scan_oracle(run):
    lines, size, min_freq, lowercase = run
    try:
        expected = train_vocab_scan(lines, size, min_freq, lowercase)
    except InputError:
        with pytest.raises(InputError):
            tk.train_vocab(lines, size, min_freq, lowercase)
        return
    got = tk.train_vocab(lines, size, min_freq, lowercase)
    assert got.tokens == expected.tokens
    assert got.lowercase == expected.lowercase


def test_training_stops_when_no_pair_is_left():
    # "ab ab b": one pair, so one merge, however large the size
    for trainer in (tk.train_vocab, train_vocab_scan):
        vocab = trainer(["ab ab b"], size=50)
        assert vocab.tokens[5:] == ("##b", "a", "b", "ab")


def _pair_keys(segmented, serial):
    """(score, count, -first_seen) of every pair in [(pieces, freq), ...]."""
    pairs, singles = Counter(), Counter()
    for pieces, freq in segmented:
        for p in pieces:
            singles[p] += freq
        for pair in zip(pieces, pieces[1:]):
            pairs[pair] += freq
            serial.setdefault(pair, len(serial))
    return {pair: (c / (singles[pair[0]] * singles[pair[1]]), c, -serial[pair])
            for pair, c in pairs.items()}


def test_score_that_rises_after_a_merge_wins_the_next_merge():
    # aaaa ac: merge 1 is (a, ##c), 1/(2*1); it halves count(a), so
    # (a, ##a) rises from 1/(2*3) to 1/(1*3) and overtakes (##a, ##a) at 2/9,
    # although the count of (a, ##a) itself never changed
    vocab = tk.train_vocab(["aaaa ac"], size=10)
    assert vocab.tokens == tuple(tk.SPECIAL_TOKENS) + ("##a", "##c", "a", "ac", "aa")
    assert vocab.tokens == train_vocab_scan(["aaaa ac"], size=10).tokens

    serial = {}
    before = _pair_keys([(["a", "##a", "##a", "##a"], 1), (["a", "##c"], 1)], serial)
    after = _pair_keys([(["a", "##a", "##a", "##a"], 1), (["ac"], 1)], serial)
    assert max(before, key=before.get) == ("a", "##c")
    assert max(after, key=after.get) == ("a", "##a")
    # a heap that re-pushed only the pairs whose own count changed would still
    # hold (a, ##a) at its old score and pop (##a, ##a) instead
    unrefreshed = {p: before[p] if p in before and before[p][1] == k[1] else k
                   for p, k in after.items()}
    assert max(unrefreshed, key=unrefreshed.get) == ("##a", "##a")


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
    text = "  Dura-mater, sì!  x\x1cy\u3000z\u2028"
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


# -- segmentation and the chunk cache against the encoder they replaced ------


def munch_scan(word, vocab):
    """Oracle: longest match first, each search from the end of the word.
    Cubic in the word's length, but plainly the definition."""
    pieces = []
    start = 0
    while start < len(word):
        end = len(word)
        while end > start:
            sub = ("##" if start else "") + word[start:end]
            if sub in vocab.ids:
                break
            end -= 1
        if end == start:
            return None
        pieces.append(sub)
        start = end
    return pieces


def encode_scan(text, vocab):
    """Oracle: encode_with_offsets word by word over the whole normalized
    text, with words split by a character scan."""
    norm = tk.normalize(text, vocab.lowercase)
    words, start = [], None
    for k, ch in enumerate(norm):
        split = ch.isspace() or unicodedata.category(ch)[0] in "PS"
        if split and start is not None:
            words.append((start, k))
            start = None
        if split and not ch.isspace():
            words.append((k, k + 1))
        elif not split and start is None:
            start = k
    if start is not None:
        words.append((start, len(norm)))
    ids, boundaries, offsets = [], [], []
    for start, end in words:
        boundaries.append(len(ids))
        pieces = munch_scan(norm[start:end], vocab)
        if pieces is None:
            ids.append(vocab.unk_id)
            offsets.append((start, end))
            continue
        for p in pieces:
            length = len(p.removeprefix("##"))
            ids.append(vocab.ids[p])
            offsets.append((start, start + length))
            start += length
    return tk.TokenSequence(ids=tuple(ids), word_boundaries=tuple(boundaries)), tuple(offsets)


@st.composite
def piece_vocabularies(draw):
    """Vocabularies over "ab", with tokens longer than the specials at times."""
    pieces = draw(st.lists(st.text(alphabet="ab", min_size=1, max_size=9), max_size=12))
    tokens = {("##" if cont else "") + p
              for p, cont in zip(pieces, draw(st.lists(st.booleans(), min_size=len(pieces),
                                                       max_size=len(pieces))))}
    return tk.Vocabulary.from_tokens(list(tk.SPECIAL_TOKENS) + sorted(tokens))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(vocab=piece_vocabularies(), word=st.text(alphabet="abc", min_size=1, max_size=24))
def test_munch_matches_the_scan_oracle(vocab, word):
    assert vocab.longest == max(len(t) for t in vocab.tokens)
    assert tk._munch(word, vocab) == munch_scan(word, vocab)


def test_a_long_word_encodes_in_linear_time():
    vocab = tk.Vocabulary.from_tokens(list(tk.SPECIAL_TOKENS) + ["al", "##al", "##a"])
    started = time.process_time()
    covered = tk.encode("al" * 50_000, vocab)
    uncovered = tk.encode("q" * 100_000, vocab)
    assert time.process_time() - started < 1.0   # the scan took hours on the first
    assert covered.ids == (vocab.ids["al"],) + (vocab.ids["##al"],) * 49_999
    assert uncovered.ids == (vocab.unk_id,)


# letters (one composes with the combining acute, some only match lowercased),
# an uncovered letter, punctuation and symbols inside chunks, and every
# separator str.split honours
_LETTERS = "lacsoreLAC\u00c9z\u0301.,'!-+\u00a9$"
_SEPARATORS = "".join(ch for ch in map(chr, range(0x3001)) if ch.isspace())
_ENCODE_TOKENS = list(tk.SPECIAL_TOKENS) + [
    "la", "casa", "ross", "##a", "##o", "##s", "c", "\u00e9", "##\u00e9", "r\u00e9", ".", "'",
    "+", "L", "La"]


@st.composite
def texts_with_repeats(draw):
    """Texts drawn partly from a small pool of chunks, so chunks repeat within
    and across texts, and partly free."""
    pool = draw(st.lists(st.text(alphabet=_LETTERS, min_size=1, max_size=8),
                         min_size=1, max_size=4))
    separators = st.text(alphabet=_SEPARATORS, min_size=1, max_size=2)
    pooled = st.lists(st.tuples(separators, st.sampled_from(pool)), max_size=6).map(
        lambda parts: "".join(s + c for s, c in parts))
    free = st.text(alphabet=_LETTERS + _SEPARATORS, max_size=16)
    return draw(st.lists(pooled | free, max_size=6))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(texts=texts_with_repeats(), lowercase=st.booleans())
def test_encode_all_matches_encode_with_offsets_and_the_scan_oracle(texts, lowercase):
    vocab = tk.Vocabulary.from_tokens(_ENCODE_TOKENS, lowercase=lowercase)
    expected = [encode_scan(t, vocab) for t in texts]
    assert tk.encode_all(texts, vocab) == expected
    assert [tk.encode_with_offsets(t, vocab) for t in texts] == expected
    assert tk.encode_all(iter(texts), vocab) == expected


@settings(derandomize=True, max_examples=300, deadline=None)
@given(lines=texts_with_repeats(), lowercase=st.booleans())
def test_word_counts_split_each_distinct_chunk_once_with_the_same_counts_and_order(
        lines, lowercase):
    expected = list(word_counts_scan(lines, lowercase).items())
    split, whole = [], tk._chunk_words
    tk._chunk_words = lambda chunk: split.append(chunk) or whole(chunk)
    try:
        got = list(tk.word_counts(lines, lowercase).items())
    finally:
        tk._chunk_words = whole
    assert got == expected
    assert sorted(split) == sorted(set(split))
    assert set(split) == {c for line in lines for c in tk.normalize(line, lowercase).split()}


def test_encode_all_normalizes_each_text_before_splitting_it():
    vocab = tk.Vocabulary.from_tokens(_ENCODE_TOKENS)
    # after a letter the combining acute composes, so both texts cache the
    # chunk "r\u00e9"; after a separator it starts a word that cannot be covered
    texts = ["re\u0301 r\u00e9", "r\u00e9 la \u0301la", "la\u3000la\x1cla"]
    got = tk.encode_all(texts, vocab)
    assert got == [encode_scan(t, vocab) for t in texts]
    assert got[0] == ((tk.encode("r\u00e9 r\u00e9", vocab)), ((0, 2), (3, 5)))
    assert got[0][0].ids == (vocab.ids["r\u00e9"],) * 2
    assert got[1][0].ids == (vocab.ids["r\u00e9"], vocab.ids["la"], vocab.unk_id)
    assert got[1][1][-1] == (6, 9)
    assert got[2][0].ids == (vocab.ids["la"],) * 3

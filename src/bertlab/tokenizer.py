"""WordPiece vocabulary induction, encoding, and decoding.

Text is NFC-normalized, optionally lowercased (off by default — the base
checkpoints are cased), split on whitespace, and punctuation is isolated
into single-character words before segmentation. Vocabulary training is
greedy pair merging scored by likelihood gain
count(pair) / (count(left) * count(right)); ties break by higher pair
count, then by earliest first appearance. Each merge pops the best pair
from a max-heap, rewrites only the words that hold it, and re-keys only the
live pairs that hold one of its two tokens or the new one: O(w + p log P)
for w pieces in those words, p such pairs and P live pairs, where a scan of
every live pair cost O(P). The vocabulary is the one that scan picks, token
for token. Encoding is longest-match-first with "##" continuation pieces and
whole-word [UNK] fallback; the search at each position starts at the
longest token's length, so a word costs time linear in its length.
`encode_all` encodes many texts and segments each distinct whitespace
chunk once per call.
"""

import hashlib
import heapq
import json
import os
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field

from .errors import InputError, ValidationError, read_json, read_text, write_text

SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
PRETOKENIZER = "whitespace+punctuation-isolation"
# \S in a str pattern is the complement of str.isspace, the rule str.split uses
_NON_SPACE = re.compile(r"\S+")


def normalize(text: str, lowercase: bool = False) -> str:
    text = unicodedata.normalize("NFC", text)
    return text.lower() if lowercase else text


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def pretokenize(text: str) -> list:
    """Whitespace words with punctuation/symbol characters split out."""
    return [word for chunk in text.split() for word, _, _ in _chunk_words(chunk)]


@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple
    ids: dict = field(repr=False)
    specials: dict
    fingerprint: str
    lowercase: bool = False
    # characters in the longest token: no longer string can be a piece
    longest: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "longest", max(map(len, self.tokens)))

    @classmethod
    def from_tokens(cls, tokens, lowercase: bool = False) -> "Vocabulary":
        tokens = tuple(tokens)
        ids = {}
        for i, tok in enumerate(tokens):
            if tok in ids:
                raise ValidationError(f"duplicate vocabulary token {tok!r} at ids {ids[tok]} and {i}")
            ids[tok] = i
        missing = [s for s in SPECIAL_TOKENS if s not in ids]
        if missing:
            raise ValidationError(f"vocabulary missing special tokens: {missing}")
        specials = {s: ids[s] for s in SPECIAL_TOKENS}
        return cls(tokens=tokens, ids=ids, specials=specials,
                   fingerprint=fingerprint_tokens(tokens), lowercase=lowercase)

    def __len__(self):
        return len(self.tokens)

    @property
    def pad_id(self):
        return self.specials["[PAD]"]

    @property
    def unk_id(self):
        return self.specials["[UNK]"]

    @property
    def cls_id(self):
        return self.specials["[CLS]"]

    @property
    def sep_id(self):
        return self.specials["[SEP]"]

    @property
    def mask_id(self):
        return self.specials["[MASK]"]

    def special_ids(self):
        return set(self.specials.values())


def fingerprint_tokens(tokens) -> str:
    return hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TokenSequence:
    ids: tuple
    word_boundaries: tuple  # index into ids where each source word starts

    def __len__(self):
        return len(self.ids)


# ---------------------------------------------------------------------------
# vocabulary induction
# ---------------------------------------------------------------------------


def _word_pieces(word: str) -> tuple:
    return tuple(word[0:1] if i == 0 else "##" + ch for i, ch in enumerate(word))


def _merge_spelling(left: str, right: str) -> str:
    # only continuation pieces ever sit in the right slot of a pair
    assert right.startswith("##"), right
    return left + right[2:]


def train_vocab(corpus, size: int, min_freq: int = 1, lowercase: bool = False) -> Vocabulary:
    """Induce a WordPiece vocabulary of at most `size` tokens from an iterable
    of text lines. Words occurring fewer than min_freq times are ignored."""
    word_freq = Counter()
    for line in corpus:
        word_freq.update(pretokenize(normalize(line, lowercase)))
    words = [(list(_word_pieces(w)), f) for w, f in word_freq.items() if f >= min_freq]
    if not words:
        raise InputError("vocabulary training corpus is empty")

    alphabet = sorted({p for pieces, _ in words for p in pieces})
    if size < len(SPECIAL_TOKENS) + len(alphabet):
        raise InputError(
            f"vocabulary size {size} too small: need at least "
            f"{len(SPECIAL_TOKENS)} specials + {len(alphabet)} alphabet pieces")
    tokens = list(SPECIAL_TOKENS) + alphabet

    # pair bookkeeping: counts, first-appearance serials (kept when a pair
    # dies), a superset of the words that hold each live pair, and the live
    # pairs each token sits in
    pair_counts = Counter()
    token_counts = Counter()
    first_seen = {}
    holders = {}
    for idx, (pieces, freq) in enumerate(words):
        for p in pieces:
            token_counts[p] += freq
        for pair in zip(pieces, pieces[1:]):
            pair_counts[pair] += freq
            first_seen.setdefault(pair, len(first_seen))
            holders.setdefault(pair, set()).add(idx)
    by_token = {}
    for pair in pair_counts:
        by_token.setdefault(pair[0], set()).add(pair)
        by_token.setdefault(pair[1], set()).add(pair)

    # min-heap of (-score, -count, first_seen, pair); entry[pair] is the one
    # entry of a live pair whose key is current, every other entry is stale
    entry = {}

    def fresh_entry(pair):
        c = pair_counts[pair]
        e = entry[pair] = (-(c / (token_counts[pair[0]] * token_counts[pair[1]])),
                           -c, first_seen[pair], pair)
        return e

    heap = [fresh_entry(pair) for pair in pair_counts]
    heapq.heapify(heap)

    while len(tokens) < size:
        while heap and entry.get(heap[0][3]) is not heap[0]:
            heapq.heappop(heap)
        if not heap:
            break
        best = heapq.heappop(heap)[3]
        left, right = best
        merged = _merge_spelling(left, right)
        tokens.append(merged)
        changed = set()
        merged_freq = 0
        for idx in sorted(holders[best]):
            pieces, freq = words[idx]
            n = len(pieces)
            rebuilt, starts, placed = [], [], []
            i = 0
            while i < n:
                if i + 1 < n and pieces[i] == left and pieces[i + 1] == right:
                    starts.append(i)
                    placed.append(len(rebuilt))
                    rebuilt.append(merged)
                    i += 2
                else:
                    rebuilt.append(pieces[i])
                    i += 1
            if not starts:
                continue
            # only pairs touching a merge change: the old ones around each
            # merged pair go, the new ones beside each merged token come
            for k in {k for s in starts for k in (s - 1, s, s + 1) if 0 <= k < n - 1}:
                pair = (pieces[k], pieces[k + 1])
                pair_counts[pair] -= freq
                changed.add(pair)
            m = len(rebuilt)
            for k in sorted({k for j in placed for k in (j - 1, j) if 0 <= k < m - 1}):
                pair = (rebuilt[k], rebuilt[k + 1])
                pair_counts[pair] += freq
                changed.add(pair)
                first_seen.setdefault(pair, len(first_seen))
                holders.setdefault(pair, set()).add(idx)
            words[idx] = (rebuilt, freq)
            merged_freq += len(starts) * freq
        token_counts[left] -= merged_freq
        token_counts[right] -= merged_freq
        token_counts[merged] += merged_freq

        for pair in changed:
            was_live = pair in entry
            if pair_counts[pair] <= 0:
                del pair_counts[pair], holders[pair]
                if was_live:
                    del entry[pair]
                    by_token[pair[0]].discard(pair)
                    by_token[pair[1]].discard(pair)
            elif not was_live:
                by_token.setdefault(pair[0], set()).add(pair)
                by_token.setdefault(pair[1], set()).add(pair)
        # a score rises when a token's count falls, so every live pair holding
        # a recounted token gets a fresh entry; every recounted pair is among
        # them, as each holds left or right (gone) or merged (new)
        for pair in set().union(*(by_token.get(tok, ()) for tok in (left, right, merged))):
            heapq.heappush(heap, fresh_entry(pair))
        if len(heap) > 2 * len(entry):
            heap = list(entry.values())
            heapq.heapify(heap)

    return Vocabulary.from_tokens(tokens, lowercase=lowercase)


# ---------------------------------------------------------------------------
# encoding / decoding
# ---------------------------------------------------------------------------


def _munch(word: str, vocab: Vocabulary):
    """Longest-match-first segmentation of one word; None if it cannot be
    covered. A match is at most vocab.longest characters, so the search at
    each position starts there: linear in the word's length."""
    pieces = []
    start, size = 0, len(word)
    while start < size:
        end = min(size, start + vocab.longest)
        found = None
        while end > start:
            sub = word[start:end]
            if start > 0:
                sub = "##" + sub
            if sub in vocab.ids:
                found = sub
                break
            end -= 1
        if found is None:
            return None
        pieces.append(found)
        start = end
    return pieces


def _chunk_words(chunk: str) -> list:
    """(word, start, end) of one whitespace chunk's words, punctuation and
    symbol characters split out, with offsets into the chunk."""
    words = []
    run = 0
    for k, ch in enumerate(chunk):
        if _is_punct(ch):
            if k > run:
                words.append((chunk[run:k], run, k))
            words.append((ch, k, k + 1))
            run = k + 1
    if len(chunk) > run:
        words.append((chunk[run:], run, len(chunk)))
    return words


def pretokenize_spans(text: str) -> list:
    """pretokenize plus (word, start, end) character offsets into `text`."""
    spans = []
    for chunk in _NON_SPACE.finditer(text):
        at = chunk.start()
        spans += [(word, at + start, at + end) for word, start, end in _chunk_words(chunk.group())]
    return spans


def _encode_chunk(chunk: str, vocab: Vocabulary) -> tuple:
    """(ids, word boundaries, offsets) of one whitespace chunk, with offsets
    into the chunk."""
    ids, boundaries, offsets = [], [], []
    for word, start, end in _chunk_words(chunk):
        boundaries.append(len(ids))
        pieces = _munch(word, vocab)
        if pieces is None:
            ids.append(vocab.unk_id)
            offsets.append((start, end))
            continue
        pos = start
        for p in pieces:
            length = len(p) - 2 if p.startswith("##") else len(p)
            ids.append(vocab.ids[p])
            offsets.append((pos, pos + length))
            pos += length
    return ids, boundaries, offsets


def _encode(text: str, vocab: Vocabulary, chunks: dict):
    """encode_with_offsets of text, each distinct whitespace chunk of it
    segmented once into chunks, which maps a chunk to its _encode_chunk."""
    norm = normalize(text, vocab.lowercase)
    ids, boundaries, offsets = [], [], []
    for match in _NON_SPACE.finditer(norm):
        chunk = match[0]
        done = chunks.get(chunk)
        if done is None:
            done = chunks[chunk] = _encode_chunk(chunk, vocab)
        chunk_ids, chunk_boundaries, chunk_offsets = done
        first, at = len(ids), match.start()
        ids += chunk_ids
        for b in chunk_boundaries:
            boundaries.append(first + b)
        for start, end in chunk_offsets:
            offsets.append((at + start, at + end))
    return TokenSequence(ids=tuple(ids), word_boundaries=tuple(boundaries)), tuple(offsets)


# encode and encode_with_offsets each wrap _encode rather than one calling the
# other, so a profiler that times both never counts one call twice
def encode(text: str, vocab: Vocabulary) -> TokenSequence:
    """Segment text into piece ids. No specials are added here; sequence
    assembly ([CLS]/[SEP]/padding) happens at batch construction."""
    return _encode(text, vocab, {})[0]


def encode_with_offsets(text: str, vocab: Vocabulary):
    """(TokenSequence, per-piece (start, end) offsets). Offsets index into
    normalize(text, vocab.lowercase); within a word, pieces partition the
    word's characters, and an unsegmentable word is one UNK piece covering
    all of it."""
    return _encode(text, vocab, {})


def encode_all(texts, vocab: Vocabulary) -> list:
    """[encode_with_offsets(t, vocab) for t in texts], segmenting each
    distinct whitespace chunk once: a corpus repeats its words, so most
    chunks are looked up. The chunk cache lives for this call only."""
    chunks = {}
    return [_encode(text, vocab, chunks) for text in texts]


def decode(seq, vocab: Vocabulary) -> str:
    """Inverse of encode up to whitespace: continuation pieces rejoin their word."""
    ids = seq.ids if isinstance(seq, TokenSequence) else seq
    words = []
    for i in ids:
        tok = vocab.tokens[i]
        if tok.startswith("##") and words:
            words[-1] += tok[2:]
        else:
            words.append(tok)
    return " ".join(words)


# ---------------------------------------------------------------------------
# vocabulary file format: one token per line, line index = id; a JSON sidecar
# (<path>.meta) records specials, casing, and the pre-tokenization rule
# ---------------------------------------------------------------------------


def save_vocab(vocab: Vocabulary, path) -> None:
    path = str(path)
    write_text(path, "".join(tok + "\n" for tok in vocab.tokens))
    meta = {
        "specials": vocab.specials,
        "lowercase": vocab.lowercase,
        "pretokenizer": PRETOKENIZER,
        "fingerprint": vocab.fingerprint,
    }
    write_text(path + ".meta", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_vocab(path) -> Vocabulary:
    path = str(path)
    tokens = read_text(path, "vocabulary file").split("\n")
    while tokens and tokens[-1] == "":
        tokens.pop()
    # the sidecar is optional; specials are recognizable by name
    meta = (read_json(path + ".meta", "vocabulary sidecar")
            if os.path.exists(path + ".meta") else {})
    if "fingerprint" in meta and meta["fingerprint"] != fingerprint_tokens(tokens):
        raise InputError(f"vocabulary file {path} does not match the fingerprint "
                         f"its sidecar {path}.meta records")
    return Vocabulary.from_tokens(tokens, lowercase=bool(meta.get("lowercase", False)))

"""WordPiece vocabulary induction, encoding, and decoding.

Text is NFC-normalized, optionally lowercased (off by default — the base
checkpoints are cased), split on whitespace, and punctuation is isolated
into single-character words before segmentation. Vocabulary training is
greedy pair merging scored by likelihood gain
count(pair) / (count(left) * count(right)); ties break by higher pair
count, then by earliest first appearance. Encoding is longest-match-first
with "##" continuation pieces and whole-word [UNK] fallback.
"""

import hashlib
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
    return [word for word, _, _ in pretokenize_spans(text)]


@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple
    ids: dict = field(repr=False)
    specials: dict
    fingerprint: str
    lowercase: bool = False

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

    # pair bookkeeping: counts, first-appearance serials, and which words hold a pair
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
        merged = _merge_spelling(*best)
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

    return Vocabulary.from_tokens(tokens, lowercase=lowercase)


# ---------------------------------------------------------------------------
# encoding / decoding
# ---------------------------------------------------------------------------


def _munch(word: str, vocab: Vocabulary):
    """Longest-match-first segmentation of one word; None if it cannot be covered."""
    pieces = []
    start = 0
    while start < len(word):
        end = len(word)
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


def pretokenize_spans(text: str) -> list:
    """pretokenize plus (word, start, end) character offsets into `text`."""
    spans = []
    for chunk in _NON_SPACE.finditer(text):
        run, end = chunk.span()
        for k, ch in enumerate(chunk.group(), run):
            if _is_punct(ch):
                if k > run:
                    spans.append((text[run:k], run, k))
                spans.append((ch, k, k + 1))
                run = k + 1
        if end > run:
            spans.append((text[run:end], run, end))
    return spans


def _encode(text: str, vocab: Vocabulary):
    norm = normalize(text, vocab.lowercase)
    ids, boundaries, offsets = [], [], []
    for word, start, end in pretokenize_spans(norm):
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
    return TokenSequence(ids=tuple(ids), word_boundaries=tuple(boundaries)), tuple(offsets)


# encode and encode_with_offsets each wrap _encode rather than one calling the
# other, so a profiler that times both never counts one call twice
def encode(text: str, vocab: Vocabulary) -> TokenSequence:
    """Segment text into piece ids. No specials are added here; sequence
    assembly ([CLS]/[SEP]/padding) happens at batch construction."""
    return _encode(text, vocab)[0]


def encode_with_offsets(text: str, vocab: Vocabulary):
    """(TokenSequence, per-piece (start, end) offsets). Offsets index into
    normalize(text, vocab.lowercase); within a word, pieces partition the
    word's characters, and an unsegmentable word is one UNK piece covering
    all of it."""
    return _encode(text, vocab)


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

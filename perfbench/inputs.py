"""Deterministic inputs for the benchmark workloads, all made from a seed.

Two kinds of text:

* a syllable language: words are 2-4 syllables drawn from a fixed syllable
  inventory and used with Zipfian frequencies, so a WordPiece vocabulary of a
  few thousand tokens keeps frequent words whole and splits rare ones into
  pieces, as a natural-language vocabulary does. The shape of each word (its
  syllable count and which syllables end in a coda) depends only on its rank,
  so every seed gives a lexicon of the same size in characters and only the
  letters vary;
* chain walks: sentences are random walks over a word-successor table (each
  word allows `branch` followers), so masked words are predictable from their
  neighbours and a small model learns the structure quickly. Two disjoint word
  sets give two domains over one vocabulary.

Downstream examples and masked items are built from these. Nothing here
imports the repository's tests; the program only ever sees the objects made
here.
"""

import zlib

import numpy as np

from bertlab import finetune as ft
from bertlab import mlmeval
from bertlab import pretrain as pt
from bertlab import tokenizer as tk

ONSETS = tuple("bdfgklmnprstvz")
VOWELS = tuple("aeiou")
CODAS = tuple("nrs")


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Independent generator per (seed, label)."""
    return np.random.default_rng([seed, zlib.crc32(label.encode("utf-8"))])


# ---------------------------------------------------------------------------
# syllable language
# ---------------------------------------------------------------------------


def syllable_lexicon(seed: int, n_words: int) -> list:
    """n_words distinct words, in Zipf rank order (most frequent first). The
    word of rank i has 2 + i % 3 syllables, and its syllable j ends in a coda
    when (i + j) % 3 == 0; a drawn word that is already taken is redrawn."""
    rng = rng_for(seed, "lexicon")

    def syllable(coda: bool) -> str:
        s = ONSETS[rng.integers(len(ONSETS))] + VOWELS[rng.integers(len(VOWELS))]
        return s + CODAS[rng.integers(len(CODAS))] if coda else s

    words, seen = [], set()
    while len(words) < n_words:
        i = len(words)
        word = "".join(syllable((i + j) % 3 == 0) for j in range(2 + i % 3))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def zipf(n: int) -> np.ndarray:
    """Probabilities proportional to 1 / rank over n ranks."""
    p = 1.0 / np.arange(1, n + 1)
    return p / p.sum()


def syllable_lines(seed: int, lexicon, n_lines: int, words_per_line: int) -> list:
    """Lines of Zipf-distributed words."""
    rng = rng_for(seed, "lines")
    picks = rng.choice(len(lexicon), size=(n_lines, words_per_line), p=zipf(len(lexicon)))
    return [" ".join(lexicon[i] for i in row) for row in picks]


def lexicon_lines(lexicon, words_per_line: int) -> list:
    """Every lexicon word once, in lines of words_per_line words."""
    return [" ".join(lexicon[i: i + words_per_line])
            for i in range(0, len(lexicon), words_per_line)]


def as_corpus(lines, per_doc: int) -> pt.Corpus:
    """Consecutive lines grouped into documents of per_doc sentences."""
    docs = [tuple(lines[i: i + per_doc]) for i in range(0, len(lines), per_doc)]
    return pt.Corpus(documents=tuple(d for d in docs if len(d) == per_doc))


def lexicon_vocab(lexicon, size: int) -> tk.Vocabulary:
    """A WordPiece vocabulary made directly from a lexicon: every character as
    a word-initial and as a continuation piece, then the most frequent words
    whole until there are `size` tokens. Rarer words split into pieces."""
    chars = sorted({c for w in lexicon for c in w})
    tokens = list(tk.SPECIAL_TOKENS) + chars + ["##" + c for c in chars]
    return tk.Vocabulary.from_tokens(tokens + list(lexicon[: size - len(tokens)]))


def fixed_length_lines(seed: int, lexicon, vocab, n_lines: int, n_pieces: int,
                       label: str) -> list:
    """Zipf-distributed lines that encode to exactly n_pieces pieces each, so
    the work of scoring a line does not depend on the seed. A word that would
    overrun the budget is replaced by a whole-token word."""
    rng = rng_for(seed, label)
    p = zipf(len(lexicon))
    whole = [w for w in lexicon if w in vocab.ids]
    lines = []
    for _ in range(n_lines):
        words, used = [], 0
        while used < n_pieces:
            word = lexicon[int(rng.choice(len(lexicon), p=p))]
            pieces = len(tk.encode(word, vocab).ids)
            if used + pieces > n_pieces:
                word, pieces = whole[int(rng.integers(len(whole)))], 1
            words.append(word)
            used += pieces
        lines.append(" ".join(words))
    return lines


def masked_items(seed: int, lexicon, vocab, n_items: int, n_pieces: int) -> list:
    """Single-mask items whose answer is one whole vocabulary token, over
    lines of n_pieces pieces."""
    lines = fixed_length_lines(seed, lexicon, vocab, n_items, n_pieces, label="items")
    rng = rng_for(seed, "items.answer")
    items = []
    for i, line in enumerate(lines):
        words = line.split()
        whole = [j for j, w in enumerate(words) if w in vocab.ids]
        if not whole:
            raise ValueError(f"line {i} has no word that is a single token")
        at = whole[int(rng.integers(len(whole)))]
        start = sum(len(w) + 1 for w in words[:at])
        items.append(mlmeval.MaskedEvalItem(
            source_id=f"item{i:04d}", text=" ".join(words), start=start,
            end=start + len(words[at]), answer=words[at]))
    return items


# ---------------------------------------------------------------------------
# chain-walk domains
# ---------------------------------------------------------------------------


def domain_words(prefix: str, n: int) -> list:
    return [f"{prefix}{i:02d}" for i in range(n)]


def chain_corpus(seed: int, words, n_docs: int, per_doc: int = 4,
                 length: int = 8, branch: int = 2) -> pt.Corpus:
    """Documents of random-walk sentences over a seeded successor table."""
    rng = rng_for(seed, "chain." + words[0])
    table = {w: [words[i] for i in rng.choice(len(words), size=branch, replace=False)]
             for w in words}
    docs = []
    for _ in range(n_docs):
        sentences = []
        for _ in range(per_doc):
            w = words[int(rng.integers(len(words)))]
            walk = [w]
            for _ in range(length - 1):
                w = table[w][int(rng.integers(branch))]
                walk.append(w)
            sentences.append(" ".join(walk))
        docs.append(tuple(sentences))
    return pt.Corpus(documents=tuple(docs))


def corpus_sentences(corpus: pt.Corpus) -> list:
    return [s for doc in corpus.documents for s in doc]


def ner_dataset(seed: int, entity_words, other_words, sizes, length: int = 7,
                entity_rate: float = 0.4) -> ft.TaskDataset:
    """A word is an entity (B-X) exactly when it comes from entity_words."""
    rng = rng_for(seed, "ner")
    splits = []
    for split, n in zip(("train", "dev", "test"), sizes):
        examples = []
        for i in range(n):
            tokens, tags = [], []
            for _ in range(length):
                if rng.random() < entity_rate:
                    tokens.append(entity_words[int(rng.integers(len(entity_words)))])
                    tags.append("B-X")
                else:
                    tokens.append(other_words[int(rng.integers(len(other_words)))])
                    tags.append("O")
            if "B-X" not in tags:
                tokens[0], tags[0] = entity_words[0], "B-X"
            examples.append(ft.NerExample(uid=f"{split}{i:03d}", tokens=tuple(tokens),
                                          tags=tuple(tags)))
        splits.append(examples)
    return ft.TaskDataset(task="ner", train=splits[0], dev=splits[1], test=splits[2])


def qa_dataset(seed: int, corpus: pt.Corpus, sizes) -> ft.TaskDataset:
    """Question: a word of the context; answer: the word that follows it."""
    rng = rng_for(seed, "qa")
    sentences = corpus_sentences(corpus)
    splits = []
    for split, n in zip(("train", "dev", "test"), sizes):
        examples = []
        for i in range(n):
            context = sentences[int(rng.integers(len(sentences)))]
            words = context.split()
            at = int(rng.integers(len(words) - 1))
            question = words[at]
            first = words.index(question)
            answer = words[first + 1]
            answer_start = sum(len(w) + 1 for w in words[: first + 1])
            examples.append(ft.QaExample(
                uid=f"{split}{i:03d}", question=question, context=context,
                answers=(ft.Answer(text=answer, answer_start=answer_start),)))
        splits.append(examples)
    return ft.TaskDataset(task="qa", train=splits[0], dev=splits[1], test=splits[2])

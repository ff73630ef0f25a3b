"""Downstream task heads: token-level NER with BIO decoding, extractive QA
span selection, and relation classification, trained end-to-end on top of the
encoder and scored with the five-seed mean/sd protocol.

Each task is one `TASKS` record. Every random decision is drawn from a
substream named by (seed, purpose), so a report is a pure function of
(initial state, dataset, plan, seed list).
Entity F1 is micro-averaged exact span+label match; QA F1 is bag-of-tokens
overlap against the best-matching gold answer; RE F1 is micro-averaged over
the positive relation classes only.
"""

import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from . import model as md
from .autodiff import IGNORE_INDEX, Tensor
from .errors import (ConfigurationError, InputError, NumericFault, Record, ValidationError,
                     read_json_lines, read_text, typed, within, write_text)
from .mitigation import llrd_factors
from .model import ModelState
# adam_step stays importable from here: perfbench traces and tests that binding
from .pretrain import _resolve_init, adam_step, pad_rows, train_step  # noqa: F401
from .seeding import map_units, substream
from .tokenizer import (Vocabulary, _is_punct, encode, encode_with_offsets,
                        normalize)


# ---------------------------------------------------------------------------
# examples and datasets
# ---------------------------------------------------------------------------


def _valid_bio(tag: str) -> bool:
    return tag == "O" or (tag[:2] in ("B-", "I-") and len(tag) > 2)


def _require_strings(example, *names) -> None:
    """Records come from JSON, where any field may hold any type."""
    bad = [n for n in names if not isinstance(getattr(example, n), str)]
    if bad:
        raise ValidationError(f"{example.uid!r}: {', '.join(bad)} must be a string")


@dataclass(frozen=True)
class Span:
    start: int
    end: int
    label: str

    def __post_init__(self):
        if type(self.start) is not int or type(self.end) is not int:
            raise ValidationError(f"span [{self.start!r}, {self.end!r}) needs integer offsets")
        if not 0 <= self.start < self.end:
            raise ValidationError(f"span [{self.start}, {self.end}) is empty or negative")


@dataclass(frozen=True)
class NerExample:
    """One sentence: words with BIO tags, plus character-level spans over
    `text` kept for dataset translation round-trips. Without a text, the
    space-joined words are the text and the spans come from the tags."""
    uid: str
    tokens: tuple
    tags: tuple
    text: str = None
    spans: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "tags", tuple(self.tags))
        object.__setattr__(self, "spans", tuple(self.spans))
        _require_strings(self, "uid", *(("text",) if self.text is not None else ()))
        if not self.tokens or len(self.tokens) != len(self.tags):
            raise ValidationError(
                f"{self.uid}: {len(self.tokens)} tokens vs {len(self.tags)} tags")
        bad = [t for t in self.tags if not _valid_bio(t)]
        if bad:
            raise ValidationError(f"{self.uid}: malformed BIO tags", items=bad)
        given_text = self.text is not None
        if not given_text:
            if self.spans:
                raise ValidationError(f"{self.uid}: spans without the text they index")
            text, spans = _ner_text_from_tokens(self.tokens, self.tags)
            object.__setattr__(self, "text", text)
            object.__setattr__(self, "spans", spans)
        for s in self.spans:
            if s.end > len(self.text):
                raise ValidationError(f"{self.uid}: span past end of text", items=[s])
        ordered = sorted(self.spans, key=lambda s: s.start)
        for a, b in zip(ordered, ordered[1:]):
            if b.start < a.end:
                raise ValidationError(f"{self.uid}: overlapping spans", items=[a, b])
        if given_text:
            from_spans = span_entities(word_offsets(self.uid, self.tokens, self.text), ordered)
            from_tags = bio_decode(self.tags)
            if from_spans != from_tags:
                raise ValidationError(f"{self.uid}: spans disagree with the tags", items=[
                    f"word entities from tags {from_tags}", f"from spans {from_spans}"])


@dataclass(frozen=True)
class Answer:
    text: str
    answer_start: int


@dataclass(frozen=True)
class QaExample:
    uid: str
    question: str
    context: str
    answers: tuple

    def __post_init__(self):
        object.__setattr__(self, "answers", tuple(self.answers))
        _require_strings(self, "uid", "question", "context")
        if not self.question.strip() or not self.context.strip():
            raise ValidationError(f"{self.uid}: empty question or context")
        if not self.answers:
            raise ValidationError(f"{self.uid}: no gold answers")
        for a in self.answers:
            if type(a.answer_start) is not int:
                raise ValidationError(f"{self.uid}: answer_start must be an integer", items=[a])
            if not (0 <= a.answer_start and
                    a.answer_start + len(a.text) <= len(self.context)):
                raise ValidationError(f"{self.uid}: answer span out of bounds", items=[a])
            if self.context[a.answer_start: a.answer_start + len(a.text)] != a.text:
                raise ValidationError(
                    f"{self.uid}: answer text does not match context at answer_start",
                    items=[a])


@dataclass(frozen=True)
class ReExample:
    uid: str
    text: str       # entity markers already inline
    relation: str

    def __post_init__(self):
        _require_strings(self, "uid", "text", "relation")
        if not self.text.strip():
            raise ValidationError(f"{self.uid}: empty text")


@dataclass(frozen=True)
class TaskDataset:
    task: str
    train: tuple
    dev: tuple
    test: tuple
    negative_label: str = None   # RE no-relation class, excluded from micro-F1

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigurationError(
                f"unknown task {self.task!r}; expected one of {tuple(TASKS)}")
        for name in ("train", "dev", "test"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            if not getattr(self, name):
                raise InputError(f"{self.task} dataset has an empty {name} split")
        if self.negative_label is not None:
            typed(self.negative_label, str, "negative_label")


def split_dataset(examples, seed: int):
    """Random 80/10/10 train/dev/test split for datasets that ship without one."""
    examples = list(examples)
    if len(examples) < 3:
        raise InputError(f"cannot split {len(examples)} examples three ways")
    order = substream(seed, "split").permutation(len(examples))
    n = len(examples)
    n_train = max(1, min(n - 2, int(round(0.8 * n))))
    n_dev = max(1, min(n - n_train - 1, int(round(0.1 * n))))
    picked = [examples[i] for i in order]
    return (tuple(picked[:n_train]),
            tuple(picked[n_train:n_train + n_dev]),
            tuple(picked[n_train + n_dev:]))


def check_label_coverage(dataset: TaskDataset) -> None:
    """Every dev/test label must be one the head learns from train; anything
    else cannot be learned and points at a split mistake."""
    labels = TASKS[dataset.task].labels
    train = labels(dataset.train, dataset.negative_label)
    for name in ("dev", "test"):
        extra = labels(getattr(dataset, name), dataset.negative_label) - train
        if extra:
            raise ConfigurationError(
                f"{name} split has labels never seen in train: {sorted(extra)}")


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def _raise_if(problems, what):
    if problems:
        raise ValidationError(f"{what} failed validation", items=problems)


def load_ner(path):
    """CoNLL-style columns (token<TAB>tag, blank line between sentences) plus
    a JSONL character-span sidecar at <path>.spans; the sidecar is optional
    and reconstructed from the tags when missing."""
    sentences, current = [], []
    problems = []
    for n, line in enumerate(read_text(path, "NER file").split("\n"), start=1):
        line = line.rstrip()
        if not line:
            if current:
                sentences.append(current)
                current = []
            continue
        cols = line.split("\t") if "\t" in line else line.split()
        if len(cols) != 2:
            problems.append(f"line {n}: expected 'token<TAB>tag', got {line!r}")
            continue
        current.append((cols[0], cols[1]))
    if current:
        sentences.append(current)
    _raise_if(problems, str(path))
    if not sentences:
        raise InputError(f"{path} contains no sentences")

    sidecars = [None] * len(sentences)
    sidecar_path = str(path) + ".spans"
    if os.path.exists(sidecar_path):
        records = [r for _, r in read_json_lines(sidecar_path, "span sidecar", problems)]
        if len(records) != len(sentences):
            problems.append(f"sidecar has {len(records)} records "
                            f"for {len(sentences)} sentences")
        _raise_if(problems, sidecar_path)
        sidecars = records

    examples = []
    for i, (sentence, side) in enumerate(zip(sentences, sidecars)):
        tokens = tuple(t for t, _ in sentence)
        tags = tuple(g for _, g in sentence)
        uid, text, spans = f"s{i}", None, ()
        if side is not None:
            try:
                uid = side["id"]
                text = side["text"]
                spans = tuple(Span(s["start"], s["end"], s["label"])
                              for s in side["spans"])
            except (KeyError, TypeError, ValidationError) as exc:
                problems.append(f"sidecar record {i}: {exc}")
                continue
        try:
            examples.append(NerExample(uid=uid, tokens=tokens, tags=tags,
                                       text=text, spans=spans))
        except ValidationError as exc:
            problems.append(f"sentence {i}: {exc}")
    _raise_if(problems, str(path))
    seen = Counter(ex.uid for ex in examples)
    _raise_if([f"duplicate id {u!r}" for u, c in seen.items() if c > 1], str(path))
    return tuple(examples)


def _ner_text_from_tokens(tokens, tags):
    """Space-joined text with character spans derived from the BIO tags."""
    starts, pos = [], 0
    for t in tokens:
        starts.append(pos)
        pos += len(t) + 1
    text = " ".join(tokens)
    spans = tuple(Span(starts[ws], starts[we - 1] + len(tokens[we - 1]), label)
                  for ws, we, label in bio_decode(tags))
    return text, spans


def word_offsets(uid, tokens, text):
    """(start, end) of each token, found in order in a text that holds them."""
    offsets, pos = [], 0
    for token in tokens:
        start = text.find(token, pos)
        if start < 0:
            raise ValidationError(f"{uid}: token not found in order in the text", items=[token])
        pos = start + len(token)
        offsets.append((start, pos))
    return offsets


def span_entities(offsets, spans):
    """The (start, end, label) word ranges, as bio_decode gives them, of
    character spans over words at `offsets`: a span takes every word it
    overlaps, and one that overlaps none gives (None, None, label)."""
    entities = []
    for s in spans:
        words = [i for i, (start, end) in enumerate(offsets) if start < s.end and end > s.start]
        entities.append((words[0], words[-1] + 1, s.label) if words else (None, None, s.label))
    return tuple(entities)


def save_ner(examples, path) -> None:
    write_text(path, "\n".join("".join(f"{token}\t{tag}\n"
                                       for token, tag in zip(ex.tokens, ex.tags))
                               for ex in examples))
    _save_jsonl(str(path) + ".spans", (
        {"id": ex.uid, "text": ex.text,
         "spans": [{"start": s.start, "end": s.end, "label": s.label} for s in ex.spans]}
        for ex in examples))


def _save_jsonl(path, records) -> None:
    write_text(path, "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records))


def _load_jsonl_records(path, what, build):
    problems, out, seen = [], [], set()
    for n, record in read_json_lines(path, what, problems):
        try:
            example = build(record)
        except (KeyError, TypeError, ValidationError) as exc:
            problems.append(f"line {n}: {exc}")
            continue
        if example.uid in seen:
            problems.append(f"line {n}: duplicate id {example.uid!r}")
            continue
        seen.add(example.uid)
        out.append(example)
    _raise_if(problems, str(path))
    if not out:
        raise InputError(f"{path} contains no records")
    return tuple(out)


def load_qa(path):
    """JSONL records {id, question, context, answers: [{text, answer_start}]}."""
    return _load_jsonl_records(path, "QA file", lambda r: QaExample(
        uid=r["id"], question=r["question"], context=r["context"],
        answers=tuple(Answer(a["text"], a["answer_start"]) for a in r["answers"])))


def save_qa(examples, path) -> None:
    _save_jsonl(path, ({"id": ex.uid, "question": ex.question, "context": ex.context,
                        "answers": [{"text": a.text, "answer_start": a.answer_start}
                                    for a in ex.answers]} for ex in examples))


def load_re(path):
    """JSONL records {id, text, relation}; entity markers live inside text."""
    return _load_jsonl_records(path, "RE file", lambda r: ReExample(
        uid=r["id"], text=r["text"], relation=r["relation"]))


def save_re(examples, path) -> None:
    _save_jsonl(path, ({"id": ex.uid, "text": ex.text, "relation": ex.relation}
                       for ex in examples))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float


def _prf(tp: int, fp: int, fn: int) -> PRF:
    if tp == fp == fn == 0:
        return PRF(1.0, 1.0, 1.0)   # nothing to find, nothing found
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return PRF(p, r, f)


def bio_decode(tags):
    """Word-index entity spans (start, end, label); an I- tag that does not
    continue a same-label entity opens a new one."""
    spans = []
    start = label = None

    def close(end):
        nonlocal start, label
        if start is not None:
            spans.append((start, end, label))
        start = label = None

    for i, tag in enumerate(tags):
        if tag == "O":
            close(i)
        elif tag.startswith("B-") or label != tag[2:]:
            close(i)
            start, label = i, tag[2:]
    close(len(tags))
    return tuple(spans)


def bio_encode(entities, n_words):
    """BIO tags for `n_words` words holding sorted, disjoint (start, end,
    label) word ranges; bio_decode inverts it."""
    tags = ["O"] * n_words
    for start, end, label in entities:
        tags[start: end] = ["B-" + label] + ["I-" + label] * (end - start - 1)
    return tuple(tags)


def ner_f1(gold, predicted) -> PRF:
    """Micro-averaged exact span+label match over aligned collections of
    entity sets (one entry per sentence)."""
    if len(gold) != len(predicted):
        raise ValidationError(f"{len(gold)} gold vs {len(predicted)} predicted sentences")
    tp = fp = fn = 0
    for g, p in zip(gold, predicted):
        g, p = set(g), set(p)
        tp += len(g & p)
        fp += len(p - g)
        fn += len(g - p)
    return _prf(tp, fp, fn)


def qa_tokens(text: str) -> list:
    """Lowercased bag-of-tokens normalization: punctuation stripped, then
    whitespace split."""
    cleaned = "".join(" " if _is_punct(ch) else ch
                      for ch in normalize(text, lowercase=True))
    return cleaned.split()


def qa_scores(gold_texts, predicted_text) -> PRF:
    """Token-overlap P/R/F1 against the best-F1 gold answer."""
    pred = Counter(qa_tokens(predicted_text))
    best = PRF(0.0, 0.0, 0.0)
    for text in gold_texts:
        gold = Counter(qa_tokens(text))
        if not gold or not pred:
            score = float(gold == pred)
            candidate = PRF(score, score, score)
        else:
            overlap = sum((gold & pred).values())
            candidate = _prf(overlap, sum(pred.values()) - overlap,
                             sum(gold.values()) - overlap)
        if candidate.f1 > best.f1:
            best = candidate
    return best


def qa_f1(gold_texts, predicted_text) -> float:
    return qa_scores(gold_texts, predicted_text).f1


def re_f1(gold, predicted, negative_label=None) -> PRF:
    """Micro-averaged over the positive classes; the designated negative
    class contributes no true positives."""
    if len(gold) != len(predicted):
        raise ValidationError(f"{len(gold)} gold vs {len(predicted)} predicted labels")
    tp = fp = fn = 0
    for g, p in zip(gold, predicted):
        if p != negative_label and p == g:
            tp += 1
        else:
            if p != negative_label:
                fp += 1
            if g != negative_label:
                fn += 1
    return _prf(tp, fp, fn)


# ---------------------------------------------------------------------------
# featurization
# ---------------------------------------------------------------------------


_ONE_SEGMENT = property(lambda self: (0,) * len(self.ids))   # one sentence, segment 0


@dataclass(frozen=True)
class NerFeature:
    ids: tuple
    labels: tuple           # per piece; IGNORE on specials and continuations
    word_positions: tuple   # row index of each included word's first piece
    gold_spans: tuple       # over all words, including any truncated away
    segments = _ONE_SEGMENT


@dataclass(frozen=True)
class QaFeature:
    uid: str
    ids: tuple
    segments: tuple
    context_range: tuple    # [lo, hi) rows holding context pieces
    offsets: tuple          # per context piece, into norm_context
    norm_context: str
    gold_texts: tuple
    target: tuple           # (start_row, end_row) or None if not alignable


@dataclass(frozen=True)
class ReFeature:
    ids: tuple
    label: int
    segments = _ONE_SEGMENT


def featurize_ner(example: NerExample, vocab: Vocabulary, label_ids: dict,
                  max_seq_len: int):
    ids, labels, word_positions = [vocab.cls_id], [IGNORE_INDEX], []
    for word, tag in zip(example.tokens, example.tags):
        pieces = encode(word, vocab).ids
        if len(ids) + len(pieces) > max_seq_len - 1:
            break
        word_positions.append(len(ids))
        ids.extend(pieces)
        labels.append(label_ids[tag])
        labels.extend([IGNORE_INDEX] * (len(pieces) - 1))
    ids.append(vocab.sep_id)
    labels.append(IGNORE_INDEX)
    return NerFeature(ids=tuple(ids), labels=tuple(labels),
                      word_positions=tuple(word_positions),
                      gold_spans=bio_decode(example.tags))


def occurrences(haystack: str, needle: str) -> list:
    """Every start position of needle in haystack, overlapping ones included."""
    found, i = [], haystack.find(needle)
    while i >= 0:
        found.append(i)
        i = haystack.find(needle, i + 1)
    return found


def _locate(haystack: str, needle: str, hint: int):
    """Occurrence of needle closest to the hinted character position."""
    found = occurrences(haystack, needle)
    return min(found, key=lambda i: abs(i - hint)) if found else None


def featurize_qa(example: QaExample, vocab: Vocabulary, max_seq_len: int):
    q_ids = encode(example.question, vocab).ids
    if len(q_ids) + 3 >= max_seq_len:
        raise InputError(f"{example.uid}: question alone exceeds max_seq_len")
    ctx_seq, offsets = encode_with_offsets(example.context, vocab)
    norm_context = normalize(example.context, vocab.lowercase)
    budget = max_seq_len - 3 - len(q_ids)
    ctx_ids = ctx_seq.ids[:budget]
    offsets = offsets[:budget]

    ids = (vocab.cls_id, *q_ids, vocab.sep_id, *ctx_ids, vocab.sep_id)
    segments = (0,) * (len(q_ids) + 2) + (1,) * (len(ctx_ids) + 1)
    lo = len(q_ids) + 2
    hi = lo + len(ctx_ids)

    target = None
    gold = example.answers[0]
    needle = normalize(gold.text, vocab.lowercase)
    at = _locate(norm_context, needle, gold.answer_start)
    if at is not None and needle:
        span_end = at + len(needle)
        rows = [i for i, (s, e) in enumerate(offsets) if s < span_end and e > at]
        if rows:
            target = (lo + rows[0], lo + rows[-1])
    return QaFeature(uid=example.uid, ids=ids, segments=segments,
                     context_range=(lo, hi), offsets=offsets,
                     norm_context=norm_context,
                     gold_texts=tuple(a.text for a in example.answers),
                     target=target)


def featurize_re(example: ReExample, vocab: Vocabulary, label_ids: dict,
                 max_seq_len: int):
    ids = encode(example.text, vocab).ids[: max_seq_len - 2]
    return ReFeature(ids=(vocab.cls_id, *ids, vocab.sep_id),
                     label=label_ids[example.relation])


def best_span(start_row: np.ndarray, end_row: np.ndarray, lo: int, hi: int,
              max_pieces: int):
    """(start, end) maximizing start_row[s] + end_row[e] subject to
    lo ≤ s ≤ e < hi and span length ≤ max_pieces."""
    best_score, best_pair = -math.inf, (lo, lo)
    for s in range(lo, hi):
        top = min(s + max_pieces, hi)
        for e in range(s, top):
            score = start_row[s] + end_row[e]
            if score > best_score:
                best_score, best_pair = score, (s, e)
    return best_pair


# ---------------------------------------------------------------------------
# plan and per-task training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinetunePlan(Record):
    lr: float = within("(0, inf)", 3e-5)
    batch_size: int = within("[1, inf)", 16)
    epochs: int = within("[1, inf)", 10)
    max_seq_len: int = within("[8, inf)", 128)
    llrd_decay: float = within("(0, 1]", None)
    patience: int = within("[1, inf)", None)  # epochs without dev improvement before stopping
    max_answer_pieces: int = within("[1, inf)", 30)
    adam_beta1: float = within("[0, 1)", 0.9)
    adam_beta2: float = within("[0, 1)", 0.999)
    adam_eps: float = within("(0, inf)", 1e-8)
    weight_decay: float = within("[0, inf)", 0.01)


@dataclass(frozen=True)
class SeedRun:
    seed: int
    precision: float
    recall: float
    f1: float
    dev_f1: float
    best_epoch: int


@dataclass(frozen=True)
class TaskReport:
    task: str
    model: str
    runs: tuple
    mean_f1: float
    sd_f1: float              # None with a single seed
    mean_precision: float
    mean_recall: float
    baseline_name: str = None
    delta_pct: float = None

    def to_dict(self):
        d = {"task": self.task, "model": self.model,
             "runs": [vars(r) for r in self.runs],
             "mean_f1": self.mean_f1, "sd_f1": self.sd_f1,
             "mean_precision": self.mean_precision,
             "mean_recall": self.mean_recall,
             "baseline_name": self.baseline_name, "delta_pct": self.delta_pct}
        return d

    @classmethod
    def from_dict(cls, d) -> "TaskReport":
        """The report a to_dict record holds; ValidationError for a missing or
        unknown field, a task or model that is not a string, or a score, count
        or seed that is not a finite number."""
        try:
            runs = tuple(SeedRun(**r) for r in d["runs"])
            report = cls(**{**{k: v for k, v in d.items() if k != "runs"}, "runs": runs})
        except (KeyError, TypeError) as exc:
            raise ValidationError("not a task report",
                                  items=[f"{type(exc).__name__}: {exc}"]) from exc
        problems = [f"{name} must be a string, got {getattr(report, name)!r}"
                    for name in ("task", "model") if not isinstance(getattr(report, name), str)]
        problems += _non_finite(report, ("mean_f1", "mean_precision", "mean_recall"),
                                optional=("sd_f1", "delta_pct"))
        for i, run in enumerate(runs):
            problems += [f"runs[{i}].{item}" for item in _non_finite(
                run, ("seed", "precision", "recall", "f1", "dev_f1", "best_epoch"))]
        if problems:
            raise ValidationError("not a task report", items=problems)
        return report


def _non_finite(record, names, optional=()) -> list:
    """One line per named field that is not a finite int or float (a bool is
    not a number); an `optional` field may also be None."""
    problems = []
    for name in (*names, *optional):
        value = getattr(record, name)
        if value is None and name in optional:
            continue
        if not (type(value) is int or type(value) is float and math.isfinite(value)):
            problems.append(f"{name} must be a finite number, got {value!r}")
    return problems


def check_baseline(baseline: TaskReport, task: str) -> None:
    """ConfigurationError unless `baseline` reports on `task` with a positive
    mean F1, the value Δ% is relative to."""
    if baseline.task != task:
        raise ConfigurationError(
            f"baseline report is for task {baseline.task!r}, not {task!r}")
    if not baseline.mean_f1 > 0:
        raise ConfigurationError(
            f"baseline mean_f1 {baseline.mean_f1} must be positive: Δ% is relative to it")


def mean_sd(values):
    """(mean, sample sd with the n-1 denominator; sd is None for n < 2)."""
    values = list(values)
    m = sum(values) / len(values)
    if len(values) < 2:
        return m, None
    return m, math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


def delta_pct(model_mean: float, baseline_mean: float) -> float:
    return (model_mean - baseline_mean) / baseline_mean * 100.0


def make_report(task: str, model: str, runs, baseline: TaskReport = None) -> TaskReport:
    runs = tuple(runs)
    m_f1, sd = mean_sd([r.f1 for r in runs])
    m_p, _ = mean_sd([r.precision for r in runs])
    m_r, _ = mean_sd([r.recall for r in runs])
    return TaskReport(
        task=task, model=model, runs=runs, mean_f1=m_f1, sd_f1=sd,
        mean_precision=m_p, mean_recall=m_r,
        baseline_name=baseline.model if baseline else None,
        delta_pct=delta_pct(m_f1, baseline.mean_f1) if baseline else None)


def report_table(report: TaskReport) -> str:
    """Plain-text table: per-seed rows, then Mean (sd) and Δ% columns."""
    lines = [f"task: {report.task}    model: {report.model}",
             f"{'seed':>4}  {'precision':>9}  {'recall':>9}  {'f1':>9}"]
    for r in report.runs:
        lines.append(f"{r.seed:>4}  {r.precision:>9.4f}  {r.recall:>9.4f}  {r.f1:>9.4f}")
    sd = f"({report.sd_f1:.4f})" if report.sd_f1 is not None else "(sd n/a)"
    summary = f"mean f1: {report.mean_f1:.4f} {sd}"
    if report.delta_pct is not None:
        summary += f"    Δ% vs {report.baseline_name}: {report.delta_pct:+.2f}%"
    lines.append(summary)
    return "\n".join(lines) + "\n"


@dataclass
class FinetuneResult:
    report: TaskReport
    states: tuple            # final ModelState per seed, dev-best epoch
    checkpoint_paths: tuple = ()


@dataclass(frozen=True)
class TaskSpec:
    """How one downstream task behaves. Its functions look the featurizers
    and `md.*_logits` heads up when called, never binding them here, so a
    patched module global (perfbench's tracer) is what runs."""
    load: Callable        # path -> tuple of examples
    save: Callable        # (examples, path) -> None
    suffix: str           # file suffix of what `save` writes
    labels: Callable      # (examples, negative_label) -> set the head predicts
    featurize: Callable   # (example, vocab, label_ids, max_seq_len) -> feature
    head_width: Callable  # sorted labels -> width of the head
    loss: Callable        # (encoder output, params, features) -> scalar Tensor
    evaluate: Callable    # (runner, params, features) -> PRF


def _qa_loss(hidden, params, rows) -> Tensor:
    start_logits, end_logits = md.qa_logits(hidden, params)
    targets = np.array([f.target or (IGNORE_INDEX, IGNORE_INDEX) for f in rows], np.int64)
    return ad.scale(ad.add(ad.cross_entropy(start_logits, targets[:, 0]),
                           ad.cross_entropy(end_logits, targets[:, 1])), 0.5)


def _ner_evaluate(runner, params, rows) -> PRF:
    gold, predicted = [], []
    for chunk, (logits,) in runner.eval_logits(params, rows, md.ner_logits):
        picked = np.argmax(logits, axis=-1)
        for i, f in enumerate(chunk):
            tags = [runner.labels[picked[i, pos]] for pos in f.word_positions]
            gold.append(f.gold_spans)
            predicted.append(bio_decode(tags))
    return ner_f1(gold, predicted)


def _qa_evaluate(runner, params, rows) -> PRF:
    scores = []
    for chunk, (start_logits, end_logits) in runner.eval_logits(params, rows, md.qa_logits):
        for i, f in enumerate(chunk):
            lo, hi = f.context_range
            s, e = best_span(start_logits[i], end_logits[i],
                             lo, hi, runner.plan.max_answer_pieces)
            text = f.norm_context[f.offsets[s - lo][0]: f.offsets[e - lo][1]]
            scores.append(qa_scores(f.gold_texts, text))
    n = len(scores)
    return PRF(sum(s.precision for s in scores) / n,
               sum(s.recall for s in scores) / n,
               sum(s.f1 for s in scores) / n)


def _re_evaluate(runner, params, rows) -> PRF:
    gold, predicted = [], []
    for chunk, (logits,) in runner.eval_logits(params, rows, md.re_logits):
        picked = np.argmax(logits, axis=-1)
        for i, f in enumerate(chunk):
            gold.append(runner.labels[f.label])
            predicted.append(runner.labels[picked[i]])
    return re_f1(gold, predicted, negative_label=runner.dataset.negative_label)


TASKS = {
    "ner": TaskSpec(
        load=load_ner, save=save_ner, suffix="conll",
        labels=lambda examples, _: {t for ex in examples for t in ex.tags},
        featurize=lambda *args: featurize_ner(*args), head_width=len,
        loss=lambda hidden, params, rows: ad.cross_entropy(
            md.ner_logits(hidden, params), pad_rows([f.labels for f in rows], IGNORE_INDEX)),
        evaluate=_ner_evaluate),
    "qa": TaskSpec(
        load=load_qa, save=save_qa, suffix="jsonl", labels=lambda examples, _: set(),
        featurize=lambda example, vocab, _, max_seq_len: featurize_qa(
            example, vocab, max_seq_len),
        head_width=lambda labels: 2, loss=_qa_loss, evaluate=_qa_evaluate),
    "re": TaskSpec(
        load=load_re, save=save_re, suffix="jsonl",
        labels=lambda examples, negative_label: (
            {ex.relation for ex in examples} | ({negative_label} - {None})),
        featurize=lambda *args: featurize_re(*args), head_width=len,
        loss=lambda hidden, params, rows: ad.cross_entropy(
            md.re_logits(hidden, params), np.array([f.label for f in rows], dtype=np.int64)),
        evaluate=_re_evaluate),
}


class _TaskRunner:
    """Featurization, loss, and evaluation for one task over one dataset."""

    def __init__(self, dataset: TaskDataset, state: ModelState, plan: FinetunePlan):
        self.task = dataset.task
        self.spec = TASKS[dataset.task]
        self.dataset = dataset
        self.config = state.config
        self.vocab = state.vocab
        self.plan = plan
        self.labels = sorted(self.spec.labels(dataset.train, dataset.negative_label))
        self.head_width = self.spec.head_width(self.labels)
        label_ids = {t: i for i, t in enumerate(self.labels)}
        self.features = {name: [self.spec.featurize(ex, self.vocab, label_ids,
                                                    plan.max_seq_len)
                                for ex in getattr(dataset, name)]
                         for name in ("train", "dev", "test")}

    def forward(self, params, rows, train=False, rng=None) -> Tensor:
        """Encoder output for a batch of features, padded to its longest row."""
        ids = pad_rows([f.ids for f in rows], self.vocab.pad_id)
        mask = pad_rows([[1] * len(f.ids) for f in rows], 0)
        segments = pad_rows([f.segments for f in rows], 0)
        return md.forward_encoder(params, self.config, ids, segments, mask,
                                  train=train, rng=rng)

    def loss(self, params, rows, train=False, rng=None):
        return self.spec.loss(self.forward(params, rows, train=train, rng=rng),
                              params, rows)

    def evaluate(self, params, split: str) -> PRF:
        with ad.no_grad():
            return self.spec.evaluate(self, params, self.features[split])

    def batches(self, rows):
        for i in range(0, len(rows), self.plan.batch_size):
            yield rows[i: i + self.plan.batch_size]

    def eval_logits(self, params, rows, head):
        """(batch, [logit arrays]) per batch of rows: the head's outputs on
        the encoder's, refused when any is not finite, since the argmax of a
        NaN row scores as a prediction."""
        for chunk in self.batches(rows):
            out = head(self.forward(params, chunk), params)
            arrays = [t.data for t in (out if isinstance(out, tuple) else (out,))]
            if not all(np.isfinite(a).all() for a in arrays):
                raise NumericFault(f"{self.task}: non-finite evaluation logits")
            yield chunk, arrays


def _finetune_one_seed(runner: _TaskRunner, base_params: dict, plan: FinetunePlan,
                       seed: int):
    """(SeedRun, trained copy of base_params plus the task head at the
    dev-best epoch)."""
    config = runner.config
    params = dict(base_params)
    md.add_task_head(params, config, runner.task, runner.head_width,
                     substream(seed, "head.init"))
    params, opt_state = md.copy_params(params)
    factors = llrd_factors(sorted(params), plan.llrd_decay, config.n_layers)
    train_rows = runner.features["train"]
    best = (-1.0, -1, None)
    stale = 0
    for epoch in range(plan.epochs):
        order = substream(seed, f"order.{epoch}").permutation(len(train_rows))
        for b, chunk_start in enumerate(range(0, len(order), plan.batch_size)):
            rows = [train_rows[i] for i in order[chunk_start: chunk_start + plan.batch_size]]
            loss = runner.loss(params, rows, train=True,
                               rng=substream(seed, f"dropout.{epoch}.{b}"))
            train_step(loss, params, opt_state, plan.lr, plan, factors)
            del loss   # free this step's graph before the next forward pass
        dev = runner.evaluate(params, "dev")
        if dev.f1 > best[0]:
            best = (dev.f1, epoch, {p: t.data.copy() for p, t in params.items()})
            stale = 0
        else:
            stale += 1
            if plan.patience is not None and stale >= plan.patience:
                break
    dev_f1, best_epoch, snapshot = best
    for p, arr in snapshot.items():
        params[p].data = arr
    test = runner.evaluate(params, "test")
    run = SeedRun(seed=seed, precision=test.precision, recall=test.recall,
                  f1=test.f1, dev_f1=dev_f1, best_epoch=best_epoch)
    return run, params


def finetune_task(init, dataset: TaskDataset, plan: FinetunePlan = None,
                  seeds=(1, 2, 3, 4, 5),
                  model_name: str = "model", baseline: TaskReport = None,
                  checkpoint_dir=None) -> FinetuneResult:
    """Train and evaluate one task head per seed, the seeds spread over the
    CPUs by `map_units`; report test metrics at the dev-best epoch with
    mean/sample-sd across seeds. Checkpoints are written here, in seed order."""
    plan = plan or FinetunePlan()
    if not seeds:
        raise ConfigurationError("seed list is empty")
    if baseline is not None:
        check_baseline(baseline, dataset.task)
    lineage = _resolve_init(init, plan.max_seq_len, start=0)
    check_label_coverage(dataset)
    runner = _TaskRunner(dataset, init, plan)

    runs, states, paths = [], [], []
    trained = map_units(lambda seed: _finetune_one_seed(runner, init.params, plan, seed),
                        seeds)
    for seed, (run, params) in zip(seeds, trained):
        seed_state = ModelState(config=init.config, params=params, vocab=init.vocab,
                                lineage=lineage)
        runs.append(run)
        states.append(seed_state)
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
            path = os.path.join(str(checkpoint_dir),
                                f"{dataset.task}.seed{seed}.ckpt")
            seed_state.checkpoint_id = ckpt.save_checkpoint(path, seed_state)
            paths.append(path)
    report = make_report(dataset.task, model_name, runs, baseline=baseline)
    return FinetuneResult(report=report, states=tuple(states),
                          checkpoint_paths=tuple(paths))

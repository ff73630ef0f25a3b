"""Annotation-realigning dataset translation: run every context through a
pluggable sentence translator, translate each annotated mention independently,
then re-locate it in the translated context with one loop, `_relocate`, that
NER spans, QA answers and RE markers share.

Location walks a fixed policy chain — exact match, then case-insensitive,
then accent-folded — and among multiple occurrences picks the one whose
relative position is closest to the source mention's. An exact tie, or any
mention that cannot be found at all, drops the whole example; drops are
tallied by reason so translation noise is auditable per split. NER tags are
regenerated over the translated words by the span rule `finetune` owns
(`span_entities`, `bio_encode`): a span takes every word it overlaps.
"""

import hashlib
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass

from . import finetune as ft
from . import tokenizer as tk
from .errors import ConfigurationError, InputError, ValidationError, read_text
from .seeding import substream

DROP_REASONS = ("mention_not_found", "ambiguous_after_policy", "empty_translation")
LOCATION_TIERS = ("exact", "case_insensitive", "accent_folded")


# ---------------------------------------------------------------------------
# text folding
# ---------------------------------------------------------------------------


def _fold_char(ch: str) -> str:
    stripped = "".join(c for c in unicodedata.normalize("NFD", ch)
                       if unicodedata.category(c) != "Mn")
    # length-preserving so folded indices map 1:1 onto the source string
    return stripped if len(stripped) == 1 else ch


def accent_fold(text: str) -> str:
    """Strip combining marks character by character ("perché" -> "perche").
    Characters whose decomposition is not one-to-one are left alone, keeping
    every index valid in both strings."""
    return "".join(_fold_char(ch) for ch in text)


def _lower(text: str) -> str:
    # per-character, skipping expansions like ß -> ss that would shift indices
    return "".join(c.lower() if len(c.lower()) == 1 else c for c in text)


# ---------------------------------------------------------------------------
# translators
# ---------------------------------------------------------------------------


class IdentityTranslator:
    name = "identity"

    def translate(self, text: str) -> str:
        return text


class UppercaseTranslator:
    """Loud but reversible: exercises the case-insensitive location tier."""

    name = "uppercase"

    def translate(self, text: str) -> str:
        return text.upper()


class AccentFoldTranslator:
    name = "accent_fold"

    def translate(self, text: str) -> str:
        return accent_fold(text)


class WordShuffleTranslator:
    """Shuffles whitespace words while keeping protected phrases contiguous
    and in place. The permutation is seeded by a digest of the input, so the
    same text always shuffles the same way."""

    name = "word_shuffle_outside_spans"

    def __init__(self, protected=(), seed: int = 0):
        if not (isinstance(protected, (list, tuple))
                and all(isinstance(p, str) for p in protected)):
            raise ConfigurationError(f"{self.name}: protected must be a list of "
                                     f"strings, not {protected!r}")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigurationError(f"{self.name}: seed must be an integer, not {seed!r}")
        self.protected = tuple(protected)
        self.seed = seed

    def translate(self, text: str) -> str:
        taken = []
        for phrase in sorted(self.protected, key=len, reverse=True):
            if not phrase:
                continue
            for i in ft.occurrences(text, phrase):
                end = i + len(phrase)
                if not any(i < e and end > s for s, e in taken):
                    taken.append((i, end))
        taken.sort()
        units, pos = [], 0
        for s, e in taken:
            units.extend(("word", w) for w in text[pos:s].split())
            units.append(("protected", text[s:e]))
            pos = e
        units.extend(("word", w) for w in text[pos:].split())
        words = [u for kind, u in units if kind == "word"]
        rng = substream(self.seed, hashlib.sha256(text.encode("utf-8")).hexdigest())
        shuffled = iter([words[i] for i in rng.permutation(len(words))])
        return " ".join(next(shuffled) if kind == "word" else u
                        for kind, u in units)


class DictionaryTranslator:
    """Phrase-table replacement, longest source phrase first."""

    name = "dictionary"

    def __init__(self, mapping: dict):
        self.mapping = dict(mapping)
        if self.mapping:
            pattern = "|".join(re.escape(k) for k in
                               sorted(self.mapping, key=len, reverse=True))
            self._pattern = re.compile(pattern)
        else:
            self._pattern = None

    @classmethod
    def from_file(cls, path) -> "DictionaryTranslator":
        mapping, problems = {}, []
        for n, line in enumerate(read_text(path, "dictionary").split("\n"), start=1):
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != 2 or not cols[0]:
                problems.append(f"line {n}: expected 'source<TAB>target', got {line!r}")
                continue
            if cols[0] in mapping:
                problems.append(f"line {n}: duplicate source phrase {cols[0]!r}")
                continue
            mapping[cols[0]] = cols[1]
        if problems:
            raise InputError(f"{path}: malformed dictionary:\n" +
                             "\n".join(f"  - {p}" for p in problems))
        return cls(mapping)

    def translate(self, text: str) -> str:
        if self._pattern is None:
            return text
        return self._pattern.sub(lambda m: self.mapping[m.group(0)], text)


def stub_translators() -> dict:
    """Name -> factory for every built-in translator stub."""
    return {
        "identity": IdentityTranslator,
        "uppercase": UppercaseTranslator,
        "accent_fold": AccentFoldTranslator,
        "word_shuffle_outside_spans": WordShuffleTranslator,
        "dictionary": DictionaryTranslator,
    }


def make_translator(name: str, **options):
    registry = stub_translators()
    if name not in registry:
        raise ConfigurationError(
            f"unknown translator {name!r}; available: {', '.join(sorted(registry))}")
    if name == "dictionary" and "path" in options:
        path = options.pop("path")
        if options:
            raise ConfigurationError(f"bad options for translator 'dictionary': "
                                     f"path excludes {', '.join(sorted(options))}")
        return DictionaryTranslator.from_file(path)
    try:
        return registry[name](**options)
    except (TypeError, ValueError) as exc:  # ValueError: dict() of a non-mapping
        raise ConfigurationError(f"bad options for translator {name!r}: {exc}") from exc


def _translated(translator, text: str) -> str:
    """The translation as an exact str, so no subclass method can run on it."""
    out = translator.translate(text)
    if not isinstance(out, str):
        raise TypeError(f"translator {getattr(translator, 'name', '?')!r} "
                        f"returned {type(out).__name__}, not text")
    return str.__str__(out)


# ---------------------------------------------------------------------------
# mention location
# ---------------------------------------------------------------------------


class AmbiguousMatch(Exception):
    """Two occurrences equally near the source's relative position."""


def locate_mention(context: str, mention: str, source_start: int,
                   source_length: int, stats: Counter = None):
    """(start, end, tier) for the translated mention inside the translated
    context, or None when no tier matches.

    Ties on relative position are compared exactly with cross-multiplied
    integers: |hit * source_length - source_start * len(context)|.
    """
    tiers = (("exact", context, mention),
             ("case_insensitive", _lower(context), _lower(mention)),
             ("accent_folded", accent_fold(_lower(context)),
              accent_fold(_lower(mention))))
    for tier, hay, needle in tiers:
        if not needle:
            return None
        hits = ft.occurrences(hay, needle)
        if not hits:
            continue
        if len(hits) == 1:
            hit = hits[0]
        else:
            def distance(h):
                return abs(h * source_length - source_start * len(context))
            best = min(distance(h) for h in hits)
            nearest = [h for h in hits if distance(h) == best]
            if len(nearest) > 1:
                raise AmbiguousMatch(
                    f"{mention!r}: occurrences at {nearest} equally near "
                    f"relative position {source_start}/{source_length}")
            hit = nearest[0]
        if stats is not None:
            stats[tier] += 1
        return hit, hit + len(needle), tier
    return None


# ---------------------------------------------------------------------------
# per-example realignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dropped:
    uid: str
    reason: str
    detail: str = ""

    def __post_init__(self):
        if self.reason not in DROP_REASONS:
            raise ValidationError(f"unknown drop reason {self.reason!r}")


def _relocate(uid, source, translated, mentions, translator, stats):
    """Located (start, end) in `translated` of each (mention, start in
    `source`), in order, or the first Dropped. Every mention is counted as an
    annotation before it is located; one given as a Dropped (an empty RE
    marker) is returned in its turn."""
    if not translated.strip():
        return Dropped(uid, "empty_translation")
    located = []
    for mention, start in mentions:
        stats["annotations"] += 1
        if isinstance(mention, Dropped):
            return mention
        target = _translated(translator, mention)
        if not target.strip():
            return Dropped(uid, "mention_not_found", f"mention {mention!r} translated to nothing")
        try:
            hit = locate_mention(translated, target, start, len(source), stats)
        except AmbiguousMatch as exc:
            return Dropped(uid, "ambiguous_after_policy", str(exc))
        if hit is None:
            return Dropped(uid, "mention_not_found", f"{target!r} not in translated context")
        located.append(hit[:2])
    return located


def _spans_overlap(located) -> bool:
    ordered = sorted(located)
    return any(b[0] < a[1] for a, b in zip(ordered, ordered[1:]))


def _realign_ner(example, translator, stats):
    text, spans = example.text, example.spans
    translated = _translated(translator, text)
    got = _relocate(example.uid, text, translated,
                    [(text[s.start: s.end], s.start) for s in spans], translator, stats)
    if isinstance(got, Dropped):
        return got
    located = [ft.Span(start, end, s.label) for (start, end), s in zip(got, spans)]
    if translated == text and tuple(located) == spans:
        return example   # nothing moved: keep the input bit-for-bit
    if _spans_overlap(got):
        return Dropped(example.uid, "ambiguous_after_policy", "located spans overlap")
    located.sort(key=lambda s: s.start)
    words = tk.pretokenize_spans(translated)
    entities = ft.span_entities([(start, end) for _, start, end in words], located)
    if _spans_overlap([e[:2] for e in entities]):
        return Dropped(example.uid, "ambiguous_after_policy", "located spans split a word")
    return ft.NerExample(uid=example.uid, tokens=tuple(w for w, _, _ in words),
                         tags=ft.bio_encode(entities, len(words)), text=translated,
                         spans=tuple(located))


def _realign_qa(example, translator, stats):
    context = _translated(translator, example.context)
    question = _translated(translator, example.question)
    if context.strip() and not question.strip():
        return Dropped(example.uid, "empty_translation", "question vanished")
    got = _relocate(example.uid, example.context, context,
                    [(a.text, a.answer_start) for a in example.answers], translator, stats)
    if isinstance(got, Dropped):
        return got
    answers = tuple(ft.Answer(context[start: end], start) for start, end in got)
    if (context == example.context and question == example.question
            and answers == example.answers):
        return example
    return ft.QaExample(uid=example.uid, question=question, context=context,
                        answers=answers)


_MARKER = re.compile(r"<e(\d)>(.*?)</e\1>")


def _strip_markers(text: str):
    """(plain text, [(marker number, content, start in plain text)])."""
    mentions, parts, pos, out_len = [], [], 0, 0
    for m in _MARKER.finditer(text):
        parts.append(text[pos: m.start()])
        out_len += m.start() - pos
        mentions.append((m.group(1), m.group(2), out_len))
        parts.append(m.group(2))
        out_len += len(m.group(2))
        pos = m.end()
    parts.append(text[pos:])
    return "".join(parts), mentions


def _realign_re(example, translator, stats):
    plain, markers = _strip_markers(example.text)
    translated = _translated(translator, plain)
    got = _relocate(example.uid, plain, translated, [
        (content if content.strip() else
         Dropped(example.uid, "mention_not_found", f"empty <e{number}> marker"), start)
        for number, content, start in markers], translator, stats)
    if isinstance(got, Dropped):
        return got
    if _spans_overlap(got):
        return Dropped(example.uid, "ambiguous_after_policy", "located markers overlap")
    rebuilt = translated
    for (number, _, _), (start, end) in sorted(zip(markers, got), key=lambda m: -m[1][0]):
        rebuilt = (rebuilt[:start] + f"<e{number}>" + rebuilt[start:end]
                   + f"</e{number}>" + rebuilt[end:])
    if rebuilt == example.text:
        return example
    return ft.ReExample(uid=example.uid, text=rebuilt, relation=example.relation)


_REALIGNERS = {ft.NerExample: _realign_ner, ft.QaExample: _realign_qa,
               ft.ReExample: _realign_re}


def realign_example(example, translator, stats: Counter = None):
    """Translated example with corrected annotation indices, or Dropped."""
    realign = _REALIGNERS.get(type(example))
    if realign is None:
        raise InputError(f"cannot realign {type(example).__name__}")
    return realign(example, translator, Counter() if stats is None else stats)


# ---------------------------------------------------------------------------
# dataset-level map and reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealignmentReport:
    total: int
    kept: int
    dropped: dict            # reason -> count, all reasons always present
    located_by: dict         # tier -> count over surviving location attempts
    annotations: int
    problems: tuple = ()     # human-readable audit line per dropped example

    def __post_init__(self):
        object.__setattr__(self, "dropped",
                           {r: int(self.dropped.get(r, 0)) for r in DROP_REASONS})
        object.__setattr__(self, "located_by",
                           {t: int(self.located_by.get(t, 0)) for t in LOCATION_TIERS})
        object.__setattr__(self, "problems", tuple(self.problems))
        if self.kept + sum(self.dropped.values()) != self.total:
            raise ValidationError(
                f"report does not balance: kept {self.kept} + dropped "
                f"{sum(self.dropped.values())} != total {self.total}")

    @property
    def dropped_total(self) -> int:
        return sum(self.dropped.values())

    @property
    def drop_rate(self) -> float:
        """Percentage of examples dropped."""
        return 100.0 * self.dropped_total / self.total if self.total else 0.0

    def to_dict(self):
        return {"total": self.total, "kept": self.kept,
                "dropped": dict(self.dropped),
                "located_by": dict(self.located_by),
                "annotations": self.annotations,
                "drop_rate": self.drop_rate,
                "problems": list(self.problems)}


def realign_examples(examples, translator):
    """(surviving examples in order, RealignmentReport)."""
    stats = Counter()
    kept, drops, problems = [], Counter(), []
    for example in examples:
        result = realign_example(example, translator, stats)
        if isinstance(result, Dropped):
            drops[result.reason] += 1
            note = f"{result.uid}: {result.reason}"
            problems.append(note + (f" ({result.detail})" if result.detail else ""))
        else:
            kept.append(result)
    report = RealignmentReport(
        total=len(kept) + sum(drops.values()), kept=len(kept),
        dropped=dict(drops),
        located_by={t: stats[t] for t in LOCATION_TIERS},
        annotations=stats["annotations"], problems=problems)
    return tuple(kept), report


def realign_dataset(dataset: ft.TaskDataset, translator):
    """(translated TaskDataset, {split name -> RealignmentReport})."""
    out, reports = {}, {}
    for split in ("train", "dev", "test"):
        kept, report = realign_examples(getattr(dataset, split), translator)
        if not kept:
            raise InputError(
                f"translation dropped every example in the {split} split "
                f"({report.dropped_total} of {report.total})")
        out[split] = kept
        reports[split] = report
    translated = ft.TaskDataset(task=dataset.task, train=out["train"],
                                dev=out["dev"], test=out["test"],
                                negative_label=dataset.negative_label)
    return translated, reports


def summary_table(reports: dict) -> str:
    """Per-split drop accounting as a fixed-width text table."""
    header = (f"{'split':<8} {'total':>6} {'kept':>6} {'not_found':>10} "
              f"{'ambiguous':>10} {'empty':>6} {'drop%':>7}")
    lines = [header]
    for split, r in reports.items():
        lines.append(f"{split:<8} {r.total:>6} {r.kept:>6} "
                     f"{r.dropped['mention_not_found']:>10} "
                     f"{r.dropped['ambiguous_after_policy']:>10} "
                     f"{r.dropped['empty_translation']:>6} "
                     f"{r.drop_rate:>6.1f}%")
    total = sum(r.total for r in reports.values())
    dropped = sum(r.dropped_total for r in reports.values())
    rate = 100.0 * dropped / total if total else 0.0
    lines.append(f"{'overall':<8} {total:>6} {total - dropped:>6} "
                 f"{'':>10} {'':>10} {'':>6} {rate:>6.1f}%")
    return "\n".join(lines) + "\n"

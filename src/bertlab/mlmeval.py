"""Intrinsic evaluation of a masked-language model.

Pseudo-perplexity: every token position of every sentence is masked one at a
time, the log-probability of the original token is recorded, and the corpus
value is exp of the negative mean. Top-5 mean reciprocal rank: curated items
each mask one word; the model's five most probable tokens are ranked and the
item scores 1/rank (0 if the target is missing). Items whose target is not a
single vocabulary token cannot be ranked against a token list and are
excluded and reported, never silently dropped.

Scorers are callables log_probs = scorer(input_ids, attention_mask,
positions) returning one log-probability row per masked position, which
keeps the metrics testable against hand-built distributions.
"""

import ctypes
import functools
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import model as md
from .errors import (ConfigurationError, InputError, NumericFault, ValidationError,
                     read_json_lines)
from .tokenizer import Vocabulary, encode, normalize

EXCLUDED_NOT_SINGLE_TOKEN = "target_is_not_a_single_vocabulary_token"


@functools.cache
def _openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when this numpy has no such library."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")) if libs.is_dir() else []:
        dll = ctypes.CDLL(str(lib))
        get = getattr(dll, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(dll, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            return get, set_
    return None


@contextmanager
def _one_blas_thread():
    get, set_ = _openblas()
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


def _run_parallel(work, args, n_workers: int) -> list:
    """[work(a) for a in args], the args claimed in order by the caller and
    n_workers - 1 pool threads, all joined before this returns. An error
    stops further claims; the caller's own is raised, else a helper's."""
    out = [None] * len(args)
    claim = itertools.count()  # next() on it is one step under the GIL
    failed = threading.Event()

    def worker():
        try:
            while not failed.is_set():
                k = next(claim)
                if k >= len(args):
                    return
                out[k] = work(args[k])
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(n_workers - 1) as pool:
        helpers = [pool.submit(worker) for _ in range(n_workers - 1)]
        worker()
    for helper in helpers:
        helper.result()
    return out


class ModelScorer:
    """Bound model evaluated in inference mode.

    The encoder runs over chunks of at most chunk_size rows, on one worker
    per CPU this process may run on (the caller plus pool threads), with
    OpenBLAS held to one thread while they run; without numpy's bundled
    OpenBLAS one worker does it all. The MLM head then decodes every scored
    row of the call at once, so the log-probabilities depend on neither the
    chunk size nor the worker count. The thread count and `no_grad` are
    process-wide, so one call runs at a time.
    """

    def __init__(self, params: dict, config: md.ModelConfig, chunk_size: int = 16):
        self.params = params
        self.config = config
        self.chunk_size = chunk_size

    def __call__(self, input_ids, attention_mask, positions) -> np.ndarray:
        input_ids = np.asarray(input_ids)
        attention_mask = np.asarray(attention_mask)
        positions = np.asarray(positions)
        if input_ids.ndim != 2 or positions.shape != input_ids.shape[:1]:
            raise ConfigurationError(
                f"positions {positions.shape} must hold one entry per row of ids "
                f"{input_ids.shape}")
        if not np.issubdtype(positions.dtype, np.integer):
            raise ConfigurationError(f"positions must be integers, got {positions.dtype}")
        length = input_ids.shape[1]
        outside = positions[(positions < 0) | (positions >= length)]
        if outside.size:
            raise ConfigurationError(f"position {int(outside[0])} outside [0, {length})")

        def encode(lo):
            # the hidden state of the one scored row of each sequence
            hi = lo + self.chunk_size
            ids = input_ids[lo:hi]
            hidden = md.forward_encoder(self.params, self.config, ids,
                                        np.zeros_like(ids), attention_mask[lo:hi])
            flat = np.arange(len(ids)) * length + positions[lo:hi]
            return md.gather_rows(hidden, flat).data

        starts = range(0, len(input_ids), self.chunk_size)
        n_workers = min(len(os.sched_getaffinity(0)), len(starts))
        with ad.no_grad():
            if n_workers > 1 and _openblas() is not None:
                with _one_blas_thread():
                    parts = _run_parallel(encode, starts, n_workers)
            else:
                parts = [encode(lo) for lo in starts]
            rows = np.concatenate(parts)
            with ad.precision(rows.dtype):  # a Tensor takes the default dtype
                logits = md.mlm_logits(ad.Tensor(rows), self.params, self.config)
        picked = logits.data.astype(np.float64)
        shifted = picked - picked.max(axis=-1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _check_log_probs(lp: np.ndarray) -> None:
    if not np.isfinite(lp).all() or lp.max() > 1e-9:
        raise NumericFault("scorer returned invalid log-probabilities")


# ---------------------------------------------------------------------------
# pseudo-perplexity
# ---------------------------------------------------------------------------


@dataclass
class PpplResult:
    value: float
    n_tokens: int
    per_sentence: list = field(default_factory=list)  # (n_tokens, mean_nll)


def _sentence_variants(ids, vocab: Vocabulary):
    """All one-position maskings of [CLS] ids [SEP]; returns (batch, positions, targets)."""
    base = np.array([vocab.cls_id] + list(ids) + [vocab.sep_id])
    n = len(ids)
    batch = np.tile(base, (n, 1))
    positions = 1 + np.arange(n)
    batch[np.arange(n), positions] = vocab.mask_id
    return batch, positions, np.array(ids)


def pppl(scorer, sentences, vocab: Vocabulary, max_seq_len: int) -> PpplResult:
    """exp(-(1/N) sum over all maskings of log p(token | rest of sentence))."""
    all_logs = []
    per_sentence = []
    for idx, text in enumerate(sentences):
        ids = encode(text, vocab).ids
        if not ids:
            continue
        if len(ids) + 2 > max_seq_len:
            raise InputError(
                f"sentence {idx} has {len(ids)} pieces; limit is {max_seq_len - 2} "
                f"(split long sentences upstream)")
        batch, positions, targets = _sentence_variants(ids, vocab)
        lp = scorer(batch, np.ones_like(batch), positions)
        _check_log_probs(lp)
        picked = lp[np.arange(len(targets)), targets]
        all_logs.extend(picked.tolist())
        per_sentence.append((len(targets), -math.fsum(picked) / len(targets)))
    if not all_logs:
        raise InputError("evaluation corpus contains no scorable tokens")
    value = math.exp(-math.fsum(all_logs) / len(all_logs))
    assert value >= 1.0, value  # log p <= 0 guarantees this
    return PpplResult(value=value, n_tokens=len(all_logs), per_sentence=per_sentence)


def pppl_naive(scorer, sentences, vocab: Vocabulary, max_seq_len: int) -> PpplResult:
    """Reference implementation: one scorer call per masking."""
    all_logs = []
    for text in sentences:
        ids = encode(text, vocab).ids
        if not ids:
            continue
        if len(ids) + 2 > max_seq_len:
            raise InputError("sentence too long for the naive scorer")
        batch, positions, targets = _sentence_variants(ids, vocab)
        for i in range(len(targets)):
            lp = scorer(batch[i:i + 1], np.ones((1, batch.shape[1]), dtype=np.int64),
                        positions[i:i + 1])
            _check_log_probs(lp)
            all_logs.append(float(lp[0, targets[i]]))
    if not all_logs:
        raise InputError("evaluation corpus contains no scorable tokens")
    return PpplResult(value=math.exp(-math.fsum(all_logs) / len(all_logs)),
                      n_tokens=len(all_logs))


# ---------------------------------------------------------------------------
# masked-item set and mean reciprocal rank
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaskedEvalItem:
    source_id: str
    text: str
    start: int
    end: int
    answer: str
    subdomain: str = ""


def load_masked_set(path):
    """Read the one-record-per-line file {id, text, maskings: [{start, end,
    answer}], subdomain}; each masking becomes one single-mask item. Returns
    (items, report). Malformed spans raise with every offender listed."""
    problems = []
    items = []
    seen_ids = set()
    n_records = 0
    for lineno, rec in read_json_lines(path, "masked set", problems):
        n_records += 1
        rid = str(rec.get("id", f"line{lineno}"))
        if rid in seen_ids:
            problems.append(f"{rid}: duplicate id")
        seen_ids.add(rid)
        text = rec.get("text")
        maskings = rec.get("maskings")
        if not isinstance(text, str) or not isinstance(maskings, list) or not maskings:
            problems.append(f"{rid}: needs 'text' and a non-empty 'maskings' list")
            continue
        spans = []
        for m in maskings:
            if not isinstance(m, dict):
                problems.append(f"{rid}: masking {m!r} is not an object")
                continue
            start, end, answer = m.get("start"), m.get("end"), m.get("answer")
            if not (type(start) is int and type(end) is int
                    and 0 <= start < end <= len(text)):
                problems.append(f"{rid}: span [{start}, {end}) out of bounds for text length {len(text)}")
                continue
            if text[start:end] != answer:
                problems.append(
                    f"{rid}: span [{start}, {end}) reads {text[start:end]!r}, not {answer!r}")
                continue
            spans.append((start, end))
            items.append(MaskedEvalItem(source_id=rid, text=text, start=start, end=end,
                                        answer=answer, subdomain=str(rec.get("subdomain", ""))))
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            if s2 < e1:
                problems.append(f"{rid}: overlapping spans [{s1}, {e1}) and [{s2}, {e2})")
    if problems:
        raise ValidationError("masked set is invalid", items=problems)
    return items, {"sentences": n_records, "items": len(items)}


@dataclass
class ItemRanking:
    item: MaskedEvalItem
    rank: int            # 0 = target absent from the top five
    top5: list           # (token, probability), non-increasing
    score: float


@dataclass
class MrrResult:
    value: float
    rankings: list
    excluded: list       # (item, reason)
    by_sentence: dict    # source_id -> mean item score (secondary view)

    @property
    def n_scored(self):
        return len(self.rankings)


def _single_token_id(answer: str, vocab: Vocabulary):
    return vocab.ids.get(normalize(answer, vocab.lowercase))


def mrr_top5(scorer, items, vocab: Vocabulary, max_seq_len: int) -> MrrResult:
    """Mean over maskings of 1/rank within the model's top five, 0 when absent.
    Ties in probability break toward the lower token id."""
    rankings = []
    excluded = []
    for item in items:
        target = _single_token_id(item.answer, vocab)
        if target is None:
            excluded.append((item, EXCLUDED_NOT_SINGLE_TOKEN))
            continue
        prefix = encode(item.text[:item.start], vocab).ids
        suffix = encode(item.text[item.end:], vocab).ids
        ids = np.array([[vocab.cls_id, *prefix, vocab.mask_id, *suffix, vocab.sep_id]])
        if ids.shape[1] > max_seq_len:
            raise InputError(f"item {item.source_id} exceeds max_seq_len {max_seq_len}")
        position = np.array([1 + len(prefix)])
        lp = scorer(ids, np.ones_like(ids), position)
        _check_log_probs(lp)
        row = lp[0]
        order = np.lexsort((np.arange(len(row)), -row))[:5]
        top5 = [(vocab.tokens[i], float(math.exp(row[i]))) for i in order]
        where = np.nonzero(order == target)[0]
        rank = int(where[0]) + 1 if len(where) else 0
        score = 1.0 / rank if rank else 0.0
        rankings.append(ItemRanking(item=item, rank=rank, top5=top5, score=score))
    if not rankings:
        raise InputError("no scorable items: every target failed the single-token rule")
    value = math.fsum(r.score for r in rankings) / len(rankings)
    by_sentence = {}
    for r in rankings:
        by_sentence.setdefault(r.item.source_id, []).append(r.score)
    by_sentence = {sid: math.fsum(s) / len(s) for sid, s in sorted(by_sentence.items())}
    return MrrResult(value=value, rankings=rankings, excluded=excluded,
                     by_sentence=by_sentence)

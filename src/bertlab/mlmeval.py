"""Intrinsic evaluation of a masked-language model.

Pseudo-perplexity: every token position of every sentence is masked one at a
time, the log-probability of the original token is recorded, and the corpus
value is exp of the negative mean. Top-5 mean reciprocal rank: curated items
each mask one word; the model's five most probable tokens are ranked and the
item scores 1/rank (0 if the target is missing). Items whose target is not a
single vocabulary token cannot be ranked against a token list and are
excluded and reported, never silently dropped.

Scorers are callables log_probs = scorer(input_ids, attention_mask,
positions): ids and mask (..., W) and positions (...) name one masked
position per row, and log_probs (..., V) holds the full log-probability row
at each, which keeps the metrics testable against hand-built distributions.
A 2-D call scores n rows. `pppl` and `mrr_top5` stack the rows of several
sentences or items of one width as (k, n, W), at most max_seq_len - 2 rows
per call, the most one sentence's maskings fill.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model as md
from .errors import (ConfigurationError, InputError, NumericFault, ValidationError,
                     read_json_lines)
from .tokenizer import Vocabulary, encode, encode_all, normalize

EXCLUDED_NOT_SINGLE_TOKEN = "target_is_not_a_single_vocabulary_token"


class ModelScorer:
    """Bound model evaluated in inference mode.

    The encoder runs over the call's rows, leading dimensions flattened, in
    chunks shared among `autodiff.workers` threads (one per CPU this process
    may run on, the caller among them) with OpenBLAS held to one thread
    while they run; without numpy's bundled OpenBLAS one worker does it all.
    A chunk holds at least chunk_size rows and at least
    `autodiff._SPLIT_MIN` hidden-state elements (rows x W x H), so a call
    with less work than that runs whole in the calling thread and starts no
    helper. Each chunk's encoder returns only its scored rows: the last
    layer runs its output projection, FFN and norms on those rows alone
    (`model.forward_encoder`'s rows), with the bits of the full layer. The
    MLM head then decodes the scored rows in one call, stacked
    as (..., H): numpy runs a 3-D product as one product per leading index,
    so a (k, n, W) call gives the bits of k (n, W) calls (a flattened
    (k * n, H) product would not). The log-probabilities depend on neither
    the chunk size nor the worker count.
    Called on its own, the head runs with OpenBLAS's thread count restored;
    called inside a `workers` context whose helpers have started (held-out
    PPPL during desk pretraining), on one OpenBLAS thread, which gives the
    same bits at the desk head's shape in float64 (tests/test_mlmeval.py).
    The thread count and `no_grad` are process-wide, so one call runs at a
    time. A call with no rows returns an empty (..., V) array.
    """

    def __init__(self, params: dict, config: md.ModelConfig, chunk_size: int = 16):
        self.params = params
        self.config = config
        self.chunk_size = chunk_size

    def __call__(self, input_ids, attention_mask, positions) -> np.ndarray:
        input_ids = np.asarray(input_ids)
        attention_mask = np.asarray(attention_mask)
        positions = np.asarray(positions)
        if input_ids.ndim < 2 or positions.shape != input_ids.shape[:-1]:
            raise ConfigurationError(
                f"positions {positions.shape} must hold one entry per row of ids "
                f"{input_ids.shape}")
        if attention_mask.shape != input_ids.shape:
            raise ConfigurationError(
                f"attention mask {attention_mask.shape} must match ids {input_ids.shape}")
        if not np.issubdtype(positions.dtype, np.integer):
            raise ConfigurationError(f"positions must be integers, got {positions.dtype}")
        length = input_ids.shape[-1]
        outside = positions[(positions < 0) | (positions >= length)]
        if outside.size:
            raise ConfigurationError(f"position {int(outside[0])} outside [0, {length})")
        lead = positions.shape
        if not positions.size:
            return np.empty(lead + (self.config.vocab_size,))
        input_ids = input_ids.reshape(-1, length)
        attention_mask = attention_mask.reshape(-1, length)
        positions = positions.reshape(-1)
        row_elements = max(1, length * self.config.hidden_dim)
        chunk = max(self.chunk_size, -(-ad._SPLIT_MIN // row_elements))

        def encode(lo):
            # the hidden state of the one scored row of each sequence
            hi = lo + chunk
            ids = input_ids[lo:hi]
            flat = np.arange(len(ids)) * length + positions[lo:hi]
            return md.forward_encoder(self.params, self.config, ids, np.zeros_like(ids),
                                      attention_mask[lo:hi], flat).data

        starts = range(0, len(input_ids), chunk)
        with ad.no_grad():
            with ad.workers(len(starts)):
                rows = np.concatenate(ad.share(encode, starts))
            rows = rows.reshape(lead + rows.shape[-1:])
            with ad.precision(rows.dtype):  # a Tensor takes the default dtype
                logits = md.mlm_logits(ad.Tensor(rows), self.params, self.config)
        picked = logits.data.astype(np.float64)
        shifted = picked - picked.max(axis=-1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _valid(lp: np.ndarray) -> bool:
    return bool(np.isfinite(lp).all() and lp.max() <= 1e-9)


def _check_log_probs(lp: np.ndarray) -> None:
    if not _valid(lp):
        raise NumericFault("scorer returned invalid log-probabilities")


def _stacks(widths, per_call):
    """Index lists for stacked scorer calls, from (index, width) pairs: the
    indices of one width in order, at most per_call(width) to a list, the
    widths in order of first appearance."""
    groups = {}
    for i, width in widths:
        groups.setdefault(width, []).append(i)
    for width, members in groups.items():
        step = per_call(width)
        for lo in range(0, len(members), step):
            yield members[lo:lo + step]


def _score(scorer, batch: np.ndarray, positions: np.ndarray) -> np.ndarray:
    lp = scorer(batch, np.ones_like(batch), positions)
    if lp.shape[:-1] != positions.shape:
        raise ConfigurationError(
            f"scorer returned log-probabilities {lp.shape} for positions {positions.shape}")
    return lp


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
    """exp(-(1/N) sum over all maskings of log p(token | rest of sentence)).

    The sentences before the first one too long to score are scored in
    stacked calls, sentences of n pieces (k, n, n + 2) at a time; then they
    are walked in corpus order, so the first fault in that order is raised."""
    encoded = [seq.ids for seq, _ in encode_all(sentences, vocab)]
    limit = max_seq_len - 2
    too_long = next((i for i, ids in enumerate(encoded) if ids and len(ids) > limit),
                    len(encoded))
    picked = {}   # sentence index -> log p of each of its tokens, None if invalid
    for group in _stacks(((i, len(encoded[i])) for i in range(too_long) if encoded[i]),
                         lambda n: limit // n):
        n = len(encoded[group[0]])
        base = np.array([[vocab.cls_id, *encoded[i], vocab.sep_id] for i in group])
        batch = np.repeat(base[:, None], n, axis=1)
        positions = np.tile(1 + np.arange(n), (len(group), 1))
        batch[:, np.arange(n), positions[0]] = vocab.mask_id
        lp = _score(scorer, batch, positions)
        for i, rows, targets in zip(group, lp, base[:, 1:-1]):
            picked[i] = rows[np.arange(n), targets] if _valid(rows) else None
    all_logs = []
    per_sentence = []
    for idx, ids in enumerate(encoded):
        if not ids:
            continue
        if idx == too_long:
            raise InputError(
                f"sentence {idx} has {len(ids)} pieces; limit is {limit} "
                f"(split long sentences upstream)")
        if picked[idx] is None:
            raise NumericFault("scorer returned invalid log-probabilities")
        all_logs.extend(picked[idx].tolist())
        per_sentence.append((len(ids), -math.fsum(picked[idx]) / len(ids)))
    if not all_logs:
        raise InputError("evaluation corpus contains no scorable tokens")
    value = math.exp(-math.fsum(all_logs) / len(all_logs))
    assert value >= 1.0, value  # log p <= 0 guarantees this
    return PpplResult(value=value, n_tokens=len(all_logs), per_sentence=per_sentence)


def pppl_naive(scorer, sentences, vocab: Vocabulary, max_seq_len: int) -> PpplResult:
    """Reference implementation: one scorer call per masking."""
    all_logs = []
    for seq, _ in encode_all(sentences, vocab):
        ids = seq.ids
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


def _rank(row: np.ndarray, target: int, vocab: Vocabulary) -> tuple:
    """(rank of target among the five most probable tokens, 0 if absent;
    those five as (token, probability))."""
    order = np.lexsort((np.arange(len(row)), -row))[:5]
    top5 = [(vocab.tokens[i], float(math.exp(row[i]))) for i in order]
    where = np.nonzero(order == target)[0]
    return (int(where[0]) + 1 if len(where) else 0), top5


def mrr_top5(scorer, items, vocab: Vocabulary, max_seq_len: int) -> MrrResult:
    """Mean over maskings of 1/rank within the model's top five, 0 when absent.
    Ties in probability break toward the lower token id.

    The items before the first one too long to score are scored in stacked
    calls, items of width W (k, 1, W) at a time; then they are walked in
    order, so the first fault in that order is raised."""
    targets, rows, positions = {}, {}, {}
    too_long = len(items)
    for i, item in enumerate(items):
        targets[i] = _single_token_id(item.answer, vocab)
        if targets[i] is None:
            continue
        prefix = encode(item.text[:item.start], vocab).ids
        suffix = encode(item.text[item.end:], vocab).ids
        rows[i] = [vocab.cls_id, *prefix, vocab.mask_id, *suffix, vocab.sep_id]
        positions[i] = 1 + len(prefix)
        if len(rows[i]) > max_seq_len:
            too_long = i
            break
    ranked = {}   # item index -> (rank, top5), None if its log-probs are invalid
    for group in _stacks(((i, len(rows[i])) for i in rows if i < too_long),
                         lambda width: max_seq_len - 2):
        lp = _score(scorer, np.array([[rows[i]] for i in group]),
                    np.array([[positions[i]] for i in group]))
        for i, (row,) in zip(group, lp):
            ranked[i] = _rank(row, targets[i], vocab) if _valid(row) else None
    rankings = []
    excluded = []
    for i, item in enumerate(items):
        if targets[i] is None:
            excluded.append((item, EXCLUDED_NOT_SINGLE_TOKEN))
            continue
        if i == too_long:
            raise InputError(f"item {item.source_id} exceeds max_seq_len {max_seq_len}")
        if ranked[i] is None:
            raise NumericFault("scorer returned invalid log-probabilities")
        rank, top5 = ranked[i]
        rankings.append(ItemRanking(item=item, rank=rank, top5=top5,
                                    score=1.0 / rank if rank else 0.0))
    if not rankings:
        raise InputError("no scorable items: every target failed the single-token rule")
    value = math.fsum(r.score for r in rankings) / len(rankings)
    by_sentence = {}
    for r in rankings:
        by_sentence.setdefault(r.item.source_id, []).append(r.score)
    by_sentence = {sid: math.fsum(s) / len(s) for sid, s in sorted(by_sentence.items())}
    return MrrResult(value=value, rankings=rankings, excluded=excluded,
                     by_sentence=by_sentence)

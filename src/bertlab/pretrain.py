"""Corpus preparation, masked-token/next-sentence batching, Adam, the
learning-rate schedule, and the (continued-)pretraining loop.

Batches are a pure function of (seed, step): every sampling decision for step
s draws from a substream derived from the plan seed and s, so a run resumed
from a checkpoint consumes exactly the same batch sequence and stays
bit-identical to an uninterrupted run. The loop composes the forgetting
mitigations: per-parameter learning-rate factors, frozen paths that take no
gradient, mixout-wrapped forward passes, and replay batches on the 1-based
steps divisible by the replay frequency.
"""

import json
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from . import mlmeval
from . import model as md
from .autodiff import IGNORE_INDEX
from .errors import (ConfigurationError, DimensionError, InputError, NumericFault, Record,
                     ValidationError, read_json_lines, read_text, within)
from .mitigation import (CFConfig, frozen_paths, is_replay_step, llrd_factors,
                         mixout_apply, take_anchor)
from .model import ModelState
from .seeding import substream
from .tokenizer import Vocabulary, encode_all

NSP_IS_NEXT = 0
NSP_NOT_NEXT = 1

METRIC_FIELDS = ("step", "mlm_loss", "nsp_loss", "lr", "pppl_heldout")


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Corpus:
    """Documents as ordered sentence tuples; order matters for NSP."""
    documents: tuple

    def __post_init__(self):
        object.__setattr__(self, "documents",
                           tuple(tuple(doc) for doc in self.documents))
        for i, doc in enumerate(self.documents):
            if not doc:
                raise InputError(f"document {i} has no sentences")
            if any(not s.strip() for s in doc):
                raise InputError(f"document {i} contains a blank sentence")

    @property
    def n_sentences(self):
        return sum(len(d) for d in self.documents)


def load_corpus(path) -> Corpus:
    """One sentence per line; a blank line closes the current document."""
    docs, current = [], []
    for line in read_text(path, "corpus").split("\n"):
        line = line.strip()
        if line:
            current.append(line)
        elif current:
            docs.append(tuple(current))
            current = []
    if current:
        docs.append(tuple(current))
    if not docs:
        raise InputError(f"corpus {path} contains no documents")
    return Corpus(documents=tuple(docs))


def split_heldout(corpus: Corpus, fraction: float):
    """(train, heldout): the heldout part is the last `fraction` of documents,
    at least one whenever a split is requested and possible."""
    n = len(corpus.documents)
    if fraction <= 0.0 or n < 2:
        return corpus, Corpus(documents=())
    k = int(round(fraction * n))
    k = max(1, min(k, n - 1))
    return (Corpus(documents=corpus.documents[: n - k]),
            Corpus(documents=corpus.documents[n - k:]))


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainPlan(Record):
    peak_lr: float = within("(0, inf)")
    total_steps: int = within("[0, inf)")
    batch_size: int = within("[1, inf)")
    warmup_fraction: float = within("[0, 1)", 0.0)
    seed: int = 0
    max_seq_len: int = within("[8, inf)", 128)
    cf: CFConfig = None
    adam_beta1: float = within("[0, 1)", 0.9)
    adam_beta2: float = within("[0, 1)", 0.999)
    adam_eps: float = within("(0, inf)", 1e-8)
    weight_decay: float = within("[0, inf)", 0.01)
    mask_rate: float = within("(0, 1)", 0.15)
    mask_prob: float = within("[0, 1]", 0.8)
    random_prob: float = within("[0, 1]", 0.1)
    mask_only: bool = False
    whole_word_masking: bool = False
    heldout_fraction: float = within("[0, 1)", 0.05)
    eval_every: int = within("[1, inf)", 100)
    eval_sentences: int = within("[0, inf)", 8)

    def __post_init__(self):
        super().__post_init__()
        if self.mask_prob + self.random_prob > 1.0:
            raise ConfigurationError(
                f"corruption split {self.mask_prob}/{self.random_prob} invalid")

    @property
    def effective_warmup_fraction(self):
        if self.cf is not None and self.cf.warmup_fraction is not None:
            return self.cf.warmup_fraction
        return self.warmup_fraction


def lr_at(step: int, plan: TrainPlan) -> float:
    """Linear ramp to peak over the warmup span, then linear decay hitting
    zero on the final step."""
    total = plan.total_steps
    if not 0 <= step < total:
        raise ValueError(f"step {step} outside schedule of {total} steps")
    if total == 1:
        return plan.peak_lr
    warmup_steps = int(round(plan.effective_warmup_fraction * total))
    if step < warmup_steps:
        return plan.peak_lr * step / warmup_steps
    denom = total - 1 - warmup_steps
    if denom <= 0:
        return plan.peak_lr
    return plan.peak_lr * (total - 1 - step) / denom


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PretrainBatch:
    input_ids: np.ndarray       # (B, L) with MASK/random substitutions applied
    segment_ids: np.ndarray     # (B, L) 0 for first segment, 1 for second
    attention_mask: np.ndarray  # (B, L) 1 real, 0 pad
    mlm_targets: np.ndarray     # (B, L) original id at selected positions, else -100
    nsp_labels: np.ndarray      # (B,) 0 = is_next, 1 = not_next


def mask_selection_count(n_maskable: int, mask_rate: float) -> int:
    """max(1, rate * n rounded half-up); at most n_maskable."""
    if n_maskable < 1:
        return 0
    return min(n_maskable, max(1, int(mask_rate * n_maskable + 0.5)))


class BatchStream:
    """Deterministic batch source over a corpus; batch(step) depends only on
    (plan.seed, label, step) and the corpus content."""

    def __init__(self, corpus: Corpus, vocab: Vocabulary, plan: TrainPlan,
                 label: str = "batch"):
        self.vocab = vocab
        self.plan = plan
        self.label = label
        encoded = iter(encode_all((s for doc in corpus.documents for s in doc), vocab))
        self.doc_ids = [[next(encoded)[0].ids for _ in doc] for doc in corpus.documents]
        self.doc_ids = [[ids for ids in doc if ids] for doc in self.doc_ids]
        self.doc_ids = [doc for doc in self.doc_ids if doc]
        if len(self.doc_ids) < 2:
            raise InputError(
                f"corpus needs at least 2 documents for pair sampling, has {len(self.doc_ids)}")
        self.pair_docs = [i for i, doc in enumerate(self.doc_ids) if len(doc) >= 2]
        if not self.pair_docs:
            raise InputError("no document has 2+ sentences; cannot sample is_next pairs")
        special = vocab.special_ids()
        self.random_pool = np.array([i for i in range(len(vocab)) if i not in special])
        self.continuation = np.array(
            [t.startswith("##") and i not in special for i, t in enumerate(vocab.tokens)])

    def sample_pair(self, rng: np.random.Generator):
        """(ids_a, ids_b, nsp_label); single-sentence documents only ever
        supply the random second segment."""
        if rng.random() < 0.5:
            d = self.pair_docs[int(rng.integers(len(self.pair_docs)))]
            doc = self.doc_ids[d]
            i = int(rng.integers(len(doc) - 1))
            return list(doc[i]), list(doc[i + 1]), NSP_IS_NEXT
        da = self.pair_docs[int(rng.integers(len(self.pair_docs)))]
        a = self.doc_ids[da][int(rng.integers(len(self.doc_ids[da])))]
        db = int(rng.integers(len(self.doc_ids) - 1))
        if db >= da:
            db += 1
        b = self.doc_ids[db][int(rng.integers(len(self.doc_ids[db])))]
        return list(a), list(b), NSP_NOT_NEXT

    def _assemble(self, a, b):
        budget = self.plan.max_seq_len - 3
        while len(a) + len(b) > budget:
            (a if len(a) >= len(b) else b).pop()
        v = self.vocab
        ids = [v.cls_id, *a, v.sep_id, *b, v.sep_id]
        segs = [0] * (len(a) + 2) + [1] * (len(b) + 1)
        specials = {0, len(a) + 1, len(ids) - 1}
        return ids, segs, specials

    def _select_positions(self, ids, specials, rng):
        maskable = [i for i in range(len(ids)) if i not in specials]
        count = mask_selection_count(len(maskable), self.plan.mask_rate)
        if count == 0:
            return []
        if not self.plan.whole_word_masking:
            picked = rng.choice(len(maskable), size=count, replace=False)
            return sorted(maskable[i] for i in picked)
        # group maskable positions into whole words via continuation pieces
        units = []
        for pos in maskable:
            if self.continuation[ids[pos]] and units and units[-1][-1] == pos - 1:
                units[-1].append(pos)
            else:
                units.append([pos])
        order = rng.permutation(len(units))
        selected = []
        for u in order:
            selected.extend(units[u])
            if len(selected) >= count:
                break
        return sorted(selected)

    def _corrupt(self, ids, positions, rng):
        v = self.vocab
        targets = [IGNORE_INDEX] * len(ids)
        for pos in positions:
            targets[pos] = ids[pos]
            u = rng.random()
            if self.plan.mask_only or u < self.plan.mask_prob:
                ids[pos] = v.mask_id
            elif u < self.plan.mask_prob + self.plan.random_prob:
                ids[pos] = int(self.random_pool[int(rng.integers(len(self.random_pool)))])
            # else: keep the original token; the target still scores it
        return targets

    def batch(self, step: int) -> PretrainBatch:
        rng = substream(self.plan.seed, f"{self.label}.{step}")
        rows = []
        for _ in range(self.plan.batch_size):
            a, b, label = self.sample_pair(rng)
            ids, segs, specials = self._assemble(a, b)
            positions = self._select_positions(ids, specials, rng)
            targets = self._corrupt(ids, positions, rng)
            rows.append((ids, segs, targets, label))
        ids, segs, targets, labels = zip(*rows)
        return PretrainBatch(pad_rows(ids, self.vocab.pad_id), pad_rows(segs, 0),
                             pad_rows([[1] * len(r) for r in ids], 0),
                             pad_rows(targets, IGNORE_INDEX),
                             np.array(labels, dtype=np.int64))


def pad_rows(rows, fill) -> np.ndarray:
    """int64 array of the rows, right-padded with fill to the longest one."""
    out = np.full((len(rows), max(len(r) for r in rows)), fill, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def adam_step(params: dict, state: dict, lr: float, plan: TrainPlan,
              lr_factors: dict = None) -> None:
    """Adam with bias correction and decoupled weight decay (norms and biases
    excluded), as whole-array operations over the arena `model.copy_params`
    laid `params` and `state` out in. Parameters without a gradient this step,
    frozen ones (requires_grad False) among them, keep their values and their
    optimizer state. A path's slot is made on its first update, as views of
    the arena's moment rows, which are still zero there."""
    paths = sorted(params)
    ts = [params[p] for p in paths]
    live = [t.requires_grad and t.grad is not None for t in ts]
    if not any(live):
        return
    arena, sizes = ts[0].data.base, [t.data.size for t in ts]
    views = [t.data for t in ts] + [x for s in state.values() for x in (s["m"], s["v"])]
    if arena is None or arena.shape != (3, sum(sizes)) or any(x.base is not arena for x in views):
        raise ValueError("adam_step needs parameters and slots laid out in one arena "
                         "by model.copy_params")
    on = all(live) or np.repeat(live, sizes)
    g = np.concatenate([(t.grad if a else t.data).reshape(-1) for t, a in zip(ts, live)],
                       dtype=arena.dtype)
    if not np.all(np.isfinite(g), where=on):
        raise NumericFault("non-finite gradient at " + next(
            p for p, a, x in zip(paths, live, ad.flat_views(g, ts))
            if a and not np.isfinite(x).all()))
    for p, t, a, end in zip(paths, ts, live, np.cumsum(sizes).tolist()):
        if a and p not in state:
            m, v = (row[end - t.data.size: end].reshape(t.shape) for row in arena[1:])
            state[p] = {"t": 0, "m": m, "v": v}
        if a:
            state[p]["t"] += 1

    def per_path(value):
        # one Python scalar when the updated paths agree, which numpy casts
        # as it cast the per-tensor update's scalar; else one per element
        values = [value(p) if a else 1.0 for p, a in zip(paths, live)]
        agreed = {x for x, a in zip(values, live) if a}
        return (agreed.pop() if len(agreed) == 1
                else np.repeat(np.array(values, arena.dtype), sizes))

    b1, b2 = plan.adam_beta1, plan.adam_beta2
    by_element = (*arena, g, np.empty_like(g), on,
                  per_path(lambda p: 1.0 - b1 ** state[p]["t"]),
                  per_path(lambda p: 1.0 - b2 ** state[p]["t"]),
                  per_path(lambda p: lr * (lr_factors.get(p, 1.0) if lr_factors else 1.0)),
                  # a select, not a multiply by 0.0, which is nan at an infinite weight
                  np.repeat([not md.is_no_decay(p) for p in paths], sizes)
                  if plan.weight_decay else None)

    def update_range(s):
        _adam_update(*(a[s] if isinstance(a, np.ndarray) else a for a in by_element), plan)
    ad.share(update_range, ad.row_slices(g.size, g.size, arena, g))


def _adam_update(w, m, v, g, tmp, on, c1, c2, factors, decay, plan) -> None:
    """Adam's update of the arena elements w, m and v from gradients g, where
    on (True or a mask) is set, with bias corrections c1 and c2, lr factors
    and the weight-decay mask decay (None without decay); tmp is scratch.
    The per-tensor update's expressions in its order, so the bits are its
    bits; an element's bits depend on its own operands only, so `adam_step`
    may update the arena in ranges."""
    mul, add, div = (partial(f, where=on) for f in (np.multiply, np.add, np.divide))
    b1, b2 = plan.adam_beta1, plan.adam_beta2
    add(mul(m, b1, out=m), mul(g, 1.0 - b1, out=tmp), out=m)
    add(mul(v, b2, out=v), mul(mul(g, 1.0 - b2, out=tmp), g, out=tmp), out=v)
    v_hat = div(v, c2, out=tmp)
    denom = add(np.sqrt(v_hat, out=tmp, where=on), plan.adam_eps, out=tmp)
    update = div(div(m, c1, out=g), denom, out=g)
    if decay is not None:
        np.add(update, np.multiply(w, plan.weight_decay, out=tmp, where=decay), out=update,
               where=decay)
    np.subtract(w, mul(update, factors, out=update), out=w, where=on)


def train_step(loss, params: dict, opt_state: dict, lr: float, plan,
               lr_factors: dict = None) -> None:
    """One update: backward from `loss` into freshly cleared gradients, then
    `adam_step`."""
    for t in params.values():
        t.grad = None
    loss.backward()
    adam_step(params, opt_state, lr, plan, lr_factors=lr_factors)


# ---------------------------------------------------------------------------
# metrics log
# ---------------------------------------------------------------------------


class MetricsLog:
    """Append-only JSONL with strictly increasing step indices."""

    def __init__(self, path=None):
        self.path = str(path) if path else None
        self.records = []
        self._last_step = None
        self._fh = None
        if self.path:
            if os.path.exists(self.path):
                logged = load_metrics(self.path)
                self._last_step = logged[-1]["step"] if logged else None
            self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, record: dict) -> None:
        missing = [f for f in METRIC_FIELDS if f not in record]
        if missing:
            raise ValidationError(f"metrics record missing fields {missing}")
        if self._last_step is not None and record["step"] <= self._last_step:
            raise ValidationError(
                f"metrics step {record['step']} not above previous {self._last_step}")
        self._last_step = record["step"]
        self.records.append(record)
        if self._fh:
            self._fh.write(json.dumps(record) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh:
            self._fh.close()
            self._fh = None


def load_metrics(path) -> list:
    """The records of a metrics log; ValidationError naming every line that is
    not a JSON object with an integer step."""
    problems = []
    lines = read_json_lines(path, "metrics log", problems)
    problems += [f"line {n}: not a metrics record with an integer step"
                 for n, record in lines if not isinstance(record.get("step"), int)]
    if problems:
        raise ValidationError(f"metrics log {path} is corrupt", items=problems)
    return [record for _, record in lines]


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class PretrainResult:
    state: ModelState             # where the run stopped; its checkpoint loads as this
    metrics: list
    replay_steps: list            # 1-based steps that drew replay batches

    @property
    def final_step(self):
        return self.state.step

    @property
    def checkpoint_id(self):
        return self.state.checkpoint_id


def pretrain_loss(params: dict, config: md.ModelConfig, batch: PretrainBatch,
                  train: bool = False, rng: np.random.Generator = None):
    """(total loss Tensor, mlm value, nsp value) for one batch."""
    hidden = md.forward_encoder(params, config, batch.input_ids, batch.segment_ids,
                                batch.attention_mask, train=train, rng=rng)
    targets = np.asarray(batch.mlm_targets)
    if targets.shape != hidden.shape[:-1]:
        raise DimensionError("pretrain_loss-mlm_targets", hidden.shape[:-1], targets.shape)
    # the MLM head runs only on the positions that carry a target
    targets = targets.reshape(-1)
    rows = np.flatnonzero(targets != IGNORE_INDEX)
    mlm = ad.cross_entropy(md.mlm_logits(md.gather_rows(hidden, rows), params, config),
                           targets[rows])
    nsp = ad.cross_entropy(md.nsp_logits(hidden, params), batch.nsp_labels)
    return ad.add(mlm, nsp), float(mlm.data), float(nsp.data)


def _resolve_init(init: ModelState, max_seq_len: int, start: int) -> tuple:
    """The lineage of a run from `init` starting at `start`, after checking that
    the model has positions for max_seq_len. Only a run from step 0 descends
    from init; a resumed run keeps init's lineage, as if never interrupted."""
    if max_seq_len > init.config.max_seq_len:
        raise ConfigurationError(
            f"plan max_seq_len {max_seq_len} exceeds model limit {init.config.max_seq_len}")
    if start or init.checkpoint_id is None:
        return init.lineage
    return init.lineage + (init.checkpoint_id,)


def run_pretraining(init, corpus: Corpus, plan: TrainPlan, *, vocab: Vocabulary = None,
                    replay_corpus: Corpus = None, metrics_path=None,
                    checkpoint_path=None, stop_step: int = None) -> PretrainResult:
    """Train a copy of the ModelState `init` on `corpus` from its step, and
    return the state where the run stopped: `init` is left as it was. With
    `checkpoint_path`, that state is saved and carries the checkpoint's id, so
    load_checkpoint(checkpoint_path) gives it back field for field.

    The last heldout_fraction of documents never trains and feeds the periodic
    held-out pseudo-perplexity. Passing `vocab` asserts that the run's
    vocabulary matches init's; an adaptation chain must share one vocabulary.
    """
    start = init.step
    lineage = _resolve_init(init, plan.max_seq_len, start)
    if vocab is not None and vocab.fingerprint != init.fingerprint:
        raise ConfigurationError(
            "vocabulary fingerprint mismatch: checkpoint "
            f"{init.fingerprint[:12]}… vs bound {vocab.fingerprint[:12]}…")
    config = init.config
    cf = plan.cf or CFConfig()
    cf.validate(config.n_layers)
    stop = plan.total_steps if stop_step is None else stop_step
    if not 0 <= start <= stop <= plan.total_steps:
        raise ConfigurationError(
            f"step range [{start}, {stop}) outside plan of {plan.total_steps} steps")
    if cf.mixout_p and start:
        raise ConfigurationError(
            f"a mixout run cannot resume at step {start}: its anchor, the weights at "
            "step 0, is not stored in the checkpoint")
    params, slots = md.copy_params(init.params, init.optimizer_state)
    state = ModelState(config=config, params=params, vocab=init.vocab, step=start,
                       lineage=lineage, optimizer_state=slots)

    train_corpus, heldout = split_heldout(corpus, plan.heldout_fraction)
    held_sentences = [s for doc in heldout.documents for s in doc][: plan.eval_sentences]
    stream = BatchStream(train_corpus, state.vocab, plan)
    replay_stream = None
    if cf.replay_every:
        if replay_corpus is None:
            raise ConfigurationError(
                "replay_every is set but no original-domain replay corpus was given")
        replay_stream = BatchStream(replay_corpus, state.vocab, plan, label="replay")

    anchor = take_anchor(state.params) if cf.mixout_p else None
    factors = llrd_factors(sorted(state.params), cf.llrd_decay, config.n_layers)
    frozen = frozen_paths(state.params, cf.freeze_layers, config.n_layers)
    for p in frozen:    # backward leaves them without a gradient, so Adam skips them
        state.params[p].requires_grad = False

    metrics = MetricsLog(metrics_path)
    replay_log = []
    try:
        with ad.workers(plan.batch_size):
            for step in range(start, stop):
                replay = is_replay_step(step + 1, cf.replay_every)
                batch = (replay_stream if replay else stream).batch(step)
                if replay:
                    replay_log.append(step + 1)
                lr = lr_at(step, plan)
                if anchor is not None:
                    fparams = mixout_apply(state.params, anchor, cf.mixout_p,
                                           substream(plan.seed, f"mixout.{step}"))
                else:
                    fparams = state.params
                loss, mlm_value, nsp_value = pretrain_loss(
                    fparams, config, batch, train=True,
                    rng=substream(plan.seed, f"dropout.{step}"))
                train_step(loss, state.params, state.optimizer_state, lr, plan, factors)
                del loss   # free this step's graph before the next forward pass
                pppl_value = None
                if held_sentences and ((step + 1) % plan.eval_every == 0 or step == stop - 1):
                    pppl_value = heldout_pppl(state, held_sentences)
                metrics.append({"step": step, "mlm_loss": mlm_value, "nsp_loss": nsp_value,
                                "lr": lr, "pppl_heldout": pppl_value})
    finally:
        metrics.close()

    for p in frozen:    # as load_checkpoint gives them back
        state.params[p].requires_grad = True
    state.step = stop
    if checkpoint_path is not None:
        state.checkpoint_id = ckpt.save_checkpoint(checkpoint_path, state)
    return PretrainResult(state=state, metrics=metrics.records, replay_steps=replay_log)


def heldout_pppl(state: ModelState, sentences) -> float:
    """Held-out pseudo-perplexity over the sentences that fit the model."""
    limit = state.config.max_seq_len
    sentences = list(sentences)
    usable = [s for s, (seq, _) in zip(sentences, encode_all(sentences, state.vocab))
              if len(seq) + 2 <= limit]
    if not usable:
        return None
    scorer = mlmeval.ModelScorer(state.params, state.config)
    return mlmeval.pppl(scorer, usable, state.vocab, limit).value

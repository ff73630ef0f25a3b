"""Corpus preparation, masked-token/next-sentence batching, Adam, the
learning-rate schedule, and the (continued-)pretraining loop.

Batches are a pure function of (seed, step): every sampling decision for step
s draws from a substream derived from the plan seed and s, so a run resumed
from a checkpoint consumes exactly the same batch sequence and stays
bit-identical to an uninterrupted run. The loop composes the forgetting
mitigations: per-parameter learning-rate factors, frozen-path skipping,
mixout-wrapped forward passes, and replay batches on the 1-based steps
divisible by the replay frequency.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import mlmeval
from . import model as md
from .errors import ConfigurationError, InputError, NumericFault, ValidationError
from .mitigation import (CFConfig, frozen_paths, is_replay_step, llrd_factors,
                         mixout_apply, take_anchor)
from .seeding import substream
from .tokenizer import Vocabulary, encode

IGNORE_INDEX = -100
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
    provenance: str = "native"

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


def load_corpus(path, provenance: str = "native") -> Corpus:
    """One sentence per line; a blank line closes the current document."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise InputError(f"cannot read corpus {path}: {exc}") from exc
    docs, current = [], []
    for line in lines:
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
    return Corpus(documents=tuple(docs), provenance=provenance)


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, doc in enumerate(corpus.documents):
            if i:
                fh.write("\n")
            for sentence in doc:
                fh.write(sentence + "\n")


def split_heldout(corpus: Corpus, fraction: float):
    """(train, heldout): the heldout part is the last `fraction` of documents,
    at least one whenever a split is requested and possible."""
    n = len(corpus.documents)
    if fraction <= 0.0 or n < 2:
        return corpus, Corpus(documents=(), provenance=corpus.provenance)
    k = int(round(fraction * n))
    k = max(1, min(k, n - 1))
    return (Corpus(documents=corpus.documents[: n - k], provenance=corpus.provenance),
            Corpus(documents=corpus.documents[n - k:], provenance=corpus.provenance))


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainPlan:
    peak_lr: float
    total_steps: int
    batch_size: int
    warmup_fraction: float = 0.0
    seed: int = 0
    max_seq_len: int = 128
    cf: CFConfig = None
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    mask_rate: float = 0.15
    mask_prob: float = 0.8
    random_prob: float = 0.1
    mask_only: bool = False
    whole_word_masking: bool = False
    heldout_fraction: float = 0.05
    eval_every: int = 100
    eval_sentences: int = 8

    def __post_init__(self):
        if self.peak_lr <= 0:
            raise ConfigurationError(f"peak_lr {self.peak_lr} must be positive")
        if self.total_steps < 0:
            raise ConfigurationError(f"total_steps {self.total_steps} negative")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size {self.batch_size} below 1")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError(f"warmup_fraction {self.warmup_fraction} outside [0, 1)")
        if self.max_seq_len < 8:
            raise ConfigurationError(f"max_seq_len {self.max_seq_len} below 8")
        if not 0.0 < self.mask_rate < 1.0:
            raise ConfigurationError(f"mask_rate {self.mask_rate} outside (0, 1)")
        if self.mask_prob < 0 or self.random_prob < 0 or self.mask_prob + self.random_prob > 1.0:
            raise ConfigurationError(
                f"corruption split {self.mask_prob}/{self.random_prob} invalid")
        if not 0.0 <= self.heldout_fraction < 1.0:
            raise ConfigurationError(f"heldout_fraction {self.heldout_fraction} outside [0, 1)")
        if self.eval_every < 1:
            raise ConfigurationError(f"eval_every {self.eval_every} below 1")

    @property
    def effective_warmup_fraction(self):
        if self.cf is not None and self.cf.warmup_fraction is not None:
            return self.cf.warmup_fraction
        return self.warmup_fraction

    def to_dict(self):
        d = {k: getattr(self, k) for k in self.__dataclass_fields__ if k != "cf"}
        d["cf"] = self.cf.to_dict() if self.cf else {}
        return d

    @classmethod
    def from_dict(cls, d) -> "TrainPlan":
        d = dict(d)
        cf = d.pop("cf", None)
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(f"unknown plan keys: {sorted(unknown)}")
        plan = cls(**d)
        if cf:
            plan = replace(plan, cf=CFConfig.from_dict(cf))
        return plan


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
        self.doc_ids = [[encode(s, vocab).ids for s in doc] for doc in corpus.documents]
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
              lr_factors: dict = None, frozen=frozenset()) -> None:
    """Adam with bias correction and decoupled weight decay (norms and biases
    excluded). Parameters without a gradient this step are untouched — frozen
    paths therefore keep both their values and their optimizer state."""
    for path in sorted(params):
        t = params[path]
        if path in frozen or not t.requires_grad or t.grad is None:
            continue
        g = t.grad
        if not np.isfinite(g).all():
            raise NumericFault(f"non-finite gradient at {path}")
        s = state.get(path)
        if s is None:
            s = state[path] = {"m": np.zeros_like(t.data), "v": np.zeros_like(t.data), "t": 0}
        s["t"] += 1
        b1, b2 = plan.adam_beta1, plan.adam_beta2
        s["m"] = b1 * s["m"] + (1.0 - b1) * g
        s["v"] = b2 * s["v"] + (1.0 - b2) * g * g
        m_hat = s["m"] / (1.0 - b1 ** s["t"])
        v_hat = s["v"] / (1.0 - b2 ** s["t"])
        update = m_hat / (np.sqrt(v_hat) + plan.adam_eps)
        if plan.weight_decay and not md.is_no_decay(path):
            update = update + plan.weight_decay * t.data
        factor = lr_factors.get(path, 1.0) if lr_factors else 1.0
        t.data -= (lr * factor) * update


def train_step(loss, params: dict, opt_state: dict, lr: float, plan,
               lr_factors: dict = None, frozen=frozenset()) -> None:
    """One update: backward from `loss` into freshly cleared gradients, then
    `adam_step`."""
    for t in params.values():
        t.grad = None
    loss.backward()
    adam_step(params, opt_state, lr, plan, lr_factors=lr_factors, frozen=frozen)


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
            try:
                with open(self.path, encoding="utf-8") as fh:
                    for n, line in enumerate(fh, 1):
                        if line.strip():
                            self._last_step = _logged_step(line, f"{self.path} line {n}")
            except OSError:
                pass
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


def _logged_step(line: str, where: str) -> int:
    """The step of one logged record; ValidationError if the line is not one."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where}: not JSON ({exc.msg})") from exc
    if not isinstance(record, dict) or not isinstance(record.get("step"), int):
        raise ValidationError(f"{where}: not a metrics record with an integer step")
    return record["step"]


def load_metrics(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class ModelState:
    config: md.ModelConfig
    params: dict
    vocab: Vocabulary


@dataclass
class PretrainResult:
    state: ModelState
    metrics: list
    replay_steps: list            # 1-based steps that drew replay batches
    optimizer_state: dict
    final_step: int
    checkpoint_path: str = None
    checkpoint_id: str = None


def pretrain_loss(params: dict, config: md.ModelConfig, batch: PretrainBatch,
                  train: bool = False, rng: np.random.Generator = None):
    """(total loss Tensor, mlm value, nsp value) for one batch."""
    hidden = md.forward_encoder(params, config, batch.input_ids, batch.segment_ids,
                                batch.attention_mask, train=train, rng=rng)
    mlm = ad.cross_entropy(md.mlm_logits(hidden, params, config), batch.mlm_targets,
                           ignore_index=IGNORE_INDEX)
    nsp = ad.cross_entropy(md.nsp_logits(hidden, params), batch.nsp_labels)
    return ad.add(mlm, nsp), float(mlm.data), float(nsp.data)


def _resolve_init(init, max_seq_len: int, optimizer_state=None, start_step=None):
    """(state, optimizer state, start step, lineage) from a ModelState or a
    loaded checkpoint, after checking that the vocabulary fits the model and
    that the model has positions for max_seq_len."""
    if isinstance(init, ModelState):
        state, opt, start, lineage = init, dict(optimizer_state or {}), start_step or 0, ()
    else:
        # duck-typed checkpoint from the persistence layer
        state = ModelState(config=init.config, params=init.params, vocab=init.vocab)
        opt = dict(optimizer_state if optimizer_state is not None
                   else (init.optimizer_state or {}))
        lineage = tuple(init.lineage) + ((init.checkpoint_id,) if init.checkpoint_id else ())
        start = start_step if start_step is not None else init.step
    config = state.config
    if len(state.vocab) != config.vocab_size:
        raise ConfigurationError(
            f"vocabulary size {len(state.vocab)} != model vocab_size {config.vocab_size}")
    if max_seq_len > config.max_seq_len:
        raise ConfigurationError(
            f"plan max_seq_len {max_seq_len} exceeds model limit {config.max_seq_len}")
    return state, opt, start, lineage


def run_pretraining(init, corpus: Corpus, plan: TrainPlan, *, vocab: Vocabulary = None,
                    replay_corpus: Corpus = None, metrics_path=None,
                    checkpoint_path=None, start_step: int = None,
                    stop_step: int = None, optimizer_state: dict = None) -> PretrainResult:
    """Train from `init` (a ModelState or a loaded checkpoint) on `corpus`.

    The last heldout_fraction of documents never trains and feeds the periodic
    held-out pseudo-perplexity. Passing `vocab` asserts that the run's
    vocabulary matches init's; an adaptation chain must share one vocabulary.
    """
    state, opt_state, start, lineage = _resolve_init(init, plan.max_seq_len,
                                                     optimizer_state, start_step)
    if vocab is not None and vocab.fingerprint != state.vocab.fingerprint:
        raise ConfigurationError(
            "vocabulary fingerprint mismatch: checkpoint "
            f"{state.vocab.fingerprint[:12]}… vs bound {vocab.fingerprint[:12]}…")
    config = state.config
    cf = plan.cf or CFConfig()
    cf.validate(config.n_layers)
    stop = plan.total_steps if stop_step is None else stop_step
    if not 0 <= start <= stop <= plan.total_steps:
        raise ConfigurationError(
            f"step range [{start}, {stop}) outside plan of {plan.total_steps} steps")

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

    metrics = MetricsLog(metrics_path)
    replay_log = []
    try:
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
            train_step(loss, state.params, opt_state, lr, plan, factors, frozen)
            pppl_value = None
            if held_sentences and ((step + 1) % plan.eval_every == 0 or step == stop - 1):
                pppl_value = heldout_pppl(state, held_sentences)
            metrics.append({"step": step, "mlm_loss": mlm_value, "nsp_loss": nsp_value,
                            "lr": lr, "pppl_heldout": pppl_value})
    finally:
        metrics.close()

    result = PretrainResult(state=state, metrics=metrics.records,
                            replay_steps=replay_log, optimizer_state=opt_state,
                            final_step=stop)
    if checkpoint_path is not None:
        from . import checkpoint as ckpt
        result.checkpoint_id = ckpt.save_checkpoint(
            checkpoint_path, params=state.params, config=config, vocab=state.vocab,
            step=stop, lineage=lineage, optimizer_state=opt_state)
        result.checkpoint_path = str(checkpoint_path)
    return result


def heldout_pppl(state: ModelState, sentences) -> float:
    """Held-out pseudo-perplexity over the sentences that fit the model."""
    limit = state.config.max_seq_len
    usable = [s for s in sentences
              if len(encode(s, state.vocab).ids) + 2 <= limit]
    if not usable:
        return None
    scorer = mlmeval.ModelScorer(state.params, state.config)
    return mlmeval.pppl(scorer, usable, state.vocab, limit).value

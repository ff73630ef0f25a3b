"""The four benchmark workloads, driven through bertlab's public API.

Each workload is set up from a seed, then runs *passes*: one pass is a fixed
amount of work that starts from the same state every time, so every pass of
a run must produce bit-identical parameters and losses. A pass is a closed
loop: each call into the program starts after the previous one returned.

* desk-pretrain: README desk model, MLM+NSP from init under warmup and
  decay, one checkpoint save and a load-back per pass. Set-up trains the
  V=8000 WordPiece vocabulary.
* toy-adapt: criterion-5 shape; base pretraining on domain A, continued
  pretraining on domain B under three mitigation arms, held-out PPPL on A
  before and after.
* desk-eval: set-up trains a desk checkpoint a few steps, writes and
  reloads it; a pass scores batched PPPL and top-5 MRR with no grad over
  sentences that fill the model's context, as the training pairs do.
* toy-finetune: NER and QA fine-tuning over five seeds with per-epoch dev
  evaluation.
"""

import hashlib
import math
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from time import perf_counter as _clock

import numpy as np

from bertlab import autodiff as ad
from bertlab import checkpoint as ckpt
from bertlab import finetune as ft
from bertlab import mitigation as mit
from bertlab import mlmeval
from bertlab import model as md
from bertlab import pretrain as pt
from bertlab import tokenizer as tk

import inputs


SETUPS_BEFORE = 2  # set-up runs at least this often before the passes,
SETUPS_AFTER = 1   # and this often after them (see Scale.setup_seconds)
NAIVE_SAMPLE = 1   # sentences scored by pppl_naive to check batched pppl
TOY_WORDS = 20     # words per chain-walk domain
TOY_VOCAB = 100    # toy vocabulary budget: large enough that words stay whole
EVAL_CHECKPOINT_STEPS = 3  # desk-eval's checkpoint is trained this many steps
EVAL_SENTENCES = 2  # held-out sentences per desk-eval pass
# desk-pretrain steps per pass: with warmup_fraction 0.25 the lr ramps
# 0, peak/2, peak, then decays 2/3, 1/3, 0 of peak
DESK_STEPS = 6


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload; FULL is the benchmark, TINY the smoke test."""
    setup_seconds: float    # set-up repeats until this much set-up time has passed
    learn_nats: float       # how far training must lower the MLM loss (see check_learning)
    # desk scale
    desk_vocab: int
    desk_lexicon: int
    eval_lexicon: int
    desk_words: int
    desk_docs: int
    desk_model: dict
    desk_batch: int
    mrr_items: int
    # toy scale
    toy_docs: int
    toy_model: dict
    toy_batch: int
    base_steps: int
    arm_steps: int
    replay_every: int
    ft_sizes: tuple
    ft_epochs: int
    ft_batch: int
    ft_seeds: tuple


FULL = Scale(
    setup_seconds=0.5, learn_nats=0.5,
    desk_vocab=8000, desk_lexicon=3000, eval_lexicon=12000, desk_words=64,
    desk_docs=100,
    desk_model=dict(n_layers=4, hidden_dim=128, n_heads=4, ff_dim=512,
                    max_seq_len=128, dropout_rate=0.1),
    desk_batch=16, mrr_items=16,
    toy_docs=60,
    toy_model=dict(n_layers=2, hidden_dim=32, n_heads=4, ff_dim=64,
                   max_seq_len=32, dropout_rate=0.0),
    toy_batch=16, base_steps=20, arm_steps=15, replay_every=10,
    ft_sizes=(32, 16, 32), ft_epochs=3, ft_batch=8, ft_seeds=(1, 2, 3, 4, 5))

TINY = replace(
    FULL, setup_seconds=0.0, learn_nats=0.005,  # tiny models learn little in a few steps
    desk_vocab=300, desk_lexicon=200, eval_lexicon=400, desk_words=12, desk_docs=8,
    desk_model=dict(n_layers=1, hidden_dim=16, n_heads=2, ff_dim=32,
                    max_seq_len=32, dropout_rate=0.1),
    desk_batch=4, mrr_items=3,
    toy_docs=12, toy_model=dict(n_layers=1, hidden_dim=16, n_heads=2, ff_dim=16,
                                max_seq_len=32, dropout_rate=0.0),
    toy_batch=4, base_steps=6, arm_steps=5, replay_every=2,
    ft_sizes=(4, 2, 2), ft_epochs=2, ft_batch=2, ft_seeds=(1, 2))


class Tally:
    """Operations attempted and failed; every output check counts as one.
    `checks` counts how often each kind of check ran."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.checks = Counter()

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(why)

    def check(self, kind: str, condition: bool, what: str) -> None:
        self.checks[kind] += 1
        if condition:
            self.ok()
        else:
            self.fail(f"{kind}: {what}")


@dataclass
class PassResult:
    items: int            # units of the workload's main rate
    item_seconds: float   # wall time of the calls that did those items
    loss: float           # quality after the pass, in nats
    digest: str           # identifies the final parameters
    rates: dict = field(default_factory=dict)  # named secondary rates (per s)
    values: dict = field(default_factory=dict)  # named quality values


def params_digest(*param_dicts) -> str:
    h = hashlib.sha256()
    for params in param_dicts:
        for path in sorted(params):
            h.update(path.encode("utf-8"))
            h.update(np.ascontiguousarray(params[path].data).tobytes())
    return h.hexdigest()


def fresh_params(arrays: dict) -> dict:
    return {p: ad.Tensor(a.copy(), requires_grad=True) for p, a in arrays.items()}


def clone_state(state: pt.ModelState) -> pt.ModelState:
    return pt.ModelState(config=state.config, vocab=state.vocab,
                         params=fresh_params({p: t.data for p, t in state.params.items()}))


def stream_tokens(corpus, vocab, plan, label, steps) -> int:
    """Non-pad tokens in the batches a run draws at the given 0-based steps."""
    stream = pt.BatchStream(corpus, vocab, plan, label=label)
    return sum(int(stream.batch(s).attention_mask.sum()) for s in steps)


def plan_tokens(corpus, vocab, plan, replay_corpus=None) -> int:
    """Non-pad tokens in every training batch of a run under `plan`."""
    every = plan.cf.replay_every if plan.cf else None
    steps = range(plan.total_steps)
    main = [s for s in steps if not mit.is_replay_step(s + 1, every)]
    replay = [s for s in steps if mit.is_replay_step(s + 1, every)]
    total = stream_tokens(corpus, vocab, plan, "batch", main)
    if replay:
        total += stream_tokens(replay_corpus, vocab, plan, "replay", replay)
    return total


def check_losses(tally: Tally, result: pt.PretrainResult, what: str) -> None:
    finite = all(math.isfinite(r["mlm_loss"]) and math.isfinite(r["nsp_loss"])
                 for r in result.metrics)
    tally.check("loss-finite", finite and len(result.metrics) == result.final_step,
                f"{what}: a training loss is not finite")


def check_learning(tally: Tally, result: pt.PretrainResult, what: str,
                   margin: float) -> None:
    """The MLM loss of the last step must be at least `margin` nats below
    that of the first, so a trainer that stalls or diverges fails."""
    first, last = result.metrics[0]["mlm_loss"], result.metrics[-1]["mlm_loss"]
    tally.check("learning", last <= first - margin,
                f"{what}: mlm loss {first:.4f} -> {last:.4f} fell by less than {margin}")


def check_pppl_matches_naive(tally: Tally, scorer, sentences, vocab, max_len) -> None:
    batched = mlmeval.pppl(scorer, sentences, vocab, max_len).value
    naive = mlmeval.pppl_naive(scorer, sentences, vocab, max_len).value
    tally.check("pppl-naive", abs(batched - naive) <= 1e-6 * abs(naive),
                f"batched pppl {batched!r} differs from pppl_naive {naive!r}")


def check_round_trip(tally: Tally, path, checkpoint_id, params, vocab):
    """load_checkpoint must return the saved id and bit-equal parameters."""
    loaded = ckpt.load_checkpoint(path, expect_vocab=vocab)
    same = (loaded.checkpoint_id == checkpoint_id and set(loaded.params) == set(params)
            and all(loaded.params[p].data.dtype == t.data.dtype
                    and np.array_equal(loaded.params[p].data, t.data)
                    for p, t in params.items()))
    tally.check("checkpoint-round-trip", same,
                f"checkpoint round trip of {checkpoint_id[:12]} is not exact")
    return loaded


class Workload:
    name = None
    # Phases ("setup", "pass") whose times run.SpeedProbe scales: those that
    # spend their time in Python per-call work, which the probe tracks.
    scaled = ()

    def __init__(self, scale: Scale, seed: int, workdir: str):
        self.scale = scale
        self.seed = seed
        self.workdir = workdir

    def setup(self, tally: Tally) -> str:
        """Make the inputs and initial state; returns a fingerprint of both."""
        raise NotImplementedError

    def run_pass(self, tally: Tally) -> PassResult:
        raise NotImplementedError

    def check(self, tally: Tally) -> None:
        """Output checks run once, after the timed passes."""


# ---------------------------------------------------------------------------
# desk scale
# ---------------------------------------------------------------------------


class _Desk(Workload):

    def _desk_setup(self, n_words, make_vocab):
        s = self.scale
        self.lexicon = inputs.syllable_lexicon(self.seed, n_words)
        lines = inputs.syllable_lines(self.seed, self.lexicon, 4 * s.desk_docs, s.desk_words)
        self.vocab = make_vocab(lines)
        self.corpus = inputs.as_corpus(lines, per_doc=4)
        self.config = md.ModelConfig(vocab_size=len(self.vocab), **s.desk_model)
        self.plan = pt.TrainPlan(peak_lr=5e-3, total_steps=DESK_STEPS,
                                 batch_size=s.desk_batch,
                                 max_seq_len=self.config.max_seq_len,
                                 warmup_fraction=0.25, heldout_fraction=0.0,
                                 seed=self.seed)
        params = md.init_params(self.config, inputs.rng_for(self.seed, "init"))
        self.init = {p: t.data for p, t in params.items()}
        self.init_digest = params_digest(params)
        self.checkpoint_path = os.path.join(self.workdir, f"{self.name}.ckpt")


class DeskPretrain(_Desk):
    name = "desk-pretrain"
    scaled = ("setup",)  # vocabulary training; the passes are BLAS-bound

    def setup(self, tally):
        s = self.scale
        # the vocabulary corpus is the training text plus every lexicon word once
        self._desk_setup(s.desk_lexicon, lambda lines: tk.train_vocab(
            lines + inputs.lexicon_lines(self.lexicon, s.desk_words), s.desk_vocab))
        self.tokens = plan_tokens(self.corpus, self.vocab, self.plan)
        return f"{self.vocab.fingerprint}:{self.init_digest}:{self.tokens}"

    def run_pass(self, tally):
        state = pt.ModelState(config=self.config, vocab=self.vocab,
                              params=fresh_params(self.init))
        t0 = _clock()
        result = pt.run_pretraining(state, self.corpus, self.plan, vocab=self.vocab,
                                    checkpoint_path=self.checkpoint_path)
        seconds = _clock() - t0
        tally.ok(result.final_step)
        check_losses(tally, result, self.name)
        check_learning(tally, result, self.name, self.scale.learn_nats)
        check_round_trip(tally, self.checkpoint_path, result.checkpoint_id,
                         result.state.params, self.vocab)
        loss = result.metrics[-1]["mlm_loss"]
        return PassResult(items=self.tokens, item_seconds=seconds, loss=loss,
                          digest=result.checkpoint_id,
                          rates={"train_tokens_per_s": self.tokens / seconds},
                          values={"init_mlm_loss": result.metrics[0]["mlm_loss"],
                                  "final_mlm_loss": loss})


class DeskEval(_Desk):
    name = "desk-eval"

    def setup(self, tally):
        # The vocabulary is generated, not trained: vocabulary training is
        # desk-pretrain's set-up, and here set-up is the checkpoint round trip.
        s = self.scale
        self._desk_setup(s.eval_lexicon,
                         lambda lines: inputs.lexicon_vocab(self.lexicon, s.desk_vocab))
        state = pt.ModelState(config=self.config, vocab=self.vocab,
                              params=fresh_params(self.init))
        # The schedule ends at lr 0, so without warmup three steps make two
        # updates: enough to bring held-out PPPL well below uniform (|V|).
        plan = replace(self.plan, total_steps=EVAL_CHECKPOINT_STEPS, peak_lr=1e-2,
                       warmup_fraction=0.0)
        written = pt.run_pretraining(state, self.corpus, plan,
                                     checkpoint_path=self.checkpoint_path)
        loaded = check_round_trip(tally, self.checkpoint_path, written.checkpoint_id,
                                  written.state.params, self.vocab)
        self.checkpoint_id = loaded.checkpoint_id
        self.scorer = mlmeval.ModelScorer(loaded.params, loaded.config)
        # Held-out sentences and items fill the context ([CLS] x [SEP] is L
        # positions), as the training pairs do, so the head scores 1/L of
        # the positions it computes.
        pieces = self.config.max_seq_len - 2
        self.sentences = inputs.fixed_length_lines(self.seed, self.lexicon, self.vocab,
                                                   EVAL_SENTENCES, pieces, label="heldout")
        self.items = inputs.masked_items(self.seed, self.lexicon, self.vocab,
                                         s.mrr_items, pieces)
        return f"{self.vocab.fingerprint}:{self.checkpoint_id}"

    def run_pass(self, tally):
        max_len = self.config.max_seq_len
        t0 = _clock()
        pppl = mlmeval.pppl(self.scorer, self.sentences, self.vocab, max_len)
        t1 = _clock()
        mrr = mlmeval.mrr_top5(self.scorer, self.items, self.vocab, max_len)
        t2 = _clock()
        calls = len(pppl.per_sentence) + len(mrr.rankings)
        tally.ok(calls)
        tally.check("pppl-range", pppl.value >= 1.0, f"pppl {pppl.value} below 1")
        tally.check("mrr-range", 0.0 <= mrr.value <= 1.0, f"mrr {mrr.value} outside [0, 1]")
        # a uniform model has PPPL |V|; the trained checkpoint must beat it
        margin = math.log(len(self.vocab)) - math.log(pppl.value)
        tally.check("learning", margin >= self.scale.learn_nats,
                    f"ln pppl {math.log(pppl.value):.4f} is within "
                    f"{self.scale.learn_nats} of uniform")
        return PassResult(items=pppl.n_tokens, item_seconds=t1 - t0,
                          loss=math.log(pppl.value), digest=self.checkpoint_id,
                          rates={"pppl_tokens_per_s": pppl.n_tokens / (t1 - t0),
                                 "mrr_items_per_s": mrr.n_scored / (t2 - t1)},
                          values={"pppl": pppl.value, "mrr": mrr.value})

    def check(self, tally):
        sample = self.sentences[:NAIVE_SAMPLE]
        check_pppl_matches_naive(tally, self.scorer, sample, self.vocab,
                                 self.config.max_seq_len)


# ---------------------------------------------------------------------------
# toy scale
# ---------------------------------------------------------------------------


class _Toy(Workload):
    scaled = ("setup", "pass")  # tiny tensors: time goes to Python per-node overhead

    def _toy_setup(self):
        s = self.scale
        self.words_a = inputs.domain_words("a", TOY_WORDS)
        self.words_b = inputs.domain_words("b", TOY_WORDS)
        self.corpus_a = inputs.chain_corpus(self.seed, self.words_a, s.toy_docs)
        self.corpus_b = inputs.chain_corpus(self.seed, self.words_b, s.toy_docs)
        lines = (inputs.corpus_sentences(self.corpus_a)
                 + inputs.corpus_sentences(self.corpus_b))
        self.vocab = tk.train_vocab(lines, TOY_VOCAB)
        self.config = md.ModelConfig(vocab_size=len(self.vocab), **s.toy_model)
        params = md.init_params(self.config, inputs.rng_for(self.seed, "init"))
        self.init = {p: t.data for p, t in params.items()}
        self.init_digest = params_digest(params)


class ToyAdapt(_Toy):
    name = "toy-adapt"

    def setup(self, tally):
        self._toy_setup()
        s = self.scale
        self.train_a, held_a = pt.split_heldout(self.corpus_a, 0.15)
        self.eval_a = inputs.corpus_sentences(held_a)
        common = dict(batch_size=s.toy_batch, max_seq_len=self.config.max_seq_len,
                      heldout_fraction=0.0, eval_every=10 ** 9, seed=self.seed)
        self.base_plan = pt.TrainPlan(peak_lr=5e-3, total_steps=s.base_steps,
                                      warmup_fraction=0.02, **common)
        arms = {"none": None,
                "replay": mit.CFConfig(llrd_decay=0.9, replay_every=s.replay_every),
                "regularized": mit.CFConfig(llrd_decay=0.9, mixout_p=0.9,
                                            warmup_fraction=0.02)}
        self.arm_plans = {name: pt.TrainPlan(peak_lr=5e-4, total_steps=s.arm_steps,
                                             cf=cf, **common)
                          for name, cf in arms.items()}
        self.tokens = plan_tokens(self.train_a, self.vocab, self.base_plan) + sum(
            plan_tokens(self.corpus_b, self.vocab, plan, replay_corpus=self.train_a)
            for plan in self.arm_plans.values())
        self.eval_tokens = sum(len(tk.encode(x, self.vocab).ids) for x in self.eval_a)
        return f"{self.vocab.fingerprint}:{self.init_digest}:{self.tokens}:{self.eval_tokens}"

    def run_pass(self, tally):
        train_s = eval_s = 0.0
        state = pt.ModelState(config=self.config, vocab=self.vocab,
                              params=fresh_params(self.init))
        t0 = _clock()
        base = pt.run_pretraining(state, self.train_a, self.base_plan)
        t1 = _clock()
        before = pt.heldout_pppl(base.state, self.eval_a)
        t2 = _clock()
        train_s += t1 - t0
        eval_s += t2 - t1
        tally.ok(base.final_step)
        check_losses(tally, base, "base")
        check_learning(tally, base, "base", self.scale.learn_nats)
        runs, finals = [base], []
        values = {"base_init_mlm_loss": base.metrics[0]["mlm_loss"],
                  "base_final_mlm_loss": base.metrics[-1]["mlm_loss"],
                  "pppl_before": before}
        for name, plan in self.arm_plans.items():
            every = plan.cf.replay_every if plan.cf else None
            t0 = _clock()
            arm = pt.run_pretraining(clone_state(base.state), self.corpus_b, plan,
                                     replay_corpus=self.train_a if every else None)
            t1 = _clock()
            after = pt.heldout_pppl(arm.state, self.eval_a)
            t2 = _clock()
            train_s += t1 - t0
            eval_s += t2 - t1
            tally.ok(arm.final_step)
            check_losses(tally, arm, name)
            tally.check("replay-cadence",
                        arm.replay_steps == mit.replay_steps(plan.total_steps, every),
                        f"{name}: replay steps {arm.replay_steps} off the cadence")
            runs.append(arm)
            finals.append(arm.state.params)
            values[f"pppl_after_{name}"] = after
        for key in [k for k in values if k.startswith("pppl")]:
            tally.check("pppl-range", values[key] >= 1.0, f"{key} {values[key]} below 1")
        tail = max(1, self.scale.arm_steps // 10)
        loss = float(np.mean([r["mlm_loss"] for run in runs for r in run.metrics[-tail:]]))
        self.final_state = arm.state
        values["final_mlm_loss"] = loss
        return PassResult(
            items=self.tokens, item_seconds=train_s, loss=loss,
            digest=params_digest(*finals),
            rates={"train_tokens_per_s": self.tokens / train_s,
                   "pppl_tokens_per_s": len(runs) * self.eval_tokens / eval_s},
            values=values)

    def check(self, tally):
        scorer = mlmeval.ModelScorer(self.final_state.params, self.config)
        check_pppl_matches_naive(tally, scorer, self.eval_a[:4], self.vocab,
                                 self.config.max_seq_len)


class ToyFinetune(_Toy):
    name = "toy-finetune"

    def setup(self, tally):
        self._toy_setup()
        s = self.scale
        self.config = replace(self.config, dropout_rate=0.1)
        self.state = pt.ModelState(config=self.config, vocab=self.vocab,
                                   params=fresh_params(self.init))
        self.datasets = (inputs.ner_dataset(self.seed, self.words_a, self.words_b, s.ft_sizes),
                         inputs.qa_dataset(self.seed, self.corpus_b, s.ft_sizes))
        self.plan = ft.FinetunePlan(lr=2e-3, batch_size=s.ft_batch, epochs=s.ft_epochs,
                                    max_seq_len=self.config.max_seq_len)
        self.examples = sum(len(d.train) for d in self.datasets) * s.ft_epochs * len(s.ft_seeds)
        return f"{self.vocab.fingerprint}:{self.init_digest}"

    def run_pass(self, tally):
        seconds = 0.0
        results = []
        for dataset in self.datasets:
            t0 = _clock()
            results.append(ft.finetune_task(self.state, dataset, self.plan,
                                            seeds=self.scale.ft_seeds))
            seconds += _clock() - t0
        values = {}
        for dataset, result in zip(self.datasets, results):
            for run in result.report.runs:
                scores = (run.precision, run.recall, run.f1, run.dev_f1)
                tally.check("f1-range", all(0.0 <= x <= 1.0 for x in scores),
                            f"{dataset.task} seed {run.seed}: scores {scores} outside [0, 1]")
            values[f"{dataset.task}_mean_f1"] = result.report.mean_f1
        loss = ner_test_loss(results[0].states, self.datasets[0], self.plan.max_seq_len)
        tally.check("loss-finite", math.isfinite(loss), f"ner test loss {loss} is not finite")
        values["ner_test_loss"] = loss
        states = [s.params for r in results for s in r.states]
        return PassResult(items=self.examples, item_seconds=seconds, loss=loss,
                          digest=params_digest(*states),
                          rates={"finetune_examples_per_s": self.examples / seconds},
                          values=values)


def ner_test_loss(states, dataset: ft.TaskDataset, max_seq_len: int) -> float:
    """Mean token cross-entropy of each seed's selected NER model on test."""
    labels = sorted({t for ex in dataset.train for t in ex.tags})
    label_ids = {t: i for i, t in enumerate(labels)}
    losses = []
    with ad.no_grad():
        for state in states:
            rows = [ft.featurize_ner(ex, state.vocab, label_ids, max_seq_len)
                    for ex in dataset.test]
            length = max(len(r.ids) for r in rows)
            ids = np.full((len(rows), length), state.vocab.pad_id, dtype=np.int64)
            target = np.full((len(rows), length), pt.IGNORE_INDEX, dtype=np.int64)
            for i, r in enumerate(rows):
                ids[i, : len(r.ids)] = r.ids
                target[i, : len(r.labels)] = r.labels
            hidden = md.forward_encoder(state.params, state.config, ids, np.zeros_like(ids),
                                        (ids != state.vocab.pad_id).astype(np.int64))
            logits = md.ner_logits(hidden, state.params)
            losses.append(float(ad.cross_entropy(logits, target).data))
    return float(np.mean(losses))


WORKLOADS = {w.name: w for w in (DeskPretrain, ToyAdapt, DeskEval, ToyFinetune)}

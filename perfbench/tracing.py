"""Outside-in tracing of bertlab's public functions.

`Tracer.install()` replaces each traced function at every name it is bound
to: a module-level function is patched in every `bertlab` module whose
globals hold that same object (so `adam_step`, bound in both `pretrain` and
`finetune` by `from ... import`, is traced from both call sites), and a
method is patched on its class. Nothing under `src/` is edited; `uninstall()`
restores every binding.

Each call records a span (name, start, end, parent), where the parent is the
innermost traced call still open. Spans stay in flat in-memory lists and are
written once, at the end, by `save()`. A span's self time is its duration
minus the time its child spans cover; calls are single-threaded, so children
never overlap and the cover is the sum of their durations.
"""

import os
import sys
import time
from collections import Counter

import numpy as np

from bertlab import autodiff as ad
from bertlab import checkpoint as ckpt
from bertlab import finetune as ft
from bertlab import mitigation as mit
from bertlab import mlmeval
from bertlab import model as md
from bertlab import pretrain as pt
from bertlab import tokenizer as tk

OPS = ("add", "sub", "mul", "scale", "add_const", "matmul", "transpose",
       "reshape", "select", "softmax", "layer_norm", "gelu", "tanh",
       "embedding_lookup", "dropout", "sum_all", "mean_all", "cross_entropy")

# (span name, owner, attribute). Owners that are classes get their method
# patched; owners that are modules get every binding of the function patched.
TARGETS = (
    [(f"autodiff.{op}", ad, op) for op in OPS]
    + [("autodiff.backward", ad.Tensor, "backward"),
       ("model.init_params", md, "init_params"),
       ("model.forward_encoder", md, "forward_encoder"),
       ("model.mlm_logits", md, "mlm_logits"),
       ("model.nsp_logits", md, "nsp_logits"),
       ("model.ner_logits", md, "ner_logits"),
       ("model.qa_logits", md, "qa_logits"),
       ("model.re_logits", md, "re_logits"),
       ("pretrain.run_pretraining", pt, "run_pretraining"),
       ("pretrain.batch", pt.BatchStream, "batch"),
       ("pretrain.adam_step", pt, "adam_step"),
       ("pretrain.heldout_pppl", pt, "heldout_pppl"),
       ("mitigation.take_anchor", mit, "take_anchor"),
       ("mitigation.mixout_apply", mit, "mixout_apply"),
       ("mlmeval.scorer", mlmeval.ModelScorer, "__call__"),
       ("mlmeval.pppl", mlmeval, "pppl"),
       ("mlmeval.pppl_naive", mlmeval, "pppl_naive"),
       ("mlmeval.mrr_top5", mlmeval, "mrr_top5"),
       ("tokenizer.train_vocab", tk, "train_vocab"),
       ("tokenizer.encode", tk, "encode"),
       ("tokenizer.encode_with_offsets", tk, "encode_with_offsets"),
       ("checkpoint.save_checkpoint", ckpt, "save_checkpoint"),
       ("checkpoint.load_checkpoint", ckpt, "load_checkpoint"),
       ("finetune.finetune_task", ft, "finetune_task"),
       ("finetune.featurize_ner", ft, "featurize_ner"),
       ("finetune.featurize_qa", ft, "featurize_qa")])


def _count_mlm_positions(counts, args, kwargs, result):
    hidden = args[0]
    counts["mlm_computed"] += int(np.prod(hidden.shape[:-1]))


def _count_batch(counts, args, kwargs, result):
    stream = args[0]
    counts["mlm_scored"] += int((result.mlm_targets != pt.IGNORE_INDEX).sum())
    if stream.label == "replay":
        counts["replay_batches"] += 1


def _count_scored_rows(counts, args, kwargs, result):
    counts["mlm_scored"] += len(result)


def _count_checkpoint_bytes(counts, args, kwargs, result):
    counts["checkpoint_bytes"] += os.path.getsize(args[0])


COUNTERS = {
    "model.mlm_logits": _count_mlm_positions,
    "pretrain.batch": _count_batch,
    "mlmeval.scorer": _count_scored_rows,
    "checkpoint.save_checkpoint": _count_checkpoint_bytes,
}


def _bertlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bertlab" or name.startswith("bertlab."))]


class Tracer:
    """Span recorder plus the patching that feeds it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = []
        self.span_start = []
        self.span_end = []
        self.span_parent = []
        self.counts = Counter()
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        counts = self.counts
        stack = self._stack
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[i] = clock()
                span_start[i] = t0
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _bertlab_modules()
        for name, owner, attr in TARGETS:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def mark(self) -> int:
        """Index of the next span; pass two marks to `arrays` to select a phase."""
        return len(self.span_name)

    def arrays(self, lo: int = 0, hi: int = None):
        """(name ids, start, end, parent, self time) for spans lo..hi, with
        parent indices re-based to the slice (-1 when outside it)."""
        hi = len(self.span_name) if hi is None else hi
        name = np.asarray(self.span_name[lo:hi], dtype=np.int32)
        start = np.asarray(self.span_start[lo:hi], dtype=np.float64)
        end = np.asarray(self.span_end[lo:hi], dtype=np.float64)
        parent = np.asarray(self.span_parent[lo:hi], dtype=np.int64) - lo
        parent[parent < 0] = -1
        dur = end - start
        has_parent = parent >= 0
        cover = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return name, start, end, parent, dur - cover

    def save(self, path) -> None:
        name, start, end, parent, self_time = self.arrays()
        np.savez(path, names=np.asarray(self.names), name=name, start=start,
                 end=end, parent=parent, self_time=self_time)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

FORWARD_OPS = ("matmul", "softmax", "layer_norm", "gelu", "embedding_lookup",
               "cross_entropy", "dropout")

# (name, unit, better); the values are computed by `layer_metrics`
LAYER_METRICS = (
    [("autodiff.backward_ms", "ms", "lower"),
     ("autodiff.op_calls_per_step", "count", "lower")]
    + [(f"autodiff.{op}_ms", "ms", "lower") for op in FORWARD_OPS]
    + [("model.forward_encoder_ms", "ms", "lower"),
       ("model.mlm_logits_ms", "ms", "lower"),
       ("model.nsp_logits_ms", "ms", "lower"),
       ("model.task_logits_ms", "ms", "lower"),
       ("model.mlm_scored_fraction", "ratio", "higher"),
       ("pretrain.step_ms_p50", "ms", "lower"),
       ("pretrain.step_ms_p90", "ms", "lower"),
       ("pretrain.step_unattributed_ms", "ms", "lower"),
       ("pretrain.batch_ms", "ms", "lower"),
       ("pretrain.adam_step_ms", "ms", "lower"),
       ("pretrain.heldout_pppl_ms", "ms", "lower"),
       ("mitigation.mixout_apply_ms", "ms", "lower"),
       ("mitigation.replay_batches", "count", "lower"),
       ("mlmeval.scorer_ms", "ms", "lower"),
       ("mlmeval.scorer_calls", "count", "lower"),
       ("mlmeval.pppl_ms", "ms", "lower"),
       ("mlmeval.mrr_ms", "ms", "lower"),
       ("tokenizer.train_vocab_ms", "ms", "lower"),
       ("tokenizer.encode_ms", "ms", "lower"),
       ("tokenizer.encode_calls", "count", "lower"),
       ("checkpoint.save_ms", "ms", "lower"),
       ("checkpoint.load_ms", "ms", "lower"),
       ("checkpoint.bytes", "bytes", "lower"),
       ("finetune.featurize_ms", "ms", "lower"),
       ("finetune.forward_encoder_ms", "ms", "lower"),
       ("finetune.backward_ms", "ms", "lower"),
       ("finetune.adam_step_ms", "ms", "lower"),
       ("trace.overhead_s", "s", "lower")])


class _Phase:
    """Totals over one contiguous run of spans (the set-up or one pass)."""

    def __init__(self, tracer, lo, hi, counts):
        self.names = tracer.names
        self.name, self.start, self.end, self.parent, self.self_time = tracer.arrays(lo, hi)
        self.dur = self.end - self.start
        self.counts = counts

    def ids(self, span):
        return self.names.index(span) if span in self.names else -2

    def where(self, span, parent=None):
        hit = self.name == self.ids(span)
        if parent is not None:
            has = self.parent >= 0
            under = np.zeros_like(hit)
            under[has] = self.name[self.parent[has]] == self.ids(parent)
            hit &= under
        return hit

    def ms(self, *spans, parent=None, self_only=False):
        col = self.self_time if self_only else self.dur
        return 1e3 * sum(float(col[self.where(s, parent)].sum()) for s in spans)

    def calls(self, *spans):
        return sum(int(self.where(s).sum()) for s in spans)

    def steps(self):
        """[(step ms, {span name: ms})] per pretraining step, a step running
        between successive adam_step returns inside one run_pretraining; the
        dict sums the durations of the run's child spans within the step."""
        out = []
        for r in np.nonzero(self.where("pretrain.run_pretraining"))[0]:
            children = np.nonzero(self.parent == r)[0]
            adam = children[self.name[children] == self.ids("pretrain.adam_step")]
            ends = np.sort(self.end[adam])
            for a, b in zip(ends, ends[1:]):
                parts = {}
                for i in children[(self.start[children] >= a) & (self.end[children] <= b)]:
                    name = self.names[self.name[i]]
                    parts[name] = parts.get(name, 0.0) + 1e3 * self.dur[i]
                out.append((1e3 * (b - a), parts))
        return out


def _op_calls_per_step(phase):
    ops = phase.calls(*(f"autodiff.{op}" for op in OPS))
    steps = phase.calls("pretrain.adam_step") or phase.calls("mlmeval.scorer") or 1
    return ops / steps


def _pass_values(p: _Phase) -> dict:
    c = p.counts
    v = {"autodiff.backward_ms": p.ms("autodiff.backward"),
         "autodiff.op_calls_per_step": _op_calls_per_step(p)}
    for op in FORWARD_OPS:
        v[f"autodiff.{op}_ms"] = p.ms(f"autodiff.{op}", self_only=True)
    v.update({
        "model.forward_encoder_ms": p.ms("model.forward_encoder"),
        "model.mlm_logits_ms": p.ms("model.mlm_logits"),
        "model.nsp_logits_ms": p.ms("model.nsp_logits"),
        "model.task_logits_ms": p.ms("model.ner_logits", "model.qa_logits",
                                     "model.re_logits"),
        "model.mlm_scored_fraction": (c["mlm_scored"] / c["mlm_computed"]
                                      if c["mlm_computed"] else 0.0),
        "pretrain.batch_ms": p.ms("pretrain.batch"),
        "pretrain.adam_step_ms": p.ms("pretrain.adam_step",
                                      parent="pretrain.run_pretraining"),
        "pretrain.heldout_pppl_ms": p.ms("pretrain.heldout_pppl"),
        "mitigation.mixout_apply_ms": p.ms("mitigation.mixout_apply"),
        "mitigation.replay_batches": c["replay_batches"],
        "mlmeval.scorer_ms": p.ms("mlmeval.scorer"),
        "mlmeval.scorer_calls": p.calls("mlmeval.scorer"),
        "mlmeval.pppl_ms": p.ms("mlmeval.pppl"),
        "mlmeval.mrr_ms": p.ms("mlmeval.mrr_top5"),
        "finetune.featurize_ms": p.ms("finetune.featurize_ner", "finetune.featurize_qa",
                                      parent="finetune.finetune_task"),
        "finetune.forward_encoder_ms": p.ms("model.forward_encoder",
                                            parent="finetune.finetune_task"),
        "finetune.backward_ms": p.ms("autodiff.backward", parent="finetune.finetune_task"),
        "finetune.adam_step_ms": p.ms("pretrain.adam_step", parent="finetune.finetune_task"),
    })
    v.update(_setup_values(p))
    return v


def _setup_values(p: _Phase) -> dict:
    """Layers whose work sits in set-up as well as in the timed passes."""
    return {
        "tokenizer.train_vocab_ms": p.ms("tokenizer.train_vocab"),
        "tokenizer.encode_ms": p.ms("tokenizer.encode", "tokenizer.encode_with_offsets"),
        "tokenizer.encode_calls": p.calls("tokenizer.encode", "tokenizer.encode_with_offsets"),
        "checkpoint.save_ms": p.ms("checkpoint.save_checkpoint"),
        "checkpoint.load_ms": p.ms("checkpoint.load_checkpoint"),
        "checkpoint.bytes": p.counts["checkpoint_bytes"],
    }


def layer_metrics(tracer, setup_span, passes, overhead_s) -> dict:
    """Per-layer values for one traced run.

    `setup_span` is (lo, hi, counts) for the traced set-up and `passes` a list
    of the same for each traced pass. Each value is a per-pass total, the
    median over traced passes; tokenizer and checkpoint values add the
    set-up's total. Step times pool the steps of every traced pass.
    """
    phases = [_Phase(tracer, lo, hi, counts) for lo, hi, counts in passes]
    per_pass = [_pass_values(p) for p in phases]
    values = {k: float(np.median([pv[k] for pv in per_pass])) for k in per_pass[0]}
    setup = _setup_values(_Phase(tracer, *setup_span))
    for k, v in setup.items():
        values[k] += v
    intervals = [ms for p in phases for ms, _ in p.steps()]
    values["pretrain.step_ms_p50"] = float(np.percentile(intervals, 50)) if intervals else 0.0
    values["pretrain.step_ms_p90"] = float(np.percentile(intervals, 90)) if intervals else 0.0
    values["pretrain.step_unattributed_ms"] = step_calls(tracer, passes).get("unattributed", 0.0)
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in LAYER_METRICS}


def step_calls(tracer, passes) -> dict:
    """Median ms per pretraining step of each call the step makes, plus the
    remainder no traced call covers; empty when no pass trains."""
    steps = [step for lo, hi, counts in passes
             for step in _Phase(tracer, lo, hi, counts).steps()]
    if not steps:
        return {}
    names = sorted({n for _, parts in steps for n in parts})
    out = {n: float(np.median([parts.get(n, 0.0) for _, parts in steps])) for n in names}
    out["unattributed"] = float(np.median([ms - sum(p.values()) for ms, p in steps]))
    out["step"] = float(np.median([ms for ms, _ in steps]))
    return out

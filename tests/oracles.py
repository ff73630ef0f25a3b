"""Test-only references that no run needs: the finite-difference gradient
checker, a backward that keeps its graph, dropout's float-mask multiply,
scipy's truncated-normal draw, a corpus writer and the QA F1 shortcut. The
unfused encoder, the other oracle of the fused ops, lives in test_model.py."""

import numpy as np
from scipy.stats import truncnorm

from bertlab import autodiff as ad
from bertlab import model as md
from bertlab.errors import DimensionError, NumericFault, write_text
from bertlab.finetune import qa_scores
from bertlab.seeding import map_units

_FD_STEP = 1e-5        # grad_check's central-difference step


def grad_check(f, x: ad.Tensor) -> float:
    """Max relative error between analytic and central-difference gradients of
    scalar-valued f at x: max_i |a_i - n_i| / max(1, |a_i|)."""
    return grad_check_params(lambda: f(x), {"x": x})["x"]


def grad_check_params(f, params) -> dict:
    """grad_check over a {path: Tensor} mapping; f() reads the tensors in place.

    Returns {path: max relative error} over every coordinate of every tensor.
    The analytic gradients come from one backward here; each path's central
    differences are one `map_units` unit, the largest tensors first.
    """
    for t in params.values():
        t.grad = None
    out = f()
    if out.data.ndim != 0:
        raise DimensionError("grad_check-nonscalar", out.data.shape)
    out.backward()
    analytic = {
        path: (t.grad if t.grad is not None else np.zeros_like(t.data)).reshape(-1).copy()
        for path, t in params.items()
    }
    if not all(np.isfinite(a).all() for a in analytic.values()):
        raise NumericFault("grad_check: non-finite gradient")

    def error(path):
        a = analytic[path]
        rel = np.abs(a - _central_differences(f, params[path])) / np.maximum(1.0, np.abs(a))
        return float(rel.max()) if rel.size else 0.0
    paths = sorted(params, key=lambda p: params[p].data.size, reverse=True)
    errors = dict(zip(paths, map_units(error, paths)))
    return {path: errors[path] for path in params}


def _central_differences(f, x: ad.Tensor) -> np.ndarray:
    # perturb x.data itself, in the analytic gradient's C order: a reshape copies
    numeric = np.zeros(x.data.size, dtype=np.float64)
    with ad.no_grad():
        for i, idx in enumerate(np.ndindex(x.data.shape)):
            orig = x.data[idx]
            x.data[idx] = orig + _FD_STEP
            fp = float(f().data)
            x.data[idx] = orig - _FD_STEP
            fm = float(f().data)
            x.data[idx] = orig
            numeric[i] = (fp - fm) / (2.0 * _FD_STEP)
    if not np.isfinite(numeric).all():
        raise NumericFault("grad_check: non-finite finite-difference value")
    return numeric


def retaining_backward(root: ad.Tensor) -> None:
    """root.backward() for a scalar root, walking reversed(_topo_order) and
    releasing nothing: every node, its saved arrays and its gradient live
    until the caller drops root. The oracle of Tensor.backward's leaf
    gradients."""
    ad._accumulate(root, np.ones_like(root.data))
    for node in reversed(ad._topo_order(root)):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def float_mask_keep(x, keep, rate, out=None):
    """autodiff._apply_keep as one multiply by the float mask
    keep.astype(dtype) * (1 / (1 - rate)), as dropout applied its mask
    before keep masks were bool."""
    return np.multiply(x, keep.astype(x.dtype) * (1 / (1 - rate)), out=out)


def trunc_normal_scipy(rng: np.random.Generator, shape) -> np.ndarray:
    """The initial-weight draw as scipy.stats gives it, the oracle of
    model._trunc_normal."""
    return truncnorm.rvs(-2.0, 2.0, scale=md.INIT_STD, size=shape, random_state=rng)


def save_corpus(corpus, path) -> None:
    """Write a `pretrain.Corpus` as `load_corpus` reads it: one sentence a
    line, a blank line between documents."""
    write_text(path, "\n".join("".join(sentence + "\n" for sentence in doc)
                               for doc in corpus.documents))


def qa_f1(gold_texts, predicted_text) -> float:
    return qa_scores(gold_texts, predicted_text).f1

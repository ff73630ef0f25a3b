"""Dense tensors with reverse-mode automatic differentiation.

Everything the encoder and heads need, on contiguous numpy storage: matmul,
add (elementwise or bias-over-last-axis), mul, softmax, layer_norm, gelu,
tanh, embedding_lookup, cross_entropy, plus shape plumbing (reshape,
transpose, select) and a finite-difference gradient checker.

Float32 is the training dtype; wrap code in `precision("float64")` for
verification runs. The only implicit broadcast is bias-add over the last
axis and the constant-add used for attention masking; every other shape
coercion is explicit. Backward accumulation is sequential, so runs are
bit-reproducible given a seed.
"""

from contextlib import contextmanager

import numpy as np
from scipy.special import erf

from .errors import DimensionError, NumericFault

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


def set_default_dtype(dtype) -> None:
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype).type
    if dt not in (np.float32, np.float64):
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    _DEFAULT_DTYPE = dt


@contextmanager
def precision(dtype):
    """Temporarily switch the default dtype ('float32' or 'float64')."""
    global _DEFAULT_DTYPE
    old = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        _DEFAULT_DTYPE = old


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation fast path)."""
    global _GRAD_ENABLED
    old = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = old


class Tensor:
    """A numpy array plus an optional gradient buffer and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.type is not _DEFAULT_DTYPE:
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    def backward(self, grad=None) -> None:
        """Reverse-mode pass from this tensor; leaf gradients accumulate additively."""
        if grad is None:
            if self.data.ndim != 0:
                raise DimensionError("backward-without-seed-gradient", self.data.shape)
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise DimensionError("backward", self.data.shape, grad.shape)
        _accumulate(self, grad)
        for node in reversed(_topo_order(self)):
            if node._backward is not None:
                node._backward(node.grad)


def _topo_order(root: Tensor):
    """Topological order of the grad-relevant subgraph; each node exactly once."""
    order = []
    visited = {id(root)}
    stack = [root]
    parent_iters = {id(root): iter(root._parents)}
    while stack:
        node = stack[-1]
        advanced = False
        for p in parent_iters[id(node)]:
            if p.requires_grad and id(p) not in visited:
                visited.add(id(p))
                parent_iters[id(p)] = iter(p._parents)
                stack.append(p)
                advanced = True
                break
        if not advanced:
            order.append(stack.pop())
    return order


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _node(data: np.ndarray, parents, backward_fn) -> Tensor:
    # internal constructor: keeps the op's computed dtype (inputs decide),
    # unlike Tensor() which adopts the session default
    out = object.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may instead be a 1-d bias over a's last axis."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape == b.shape:
        def back(g):
            _accumulate(a, g)
            _accumulate(b, g)
        return _node(a.data + b.data, (a, b), back)
    if b.data.ndim == 1 and a.data.ndim >= 1 and a.shape[-1] == b.shape[0]:
        def back(g):
            _accumulate(a, g)
            _accumulate(b, g.reshape(-1, g.shape[-1]).sum(axis=0))
        return _node(a.data + b.data, (a, b), back)
    raise DimensionError("add", a.shape, b.shape)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError("sub", a.shape, b.shape)

    def back(g):
        _accumulate(a, g)
        _accumulate(b, -g)
    return _node(a.data - b.data, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; shapes must match exactly."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError("mul", a.shape, b.shape)

    def back(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)
    return _node(a.data * b.data, (a, b), back)


def scale(t: Tensor, s: float) -> Tensor:
    t = _as_tensor(t)
    s = float(s)

    def back(g):
        _accumulate(t, g * s)
    return _node(t.data * s, (t,), back)


def add_const(t: Tensor, const) -> Tensor:
    """Add a gradient-free constant (attention mask bias); const broadcasts up to t."""
    t = _as_tensor(t)
    const = np.asarray(const, dtype=t.data.dtype)
    if np.broadcast_shapes(t.shape, const.shape) != t.shape:
        raise DimensionError("add_const", t.shape, const.shape)

    def back(g):
        _accumulate(t, g)
    return _node(t.data + const, (t,), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product (..., m, k) @ (..., k, n); leading dims may broadcast."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise DimensionError("matmul", a.shape, b.shape) from exc

    def back(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accumulate(a, _sum_to_shape(ga, a.shape))
        _accumulate(b, _sum_to_shape(gb, b.shape))
    return _node(out, (a, b), back)


def _sum_to_shape(g: np.ndarray, shape) -> np.ndarray:
    """Collapse broadcast batch dims of a matmul gradient back onto shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if g.shape[axis] != n:
            g = g.sum(axis=axis, keepdims=True)
    return g


def transpose(t: Tensor, axes) -> Tensor:
    t = _as_tensor(t)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def back(g):
        _accumulate(t, np.transpose(g, inverse))
    return _node(np.transpose(t.data, axes), (t,), back)


def reshape(t: Tensor, shape) -> Tensor:
    t = _as_tensor(t)
    shape = tuple(shape)
    orig = t.shape

    def back(g):
        _accumulate(t, g.reshape(orig))
    try:
        out = t.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError("reshape", t.shape, shape) from exc
    return _node(out, (t,), back)


def select(t: Tensor, axis: int, index: int) -> Tensor:
    """Pick one index along an axis, dropping that axis (e.g. the CLS position)."""
    t = _as_tensor(t)
    if not -t.data.ndim <= axis < t.data.ndim:
        raise DimensionError("select", t.shape, (axis,))
    axis = axis % t.data.ndim
    sel = (slice(None),) * axis + (index,)

    def back(g):
        full = np.zeros_like(t.data)
        full[sel] = g
        _accumulate(t, full)
    return _node(t.data[sel], (t,), back)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    t = _as_tensor(t)
    if not -t.data.ndim <= axis < t.data.ndim:
        raise DimensionError("softmax", t.shape, (axis,))
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        _accumulate(t, out * (g - inner))
    return _node(out, (t,), back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize over the last axis (biased variance), then apply gain and bias."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    h = x.shape[-1]
    if gain.shape != (h,) or bias.shape != (h,):
        raise DimensionError("layer_norm", x.shape, gain.shape, bias.shape)
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = xhat * gain.data + bias.data

    def back(g):
        _accumulate(gain, (g * xhat).reshape(-1, h).sum(axis=0))
        _accumulate(bias, g.reshape(-1, h).sum(axis=0))
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, inv_std * (dxhat - m1 - xhat * m2))
    return _node(out, (x, gain, bias), back)


def gelu(t: Tensor) -> Tensor:
    """Exact erf-form GELU."""
    t = _as_tensor(t)
    cdf = 0.5 * (1.0 + erf(t.data * _INV_SQRT2))
    out = t.data * cdf

    def back(g):
        pdf = np.exp(-0.5 * t.data * t.data) * _INV_SQRT_2PI
        _accumulate(t, g * (cdf + t.data * pdf))
    return _node(out.astype(t.data.dtype, copy=False), (t,), back)


def tanh(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    out = np.tanh(t.data)

    def back(g):
        _accumulate(t, g * (1.0 - out * out))
    return _node(out, (t,), back)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of table selected by an integer id array of any shape."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise DimensionError("embedding_lookup", table.shape, ids.shape)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DimensionError("embedding_lookup", table.shape, (int(ids.min()), int(ids.max())))

    def back(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)
    return _node(table.data[ids], (table,), back)


def dropout(t: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity (and no rng draw) when rate is 0."""
    if rate == 0.0:
        return t
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    t = _as_tensor(t)
    keep = (rng.random(t.shape) >= rate).astype(t.data.dtype)
    inv = 1.0 / (1.0 - rate)

    def back(g):
        _accumulate(t, g * keep * inv)
    return _node(t.data * keep * inv, (t,), back)


def sum_all(t: Tensor) -> Tensor:
    t = _as_tensor(t)

    def back(g):
        _accumulate(t, np.full_like(t.data, g))
    return _node(np.asarray(t.data.sum(), dtype=t.data.dtype), (t,), back)


def mean_all(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    n = t.data.size

    def back(g):
        _accumulate(t, np.full_like(t.data, g / n))
    return _node(np.asarray(t.data.mean(), dtype=t.data.dtype), (t,), back)


def cross_entropy(logits: Tensor, targets, ignore_index: int = -100) -> Tensor:
    """Mean negative log-likelihood over positions whose target != ignore_index.

    logits (..., V), integer targets matching the leading shape. Scalar output;
    a non-finite loss raises NumericFault.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise DimensionError("cross_entropy", logits.shape, targets.shape)
    v = logits.shape[-1]
    flat = logits.data.reshape(-1, v)
    tgt = targets.reshape(-1)
    valid = tgt != ignore_index
    n = int(valid.sum())
    if n == 0:
        return _node(np.asarray(0.0, dtype=logits.data.dtype), (logits,), lambda g: None)
    m = flat.max(axis=1, keepdims=True)
    shifted = flat - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - lse
    rows = np.nonzero(valid)[0]
    picked = log_probs[rows, tgt[rows]]
    loss = -picked.sum() / n
    if not np.isfinite(loss):
        raise NumericFault("cross_entropy: non-finite loss")

    def back(g):
        grad = np.exp(log_probs)
        grad[rows, tgt[rows]] -= 1.0
        grad[~valid] = 0.0
        grad *= g / n
        _accumulate(logits, grad.reshape(logits.shape))
    return _node(np.asarray(loss, dtype=logits.data.dtype), (logits,), back)


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------


def grad_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients of
    scalar-valued f at x: max_i |a_i - n_i| / max(1, |a_i|)."""
    return grad_check_params(lambda: f(x), {"x": x}, h)["x"]


def grad_check_params(f, params, h: float = 1e-5, max_coords: int = 0) -> dict:
    """grad_check over a {path: Tensor} mapping; f() reads the tensors in place.

    Returns {path: max relative error}. Checks every coordinate of every tensor;
    max_coords > 0 instead checks that many evenly spaced coordinates per tensor.
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
    errors = {}
    for path, t in params.items():
        size = t.data.size
        if max_coords and size > max_coords:
            coords = np.unique(np.linspace(0, size - 1, max_coords).astype(np.int64))
        else:
            coords = np.arange(size)
        numeric = _central_differences_at(f, t, h, coords)
        a = analytic[path][coords]
        rel = np.abs(a - numeric) / np.maximum(1.0, np.abs(a))
        errors[path] = float(rel.max()) if rel.size else 0.0
    return errors


def _central_differences_at(f, x: Tensor, h: float, coords) -> np.ndarray:
    flat = x.data.reshape(-1)
    numeric = np.zeros(len(coords), dtype=np.float64)
    with no_grad():
        for j, i in enumerate(coords):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f().data)
            flat[i] = orig - h
            fm = float(f().data)
            flat[i] = orig
            numeric[j] = (fp - fm) / (2.0 * h)
    if not np.isfinite(numeric).all():
        raise NumericFault("grad_check: non-finite finite-difference value")
    return numeric

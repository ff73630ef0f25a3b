"""Dense tensors with reverse-mode automatic differentiation.

Everything the encoder and heads need, on contiguous numpy storage: matmul,
add (elementwise or bias-over-last-axis), mul, softmax, layer_norm, gelu,
tanh, embedding_lookup, cross_entropy, plus shape plumbing (reshape,
transpose, select). The finite-difference gradient checker, a test oracle,
lives with the tests (tests/oracles.py).

Three fused ops each record one node with a hand-written backward: linear
(x @ w + b), add_norm (layer_norm(x + y)) and attention (multi-head
self-attention from the q/k/v projections to the head merge). Each evaluates
the numpy expressions of the unfused ops it replaces, in their order and on
arrays of the same layout, and accumulates into a shared input in the order
the unfused graph does, so forward and backward bits are the same. They
share their math with the unfused ops through private helpers.

Float32 is the training dtype; wrap code in `precision("float64")` for
verification runs. The only implicit broadcast is bias-add over the last
axis and the constant-add used for attention masking; every other shape
coercion is explicit. Backward accumulation is sequential, so runs are
bit-reproducible given a seed.

GELU runs in cache-sized blocks for both dtypes: float32 evaluates its own
erf, within 3 ulp of scipy's float32 erf; float64 keeps scipy's erf.

linear, attention, add_norm, layer_norm, gelu and dropout run their
forward and backward work as slices along the first axis (GELU in its
blocks): one slice of all the rows, or, for large work inside a `workers`
context, one slice per worker thread. Each slice runs the same numpy
expressions on its rows, dropout masks are drawn in pieces from copies of
the rng, and reductions over rows (weight, bias and gain gradients) and
gradient accumulation stay sequential in the caller, so the bits do not
depend on the worker count.

From the first op whose work reaches the split size, with or without
workers, glibc's malloc serves blocks under 32 MiB from its heap and never
trims it, so the large temporaries of desk-size steps reuse freed memory
instead of being mapped and faulted in afresh. This holds for the rest of
the process; toy-size work leaves malloc alone.
"""

import ctypes
import functools
import itertools
import os
import queue
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.special import erf

from .errors import DimensionError, NumericFault

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True
IGNORE_INDEX = -100   # a cross_entropy target that scores nothing

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


# ---------------------------------------------------------------------------
# worker threads
# ---------------------------------------------------------------------------

_SPLIT_MIN = 1 << 17   # elements: smaller work runs whole, in the calling thread
_POOL = None           # the helper threads of the open `workers` context


def _cpu_count() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


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


# glibc's mallopt parameters, and the most its dynamic mmap threshold reaches
# on 64-bit
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20
_FREED_KEPT = False    # set by the first op whose work reaches _SPLIT_MIN
_FREED_KEPT_LOCK = threading.Lock()


@functools.cache
def _mallopt():
    """glibc's mallopt(param, value), or None off glibc (other C libraries
    number the parameters differently, or have no mallopt)."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):   # no C library to search, as on Windows
        return None
    if not (hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt")):
        return None
    libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return libc.mallopt


def _keep_freed_memory() -> None:
    """Once per process, have malloc reuse freed heap blocks for blocks under
    32 MiB and never trim the heap. Otherwise glibc maps each large temporary
    of a desk-size op afresh, faults it in page by page and unmaps it when it
    is freed. Either setting alone was slower (setting one turns off glibc's
    dynamic threshold). Never undone: the process keeps its peak heap until
    exit. Off glibc, nothing changes."""
    global _FREED_KEPT
    with _FREED_KEPT_LOCK:
        if _FREED_KEPT:
            return
        _FREED_KEPT = True
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
        mallopt(_M_TRIM_THRESHOLD, -1)


class _Pool:
    """Up to n_helpers helper threads that run the jobs put on their queue.
    They start at the first share that splits, and from then until close
    OpenBLAS is held to one thread (a second BLAS thread, spinning between
    calls, would take a helper's CPU)."""

    def __init__(self, n_helpers: int):
        self.n_helpers = n_helpers
        self.jobs = queue.SimpleQueue()
        self.busy = False   # a share is running: calls from its work run whole
        self.helpers = []
        self.blas_threads = None   # OpenBLAS's thread count before the start

    def start(self):
        if self.helpers:
            return
        get, set_ = _openblas()
        self.blas_threads = get()
        set_(1)
        for _ in range(self.n_helpers):
            helper = threading.Thread(target=self._serve, daemon=True)
            helper.start()
            self.helpers.append(helper)

    def _serve(self):
        for job in iter(self.jobs.get, None):
            job()

    def close(self):
        for _ in self.helpers:
            self.jobs.put(None)
        for helper in self.helpers:
            helper.join()
        if self.blas_threads is not None:
            _openblas()[1](self.blas_threads)


@contextmanager
def workers(rows: int):
    """Worker threads for the work of rows independent rows inside the block:
    min(CPUs, rows) - 1 helpers beside the caller, started by the first
    `share` that splits; on exit all are joined and OpenBLAS's thread count
    restored, so work that never reaches _SPLIT_MIN starts no thread and
    leaves OpenBLAS alone. Inside an open context this one adds none; with
    one worker, or without the thread controls of numpy's bundled OpenBLAS,
    everything runs in the caller. The pool is process-wide, so one context
    runs at a time."""
    global _POOL
    n_helpers = min(_cpu_count(), rows) - 1
    if _POOL is not None or n_helpers < 1 or _openblas() is None:
        yield
        return
    _POOL = _Pool(n_helpers)
    try:
        yield
    finally:
        pool, _POOL = _POOL, None
        pool.close()


def row_slices(rows: int, size: int, *arrays) -> list:
    """Slices of range(rows) for `share`: one per worker when a `workers`
    context is open, no share is running, the work covers at least
    _SPLIT_MIN elements (size) and the arrays agree in dtype; else one
    slice of all the rows. The first work of _SPLIT_MIN elements, split or
    not, has malloc keep freed memory for the rest of the process
    (`_keep_freed_memory`)."""
    if size >= _SPLIT_MIN and not _FREED_KEPT:
        _keep_freed_memory()
    pool = _POOL
    if (pool is None or pool.busy or size < _SPLIT_MIN or rows < 2
            or len({a.dtype for a in arrays}) > 1):
        return [slice(0, rows)]
    n = min(rows, pool.n_helpers + 1)
    bounds = [rows * i // n for i in range(n + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def share(work, args) -> list:
    """[work(a) for a in args]. Inside a `workers` context, with two or more
    args and no share running, the args are claimed in order by the caller
    and the helpers, and all finish before this returns; work called from
    there runs whole. An error stops further claims; the caller's own is
    raised, else a helper's."""
    pool = _POOL
    if pool is None or pool.busy or len(args) < 2:
        return [work(a) for a in args]
    out = [None] * len(args)
    claim = itertools.count()  # next() on it is one step under the GIL
    failed = threading.Event()
    pool.start()
    n_helpers, finished = min(pool.n_helpers, len(args) - 1), queue.SimpleQueue()

    def run():
        try:
            while not failed.is_set():
                k = next(claim)
                if k >= len(args):
                    return
                out[k] = work(args[k])
        except BaseException:
            failed.set()
            raise

    def helper():
        error = None
        try:
            run()
        except BaseException as exc:
            error = exc
        finished.put(error)

    pool.busy = True
    try:
        for _ in range(n_helpers):
            pool.jobs.put(helper)
        try:
            run()
        finally:
            errors = [e for e in (finished.get() for _ in range(n_helpers)) if e is not None]
    finally:
        pool.busy = False
    if errors:
        raise errors[0]
    return out


def _in_pieces(pieces, kernel, shapes, dtype) -> tuple:
    """The output arrays of kernel(s, outs), which computes them for the rows
    s of its inputs, into outs when they are arrays. With one piece, outs
    are None and the kernel allocates its outputs, as whole-array numpy code
    does; with more, outputs of the given shapes are allocated here and each
    piece writes its rows of them, through `share`."""
    if len(pieces) == 1:
        return tuple(kernel(pieces[0], (None,) * len(shapes)))
    outs = tuple(np.empty(shape, dtype) for shape in shapes)
    share(lambda s: kernel(s, tuple(o[s] for o in outs)), pieces)
    return outs


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
            # a node no gradient reached (a loss over zero targets) passes none on
            if node._backward is not None and node.grad is not None:
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
        # adopt a copy of the first gradient: a copy, since add/sub hand one g
        # to two parents; in t.data's layout, since a transposed g's strides
        # would change the bits of the next matmul
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g)
    else:
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
        ga, gb = _matmul_back(g, a.data, b.data)
        _accumulate(a, ga)
        _accumulate(b, gb)
    return _node(out, (a, b), back)


def _matmul_back(g, a, b):
    """Gradients of a @ b for arrays a and b, summed back to their shapes.
    A linear's (b 2-d, a with g's batch shape) may run in slices of the
    batch axis, each writing its rows of both products; b's is summed over
    the batch here."""
    linear_like = b.ndim == 2 and a.shape[:-2] == g.shape[:-2]

    def products(s, outs):
        return (np.matmul(g[s], np.swapaxes(b, -1, -2), out=outs[0]),
                np.matmul(np.swapaxes(a[s], -1, -2), g[s], out=outs[1]))
    ga, gb = _in_pieces(_batch_slices(g, g.size, a, b) if linear_like else [...], products,
                        [a.shape, g.shape[:-2] + b.shape], g.dtype)
    return _sum_to_shape(ga, a.shape), _sum_to_shape(gb, b.shape)


def _batch_slices(x: np.ndarray, size: int, *arrays) -> list:
    """row_slices over the first axis of x when it has three or more axes;
    else [...], which selects all of x."""
    return row_slices(len(x), size, x, *arrays) if x.ndim > 2 else [...]


def _affine(x, w, b, out=None):
    """x @ w + b for arrays, into out when given."""
    out = np.matmul(x, w, out=out)
    out += b
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b, one node: x (..., n_in), w (n_in, n_out), bias b (n_out,)."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if (w.data.ndim != 2 or x.data.ndim < 1 or x.shape[-1] != w.shape[0]
            or b.shape != w.shape[1:]):
        raise DimensionError("linear", x.shape, w.shape, b.shape)
    (out,) = _in_pieces(_batch_slices(x.data, x.data.size, w.data, b.data),
                        lambda s, outs: [_affine(x.data[s], w.data, b.data, *outs)],
                        [x.shape[:-1] + w.shape[1:]], x.data.dtype)

    def back(g):
        _linear_back(g, x, w, b)
    return _node(out, (x, w, b), back)


def _linear_back(g, x: Tensor, w: Tensor, b: Tensor) -> None:
    _accumulate(b, g.reshape(-1, g.shape[-1]).sum(axis=0))
    gx, gw = _matmul_back(g, x.data, w.data)
    _accumulate(x, gx)
    _accumulate(w, gw)


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
    out = _softmax(t.data, axis)

    def back(g):
        _accumulate(t, _softmax_back(g, out, axis))
    return _node(out, (t,), back)


def _softmax(x: np.ndarray, axis: int, out: np.ndarray = None) -> np.ndarray:
    """Softmax of x along axis; out=x computes it in place."""
    out = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _softmax_back(g, out, axis):
    inner = (g * out).sum(axis=axis, keepdims=True)
    return out * (g - inner)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize over the last axis (biased variance), then apply gain and bias."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    _check_norm("layer_norm", x, gain, bias, eps)
    out, xhat, inv_std = _normalize(x.data, None, gain.data, bias.data, eps)

    def back(g):
        _accumulate(x, _normalize_back(g, xhat, inv_std, gain, bias))
    return _node(out, (x, gain, bias), back)


def add_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """layer_norm(x + y): a residual add and the norm after it, one node."""
    x, y, gain, bias = _as_tensor(x), _as_tensor(y), _as_tensor(gain), _as_tensor(bias)
    if x.shape != y.shape:
        raise DimensionError("add_norm", x.shape, y.shape)
    _check_norm("add_norm", x, gain, bias, eps)
    out, xhat, inv_std = _normalize(x.data, y.data, gain.data, bias.data, eps)

    def back(g):
        gs = _normalize_back(g, xhat, inv_std, gain, bias)
        _accumulate(x, gs)
        _accumulate(y, gs)
    return _node(out, (x, y, gain, bias), back)


def _check_norm(op, x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> None:
    if eps <= 0:
        raise ValueError(f"{op} eps must be positive")
    h = x.shape[-1]
    if gain.shape != (h,) or bias.shape != (h,):
        raise DimensionError(op, x.shape, gain.shape, bias.shape)


def _normalize(x, y, gain, bias, eps: float):
    """(output, normalized input, 1 / std) of a layer norm over the last axis
    of the array x + y (x when y is None), row by row."""
    def rows(s, outs):
        out, xhat, inv_std = outs
        r = x[s] if y is None else x[s] + y[s]
        xhat = np.subtract(r, r.mean(axis=-1, keepdims=True), out=xhat)
        var = (xhat * xhat).mean(axis=-1, keepdims=True)
        inv_std = np.divide(1.0, np.sqrt(var + eps), out=inv_std)
        xhat *= inv_std
        out = np.multiply(xhat, gain, out=out)
        out += bias
        return out, xhat, inv_std
    return _in_pieces(_batch_slices(x, x.size, gain, bias, *(() if y is None else (y,))),
                      rows, [x.shape, x.shape, x.shape[:-1] + (1,)], x.dtype)


def _normalize_back(g, xhat, inv_std, gain: Tensor, bias: Tensor) -> np.ndarray:
    """Accumulate the gain and bias gradients; return the input's gradient."""
    h = xhat.shape[-1]

    def rows(s, outs):
        return (np.multiply(g[s], xhat[s], out=outs[0]),
                _normalize_back_rows(g[s], xhat[s], inv_std[s], gain.data, outs[1]))
    g_xhat, gx = _in_pieces(_batch_slices(g, g.size, xhat, gain.data), rows,
                            [g.shape, g.shape], g.dtype)
    _accumulate(gain, g_xhat.reshape(-1, h).sum(axis=0))
    _accumulate(bias, g.reshape(-1, h).sum(axis=0))
    return gx


def _normalize_back_rows(g, xhat, inv_std, gain, out=None) -> np.ndarray:
    """inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), for
    dxhat = g * gain, into out when given."""
    dxhat = g * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dxhat -= m1
    dxhat -= xhat * m2
    return np.multiply(inv_std, dxhat, out=out)


def gelu(t: Tensor) -> Tensor:
    """Exact erf-form GELU, x * (1 + erf(x / sqrt(2))) / 2.

    Forward and backward run in cache-sized blocks in x's dtype. Float32 uses
    an erf within 3 ulp of scipy's float32 erf (`_neg_erf32`), float64
    scipy's erf. The cdf the backward needs is kept only while a graph is
    recorded.
    """
    t = _as_tensor(t)
    x = t.data
    out, cdf = _gelu_blocks(x, keep_cdf=_GRAD_ENABLED and t.requires_grad)

    def back(g):
        _accumulate(t, _gelu_back(g, x, cdf))
    return _node(out, (t,), back)


_BLOCK = 1 << 16  # elements per block: a few 256 KB float32 buffers stay in L2

# erf(t) = -expm1(t * P(t)) for t >= 0, where P is a degree-7 polynomial fit
# of log(erfc t) / t on [0, 3.92], weighted by erf's float32 ulp (Lawson's
# minimax iteration); coefficients from P(0) = -2/sqrt(pi) up, rounded to
# float32. Past the fit, t * P(t) only falls: from 3.908 to infinity, expm1
# rounds it to -1, so erf is 1 with no clamp (t * P(t) may overflow to -inf).
_ERF_COEFS = tuple(np.float32(c) for c in (
    -1.1283792, -0.6366166, -0.102813564, 0.019319955,
    -0.00020496492, -0.0012508923, 0.00038023302, -4.0547835e-05))
_SIGN_BIT = np.int32(-1 << 31)


def _neg_erf32(x: np.ndarray, out: np.ndarray, t: np.ndarray) -> np.ndarray:
    """-erf(x) of a float32 array into out, within 3 ulp of scipy's float32
    erf (checked over every float32; both are odd); t is scratch of x's
    shape. Call it under np.errstate(over="ignore")."""
    np.abs(x, out=t)
    np.multiply(t, _ERF_COEFS[-1], out=out)
    for c in _ERF_COEFS[-2::-1]:
        out += c
        out *= t
    np.expm1(out, out=out)  # -erf|x|, never positive
    sign = t.view(np.int32)
    np.bitwise_and(x.view(np.int32), _SIGN_BIT, out=sign)
    np.bitwise_xor(out.view(np.int32), sign, out=out.view(np.int32))  # erf|x| where x < 0
    return out


def _neg_erf64(x: np.ndarray, out: np.ndarray, t: np.ndarray) -> np.ndarray:
    """-erf(x) of a float64 array into out, by scipy's erf; t is unused."""
    return np.negative(erf(x, out=out), out=out)


def _block_ranges(size: int) -> list:
    """(lo, hi) element ranges of whole _BLOCKs covering range(size), one per
    worker when the blocks are shared out."""
    return [(s.start * _BLOCK, min(s.stop * _BLOCK, size))
            for s in row_slices(-(-size // _BLOCK), size)]


def _gelu_blocks(x: np.ndarray, keep_cdf: bool):
    """(gelu(x), cdf or None) of a float32 or float64 array, block by block;
    both C-contiguous, in x's dtype."""
    neg_erf = _neg_erf32 if x.dtype == np.float32 else _neg_erf64
    out = np.empty(x.shape, x.dtype)
    cdf = np.empty(x.shape, x.dtype) if keep_cdf else None
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    flat_cdf = cdf.reshape(-1) if keep_cdf else None

    def blocks(lo_hi):
        lo, hi = lo_hi
        scratch = np.empty((3, min(hi - lo, _BLOCK)), x.dtype)
        with np.errstate(over="ignore"):
            for i in range(lo, hi, _BLOCK):
                xb = flat_x[i:i + _BLOCK]
                u, t, c = scratch[:, :xb.size]
                if keep_cdf:
                    c = flat_cdf[i:i + _BLOCK]
                np.multiply(xb, _INV_SQRT2, out=u)
                neg_erf(u, c, t)
                np.subtract(1.0, c, out=c)  # 1 + erf, bit for bit
                c *= 0.5
                np.multiply(xb, c, out=flat_out[i:i + _BLOCK])
    share(blocks, _block_ranges(flat_x.size))
    return out, cdf


def _gelu_back(g: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """g * (cdf + x * pdf(x)) of arrays of one shape and dtype (cdf
    C-contiguous), block by block, with the bits of the whole-array
    expression g * (cdf + x * (exp(-0.5 * x * x) / sqrt(2 pi)))."""
    grad = np.empty(x.shape, x.dtype)
    flat_g, flat_x, flat_cdf, flat_grad = (a.reshape(-1) for a in (g, x, cdf, grad))

    def blocks(lo_hi):
        lo, hi = lo_hi
        pdf = np.empty(min(hi - lo, _BLOCK), x.dtype)
        for i in range(lo, hi, _BLOCK):
            xb = flat_x[i:i + _BLOCK]
            p = pdf[:xb.size]
            np.multiply(xb, -0.5, out=p)
            p *= xb
            np.exp(p, out=p)
            p *= _INV_SQRT_2PI
            p *= xb
            p += flat_cdf[i:i + _BLOCK]
            np.multiply(flat_g[i:i + _BLOCK], p, out=flat_grad[i:i + _BLOCK])
    share(blocks, _block_ranges(flat_x.size))
    return grad


def tanh(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    out = np.tanh(t.data)

    def back(g):
        _accumulate(t, g * (1.0 - out * out))
    return _node(out, (t,), back)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of table selected by an integer id array of any shape."""
    table = _as_tensor(table)
    ids = _checked_ids("embedding_lookup", table, ids)

    def back(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)
    return _node(table.data[ids], (table,), back)


def _checked_ids(op, table: Tensor, ids) -> np.ndarray:
    """ids as an integer array of rows of table."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise DimensionError(op, table.shape, ids.shape)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DimensionError(op, table.shape, (int(ids.min()), int(ids.max())))
    return ids


# The three lookups below give embedding_lookup's values and, on a table no
# other op has reached yet, the bits of its np.add.at gradient: that adds
# each row's contributions in order into a zeroed row, so it ends at 0.0 + s
# for s their in-order sum (never -0.0).


def _ordered_sum(a: np.ndarray) -> np.ndarray:
    """The sum of a over its first axis, added in order: np.add.reduce may
    add in pairs, which changes the bits."""
    return np.add.accumulate(a, axis=0)[-1] if len(a) else np.zeros(a.shape[1:], a.dtype)


def position_lookup(table: Tensor, n: int, length: int) -> Tensor:
    """(n, length, H): rows 0 .. length - 1 of table for each of n sequences.
    The gradient is the sum of g over the sequences, added into the rows."""
    table = _as_tensor(table)
    if not 0 <= length <= table.shape[0]:
        raise DimensionError("position_lookup", table.shape, (n, length))

    def back(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        table.grad[:length] += _ordered_sum(g)
    return _node(np.repeat(table.data[None, :length], n, axis=0), (table,), back)


def segment_lookup(table: Tensor, ids) -> Tensor:
    """embedding_lookup for a table of a few rows (segment types): a row's
    gradient is the sum of g over the positions that use it, in order, one
    pass over g per row used."""
    table = _as_tensor(table)
    ids = _checked_ids("segment_lookup", table, ids)
    flat_ids = ids.reshape(-1)

    def back(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        flat = g.reshape(flat_ids.shape + table.shape[1:])
        for row in np.unique(flat_ids):
            table.grad[row] += _ordered_sum(flat[flat_ids == row])
    return _node(table.data[ids], (table,), back)


def take_rows(t: Tensor, rows) -> Tensor:
    """(N, H): the rows of a 2-d t at N distinct indices. The gradient is
    written into the rows, as 0.0 + g when none reached t before."""
    t = _as_tensor(t)
    if t.data.ndim != 2:
        raise DimensionError("take_rows", t.shape, np.shape(rows))
    rows = distinct_rows("take_rows", len(t.data), rows)

    def back(g):
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad[rows] += g
    return _node(t.data[rows], (t,), back)


def distinct_rows(op, n: int, rows) -> np.ndarray:
    """rows as a 1-d array of distinct integer indices into range(n); a
    DimensionError naming op otherwise."""
    rows = np.asarray(rows)
    if (rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer)
            or np.unique(rows).size != rows.size):
        raise DimensionError(op, (n,), rows.shape)
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise DimensionError(op, (n,), (int(rows.min()), int(rows.max())))
    return rows


def dropout(t: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity (and no rng draw) when rate is 0."""
    if rate == 0.0:
        return t
    t = _as_tensor(t)
    _check_dropout(rate, rng)
    x = t.data
    pieces = row_slices(len(x), x.size, x) if x.ndim else [...]
    mask, fill = _mask_in_pieces(pieces, x.shape, rate, rng, x.dtype)

    def keep(s, outs):
        fill(s)
        return [np.multiply(x[s], mask[s], out=outs[0])]
    (out,) = _in_pieces(pieces, keep, [x.shape], x.dtype)

    def back(g):
        (grad,) = _in_pieces(row_slices(len(g), g.size, g, mask) if g.ndim else [...],
                             lambda s, outs: [np.multiply(g[s], mask[s], out=outs[0])],
                             [g.shape], g.dtype)
        _accumulate(t, grad)
    return _node(out, (t,), back)


def _check_dropout(rate, rng) -> None:
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"dropout at rate {rate} needs an rng, a numpy Generator; "
                         f"got {type(rng).__name__}")


def _dropout_mask(shape, rate, rng, dtype):
    """keep / (1 - rate): a 1/0 keep mask drawn from rng, rescaled. Applying
    it is one multiply with the bits of keeping and rescaling apart, since
    keep is exactly 0 or 1."""
    mask = (rng.random(shape) >= rate).astype(dtype)
    mask *= 1.0 / (1.0 - rate)
    return mask


def _mask_in_pieces(pieces, shape, rate, rng, dtype):
    """(mask, fill): the mask for work in pieces, each filling its own rows
    (_split_mask), or drawn here whole, with a fill that does nothing, when
    there is one piece."""
    if len(pieces) > 1:
        return _split_mask(shape, rate, rng, dtype)
    return _dropout_mask(shape, rate, rng, dtype), lambda s: None


def _split_mask(shape, rate, rng, dtype):
    """(mask, fill): an empty _dropout_mask and fill(s), which writes its rows
    s with the values _dropout_mask draws, from a copy of rng's PCG64 moved
    to their first draw with advance(). rng is left where that one draw
    leaves it. Other bit generators draw the whole mask here, and fill does
    nothing."""
    bg = rng.bit_generator
    if type(bg) is not np.random.PCG64:
        return _dropout_mask(shape, rate, rng, dtype), lambda s: None
    mask = np.empty(shape, dtype)
    row = mask[:1].size
    start = bg.state
    end = bg.advance(mask.size).state
    # random() draws whole 64-bit words; advance() drops a buffered half word
    end["has_uint32"], end["uinteger"] = start["has_uint32"], start["uinteger"]
    bg.state = end

    def fill(s):
        copy = np.random.PCG64()
        copy.state = start
        draws = np.random.Generator(copy.advance(int(s.start) * row)).random(mask[s].shape)
        rows = mask[s]
        rows[...] = draws >= rate
        rows *= 1.0 / (1.0 - rate)
    return mask, fill


def mixout(ts, ref: np.ndarray, mask: np.ndarray, p: float) -> list:
    """`mitigation.mixout_apply`'s mixout of the tensors ts toward the anchor
    ref, one node each, computed in one pass over ts laid end to end (ref and
    the 1/0 keep mask are flat in that layout) as mul, add_const and scale
    compute it. A tensor's gradient is (g / (1 - p)) * mask."""
    s = 1.0 / (1.0 - p)
    out = np.concatenate([t.data.reshape(-1) for t in ts])
    out *= mask
    out += ((1.0 - mask) * ref - p * ref).astype(out.dtype, copy=False)
    out *= s
    return [_node(value, (t,), lambda g, t=t, keep=keep: _accumulate(t, (g * s) * keep))
            for t, value, keep in zip(ts, flat_views(out, ts), flat_views(mask, ts))]


def flat_views(flat: np.ndarray, ts) -> list:
    """Views of the 1-d array flat shaped like the tensors ts, laid end to end."""
    ends = np.cumsum([t.data.size for t in ts]).tolist()
    return [flat[end - t.data.size: end].reshape(t.shape) for t, end in zip(ts, ends)]


def attention(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor,
              wv: Tensor, bv: Tensor, mask_bias, n_heads: int, rate: float = 0.0,
              rng: np.random.Generator = None) -> Tensor:
    """Multi-head self-attention before the output projection, one node.

    x (B, L, H) is projected to queries, keys and values (weights (H, H),
    biases (H,)) and split into n_heads heads; scores q k^T / sqrt(H / n_heads)
    plus the constant mask_bias (broadcast to (B, n_heads, L, L)) go through
    a softmax over keys and inverted dropout at rate (drawn from rng), weight
    the values, and the heads are merged back to (B, L, H).
    """
    x, wq, bq, wk, bk, wv, bv = (_as_tensor(t) for t in (x, wq, bq, wk, bk, wv, bv))
    if x.data.ndim != 3 or x.shape[-1] % n_heads:
        raise DimensionError("attention", x.shape, (n_heads,))
    b, length, h = x.shape
    for w, bias in ((wq, bq), (wk, bk), (wv, bv)):
        if w.shape != (h, h) or bias.shape != (h,):
            raise DimensionError("attention", x.shape, w.shape, bias.shape)
    mask_bias = np.asarray(mask_bias, dtype=x.data.dtype)
    scores_shape = (b, n_heads, length, length)
    if np.broadcast_shapes(scores_shape, mask_bias.shape) != scores_shape:
        raise DimensionError("attention", scores_shape, mask_bias.shape)
    if rate:
        _check_dropout(rate, rng)
    dh = h // n_heads
    scale = float(1.0 / np.sqrt(dh))
    dtype = x.data.dtype
    projections = ((wv, bv), (wk, bk), (wq, bq))  # the order the backward accumulates x in
    arrays = [x.data, mask_bias] + [t.data for w_b in projections for t in w_b]

    def heads(y):  # (n, L, H) -> (n, nh, L, dh), a view
        return np.transpose(y.reshape(len(y), length, n_heads, dh), (0, 2, 1, 3))

    def merge_heads(gh, out):  # (n, nh, L, dh) -> C-contiguous (n, L, H), into out if given
        if out is None:
            out = np.empty((len(gh), length, h), gh.dtype)
        out.reshape(len(gh), length, n_heads, dh)[...] = np.transpose(gh, (0, 2, 1, 3))
        return out

    def batch_rows(a, s):  # rows s of an array that may broadcast over the batch
        return a[s] if a.ndim == 4 and len(a) == b else a

    # the forward and backward run along the batch axis, whole or in slices
    pieces = row_slices(b, b * n_heads * length * length, *arrays)
    if rate:
        mask, fill = _mask_in_pieces(pieces, scores_shape, rate, rng, dtype)

    def forward(s, outs):
        v, k, q, p, d, o = outs
        v, k, q = (_affine(x.data[s], w.data, bias.data, y)
                   for y, (w, bias) in zip((v, k, q), projections))
        p = np.matmul(heads(q), np.transpose(heads(k), (0, 1, 3, 2)), out=p)
        p *= scale
        p += batch_rows(mask_bias, s)
        _softmax(p, -1, out=p)
        if rate:
            fill(s)
            d = np.multiply(p, mask[s], out=d)
        else:
            d = p
        return v, k, q, p, d, merge_heads(np.matmul(d, heads(v)), o)
    v, k, q, probs, dropped, out = _in_pieces(
        pieces, forward, [(b, length, h)] * 3 + [scores_shape] * 2 + [(b, length, h)], dtype)
    if not rate:
        dropped = probs
    qh, vh = heads(q), heads(v)
    kt = np.transpose(heads(k), (0, 1, 3, 2))

    def back(g):
        def backward(s, outs):
            g_ctx = np.ascontiguousarray(heads(g[s]))
            g_dropped, g_vh = _matmul_back(g_ctx, dropped[s], vh[s])
            g_probs = g_dropped * mask[s] if rate else g_dropped
            g_scores = _softmax_back(g_probs, probs[s], -1)
            g_scores *= scale
            g_qh, g_kt = _matmul_back(g_scores, qh[s], kt[s])
            # each projection's linear backward on these rows: values, keys, queries:
            # (merged head gradient, x's gradient, the weight's per-row products)
            grads = []
            for gh, (w, _), (m, gx, gw) in zip((g_vh, np.swapaxes(g_kt, -1, -2), g_qh),
                                               projections, zip(*[iter(outs)] * 3)):
                m = merge_heads(gh, m)
                grads += [m, np.matmul(m, w.data.T, out=gx),
                          np.matmul(np.swapaxes(x.data[s], -1, -2), m, out=gw)]
            return grads
        grads = _in_pieces(row_slices(b, probs.size, g, *arrays), backward,
                           [(b, length, h), (b, length, h), (b, h, h)] * 3, dtype)
        # into x as the unfused graph accumulates it: values, keys, queries
        for (m, gx_i, gw_i), (w, bias) in zip(zip(*[iter(grads)] * 3), projections):
            _accumulate(bias, m.reshape(-1, h).sum(axis=0))
            _accumulate(x, gx_i)
            _accumulate(w, _sum_to_shape(gw_i, w.shape))
    return _node(out, (x, wq, bq, wk, bk, wv, bv), back)


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


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood over positions whose target != IGNORE_INDEX.

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
    valid = tgt != IGNORE_INDEX
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

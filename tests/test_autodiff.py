"""Gradient correctness for every primitive, plus the hand-checkable anchors."""

import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from bertlab import autodiff as ad
from bertlab import model as md
from bertlab import pretrain as pt
from bertlab.autodiff import Tensor
from bertlab.errors import ConfigurationError, DimensionError, NumericFault
from bertlab.seeding import substream
from oracles import float_mask_keep, grad_check, grad_check_params, retaining_backward

FD_TOL = 1e-5


@pytest.fixture(autouse=True)
def float64_mode():
    # finite differences need the 64-bit dtype to hit the 1e-5 tolerance
    with ad.precision("float64"):
        yield


def rand(shape, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# -- hand anchors -----------------------------------------------------------


def test_cross_entropy_uniform_logits_is_log4():
    logits = Tensor(np.zeros((1, 4)), requires_grad=True)
    loss = ad.cross_entropy(logits, np.array([2]))
    assert float(loss.data) == pytest.approx(np.log(4.0), rel=1e-12)


def test_sum_of_squares_gradient():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    loss = ad.sum_all(ad.mul(x, x))
    loss.backward()
    expected = np.array([2.0, 4.0, 6.0])
    rel = np.abs(x.grad - expected) / np.abs(expected)
    assert rel.max() < 1e-8


def test_softmax_of_zeros_is_uniform_with_zero_gradient():
    x = Tensor(np.zeros(2), requires_grad=True)
    s = ad.softmax(x, axis=-1)
    np.testing.assert_allclose(s.data, [0.5, 0.5], rtol=0, atol=0)
    ad.sum_all(s).backward()
    # softmax sums to one identically, so d(sum)/dx vanishes
    np.testing.assert_allclose(x.grad, [0.0, 0.0], atol=1e-15)


def test_layer_norm_output_moments():
    x = rand((4, 8), seed=3)
    gain = Tensor(np.ones(8), requires_grad=True)
    bias = Tensor(np.zeros(8), requires_grad=True)
    out = ad.layer_norm(x, gain, bias)
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-6)


# -- graph mechanics --------------------------------------------------------


def test_gradients_accumulate_additively_across_backward_calls():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    ad.sum_all(ad.mul(x, x)).backward()
    first = x.grad.copy()
    ad.sum_all(ad.mul(x, x)).backward()
    np.testing.assert_allclose(x.grad, 2.0 * first)


def test_diamond_graph_visits_each_node_once():
    # z = y + y with y = x*x gives dz/dx = 4x; a double visit would give 8x
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = ad.mul(x, x)
    z = ad.sum_all(ad.add(y, y))
    z.backward()
    np.testing.assert_allclose(x.grad, [12.0])


def test_no_grad_records_nothing():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert not y.requires_grad and y._backward is None


def test_constant_function_has_zero_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    err = grad_check(lambda t: ad.sum_all(Tensor(np.zeros(1))), x)
    assert err == 0.0


def _identity_with_backward(t, grad_of):
    # an op whose forward is the identity but whose backward passes grad_of(g)
    return ad._node(t.data.copy(), (t,), lambda g: ad._accumulate(t, grad_of(g)))


CHECKERS = {
    "grad_check": lambda f, x: grad_check(f, x),
    "grad_check_params": lambda f, x: grad_check_params(lambda: f(x), {"x": x})["x"],
}


@pytest.mark.parametrize("check", CHECKERS.values(), ids=CHECKERS.keys())
def test_checker_reports_a_wrong_backward(check):
    x = rand((4, 5), seed=30)
    doubled = lambda t: ad.sum_all(_identity_with_backward(t, lambda g: 2.0 * g))
    assert check(doubled, x) > FD_TOL


@pytest.mark.parametrize("check", CHECKERS.values(), ids=CHECKERS.keys())
def test_checker_passes_a_correct_op_on_a_non_contiguous_input(check):
    x = Tensor(np.random.default_rng(32).random((3, 4)).T, requires_grad=True)
    assert not x.data.flags["C_CONTIGUOUS"]
    assert check(lambda t: ad.sum_all(ad.mul(t, t)), x) < FD_TOL


@pytest.mark.parametrize("check", CHECKERS.values(), ids=CHECKERS.keys())
def test_checker_rejects_a_non_finite_analytic_gradient(check):
    x = rand((4, 5), seed=31)
    nan = lambda t: ad.sum_all(_identity_with_backward(t, lambda g: g * np.nan))
    with pytest.raises(NumericFault):
        check(nan, x)


def test_dimension_error_names_op_and_shapes():
    with pytest.raises(DimensionError) as exc:
        ad.mul(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
    msg = str(exc.value)
    assert "mul" in msg and "(3,)" in msg and "(4,)" in msg


# -- finite-difference checks per primitive ---------------------------------


def test_fd_add_elementwise_and_bias():
    a = rand((3, 4), seed=1)
    b = rand((3, 4), seed=2)
    assert grad_check(lambda t: ad.sum_all(ad.mul(ad.add(t, b), ad.add(t, b))), a) < FD_TOL
    bias = rand((4,), seed=4)
    assert grad_check(lambda t: ad.sum_all(ad.mul(ad.add(a, t), ad.add(a, t))), bias) < FD_TOL


def test_fd_sub_and_scale_and_add_const():
    a = rand((2, 3), seed=5)
    b = rand((2, 3), seed=6)
    const = np.array([[0.0, -1e9, 0.0]])
    assert grad_check(lambda t: ad.sum_all(ad.mul(ad.sub(t, b), ad.sub(t, b))), a) < FD_TOL
    assert grad_check(lambda t: ad.sum_all(ad.mul(ad.scale(t, 2.5), ad.scale(t, 2.5))), a) < FD_TOL
    assert grad_check(lambda t: ad.sum_all(ad.tanh(ad.add_const(t, np.zeros((2, 3))))), a) < FD_TOL
    masked = ad.add_const(Tensor(np.zeros((1, 3)), requires_grad=True), const)
    assert np.isneginf(masked.data[0, 1] + 0) or masked.data[0, 1] == -1e9


def test_fd_matmul_including_batched():
    a = rand((3, 4), seed=7)
    b = rand((4, 2), seed=8)
    assert grad_check(lambda t: ad.sum_all(ad.tanh(ad.matmul(t, b))), a) < FD_TOL
    assert grad_check(lambda t: ad.sum_all(ad.tanh(ad.matmul(a, t))), b) < FD_TOL
    ab = rand((2, 3, 4), seed=9)   # batched lhs against shared rhs
    assert grad_check(lambda t: ad.sum_all(ad.tanh(ad.matmul(ab, t))), b) < FD_TOL
    bb = rand((2, 4, 5), seed=10)
    assert grad_check(lambda t: ad.sum_all(ad.tanh(ad.matmul(t, bb))), ab) < FD_TOL


def test_fd_softmax_all_axes():
    x = rand((3, 5), seed=11)
    w = Tensor(np.random.default_rng(12).standard_normal((3, 5)))
    for axis in (-1, 0, 1):
        assert grad_check(lambda t: ad.sum_all(ad.mul(ad.softmax(t, axis=axis), w)), x) < FD_TOL


def test_fd_layer_norm_all_inputs():
    x = rand((2, 3, 6), seed=13)
    gain = rand((6,), seed=14)
    bias = rand((6,), seed=15)
    f = lambda: ad.sum_all(ad.tanh(ad.layer_norm(x, gain, bias)))
    errs = grad_check_params(f, {"x": x, "gain": gain, "bias": bias})
    assert max(errs.values()) < FD_TOL


def test_fd_gelu_tanh():
    x = rand((4, 3), seed=16)
    assert grad_check(lambda t: ad.sum_all(ad.gelu(t)), x) < FD_TOL
    assert grad_check(lambda t: ad.sum_all(ad.tanh(t)), x) < FD_TOL


def test_gelu_values():
    # gelu(0) = 0, gelu(x) -> x for large x, gelu(-x) small
    x = Tensor(np.array([0.0, 5.0, -5.0]))
    out = ad.gelu(x)
    assert out.data[0] == 0.0
    assert out.data[1] == pytest.approx(5.0, abs=1e-5)
    assert abs(out.data[2]) < 1e-5


def test_fd_embedding_lookup_with_repeated_ids():
    table = rand((7, 4), seed=17)
    ids = np.array([[0, 3, 3], [6, 0, 1]])
    assert grad_check(lambda t: ad.sum_all(ad.tanh(ad.embedding_lookup(t, ids))), table) < FD_TOL


def test_embedding_lookup_rejects_out_of_range():
    table = Tensor(np.zeros((4, 2)))
    with pytest.raises(DimensionError):
        ad.embedding_lookup(table, np.array([4]))


def test_fd_reshape_transpose_select():
    x = rand((2, 3, 4), seed=18)
    assert grad_check(lambda t: ad.sum_all(ad.tanh(ad.reshape(t, (6, 4)))), x) < FD_TOL
    assert grad_check(lambda t: ad.sum_all(ad.tanh(ad.transpose(t, (2, 0, 1)))), x) < FD_TOL
    assert grad_check(lambda t: ad.sum_all(ad.tanh(ad.select(t, 1, 0))), x) < FD_TOL


def test_fd_cross_entropy_with_ignored_positions():
    logits = rand((3, 5), seed=19)
    targets = np.array([1, -100, 4])
    assert grad_check(lambda t: ad.cross_entropy(t, targets), logits) < FD_TOL


def test_cross_entropy_all_ignored_is_zero():
    logits = rand((2, 3), seed=20)
    loss = ad.cross_entropy(logits, np.array([-100, -100]))
    assert float(loss.data) == 0.0
    loss.backward()  # must not blow up


def test_fd_mean_all_and_sum_all():
    x = rand((3, 2), seed=21)
    assert grad_check(lambda t: ad.mean_all(ad.mul(t, t)), x) < FD_TOL
    assert grad_check(lambda t: ad.sum_all(ad.mul(t, t)), x) < FD_TOL


def test_dropout_identity_at_zero_and_scaling():
    x = Tensor(np.ones((4, 4)), requires_grad=True)
    assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x
    out = ad.dropout(x, 0.5, np.random.default_rng(1))
    kept = out.data != 0
    np.testing.assert_allclose(out.data[kept], 2.0)  # inverted scaling 1/(1-p)
    ad.sum_all(out).backward()
    np.testing.assert_allclose(x.grad[kept], 2.0)
    np.testing.assert_allclose(x.grad[~kept], 0.0)


def _float32_ulps(a, b):
    """|a - b| in float32 ulps, counted along the float32 number line."""
    def ordered(v):
        i = v.view(np.int32).astype(np.int64)
        return np.where(i < 0, -(i & 0x7FFFFFFF), i)
    return np.abs(ordered(a) - ordered(b))


def test_float32_erf_within_3_ulp_of_scipy():
    from scipy.special import erf
    four, inf = (int(np.float32(v).view(np.int32)) for v in (4.0, np.inf))
    x = np.concatenate([
        np.arange(0, four, 997, dtype=np.int32).view(np.float32),  # dense near 0, subnormals too
        np.linspace(0, 4, 1_000_001, dtype=np.float32),
        np.arange(four, inf, 99_991, dtype=np.int32).view(np.float32),  # past the fit
        np.array([3.92, 3.9079874, 1e30, np.finfo(np.float32).max, np.inf], np.float32)])
    x = np.concatenate([x, -x])
    with np.errstate(over="ignore"):
        got = -ad._neg_erf32(x, np.empty_like(x), np.empty_like(x))
    want = erf(x)
    assert want.dtype == np.float32
    assert _float32_ulps(got, want).max() <= 3
    assert (got[np.abs(x) >= 3.9079874] == np.sign(x[np.abs(x) >= 3.9079874])).all()
    assert np.signbit(got[x == 0]).tolist() == np.signbit(x[x == 0]).tolist()
    with np.errstate(over="ignore"):
        assert np.isnan(ad._neg_erf32(np.float32([np.nan]), np.empty(1, np.float32),
                                      np.empty(1, np.float32))).all()


def test_float32_gelu_tracks_the_float64_path():
    # odd length over several blocks; the bounds follow from erf's 3 ulp
    rng = np.random.default_rng(3)
    x = (rng.standard_normal(3 * ad._BLOCK + 7) * 2).astype(np.float32)
    x[:4] = [0.0, -0.0, 8.0, -8.0]
    g = rng.standard_normal(x.shape).astype(np.float32)

    def gelu_and_grad(dtype):
        with ad.precision(dtype):
            t = Tensor(x, requires_grad=True)
            out = ad.gelu(t)
            out.backward(g)
            with ad.no_grad():
                assert np.array_equal(ad.gelu(t).data, out.data)
            return out.data, t.grad
    out32, grad32 = gelu_and_grad("float32")
    out64, grad64 = gelu_and_grad("float64")
    assert out32.dtype == grad32.dtype == np.float32
    eps = float(np.finfo(np.float32).eps)
    assert (np.abs(out32 - out64) <= 2 * eps * np.abs(x)).all()
    assert (np.abs(grad32 - grad64) <= 2 * eps * np.abs(g) * (1 + np.abs(x))).all()
    with ad.precision("float32"):  # any layout and rank
        assert ad.gelu(Tensor(x[0])).shape == ()
        square = x[:256 * 256].reshape(256, 256)
        np.testing.assert_array_equal(ad.gelu(Tensor(square.T)).data,
                                      ad.gelu(Tensor(square.T.copy())).data)


def test_float64_gelu_is_the_scipy_erf_expression_bit_for_bit():
    from scipy.special import erf
    x = rand((5, 7), seed=4)
    g = np.random.default_rng(5).standard_normal(x.shape)
    out = ad.gelu(x)
    out.backward(g)
    cdf = 0.5 * (1.0 + erf(x.data * (1.0 / np.sqrt(2.0))))
    pdf = np.exp(-0.5 * x.data * x.data) * (1.0 / np.sqrt(2.0 * np.pi))
    np.testing.assert_array_equal(out.data, x.data * cdf)
    np.testing.assert_array_equal(x.grad, g * (cdf + x.data * pdf))


def test_precision_context_controls_new_tensor_dtype():
    assert Tensor([1.0]).dtype == np.float64  # inside the autouse fixture
    with ad.precision("float32"):
        assert Tensor([1.0]).dtype == np.float32
    assert Tensor([1.0]).dtype == np.float64


# -- embedding gradients without np.add.at ------------------------------------


def _zero_heavy(rng, shape, dtype):
    """Normal values of mixed magnitude, two fifths of them -0.0 and a tenth +0.0."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 4, shape)
    u = rng.random(shape)
    x[u < 0.4] = -0.0
    x[(u >= 0.4) & (u < 0.5)] = 0.0
    return x.astype(dtype)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_row_lookups_give_the_bits_of_add_at(dtype):
    rng = np.random.default_rng(40)
    with ad.precision(dtype):
        for _ in range(300):
            b, length, h = (int(rng.integers(1, n)) for n in (5, 9, 4))
            g = _zero_heavy(rng, (b, length, h), dtype)

            def add_at(table, ids):
                want = np.zeros_like(table.data)
                np.add.at(want, ids, g.reshape(ids.shape + (h,)))
                return want

            table = rand((length + 2, h), seed=int(rng.integers(1 << 30)))
            positions = np.broadcast_to(np.arange(length), (b, length))
            out = ad.position_lookup(table, b, length)
            assert out.data.tobytes() == table.data[positions].tobytes()
            out.backward(g)
            assert table.grad.tobytes() == add_at(table, positions).tobytes()

            table = rand((3, h), seed=int(rng.integers(1 << 30)))
            segments = rng.integers(0, 2 + int(rng.integers(2)), (b, length))
            out = ad.segment_lookup(table, segments)
            assert out.data.tobytes() == table.data[segments].tobytes()
            out.backward(g)
            assert table.grad.tobytes() == add_at(table, segments).tobytes()

            states = rand((b * length, h), seed=int(rng.integers(1 << 30)))
            rows = rng.permutation(b * length)[:int(rng.integers(1, b * length + 1))]
            out = ad.take_rows(states, rows)
            assert out.data.tobytes() == states.data[rows].tobytes()
            out.backward(g.reshape(-1, h)[:len(rows)])
            want = np.zeros_like(states.data)
            np.add.at(want, rows, g.reshape(-1, h)[:len(rows)])
            assert states.grad.tobytes() == want.tobytes()
        for lookup in (lambda t: ad.position_lookup(t, 0, 4),
                       lambda t: ad.segment_lookup(t, np.zeros((0, 4), np.int64))):
            table = rand((5, 2))
            lookup(table).backward(np.zeros((0, 4, 2), dtype))   # an empty batch
            assert not table.grad.any()


def test_take_rows_refuses_repeated_or_outside_rows():
    states = rand((4, 2))
    for rows in ([0, 2, 0], [4], [[0, 1]]):
        with pytest.raises(DimensionError, match="take_rows"):
            ad.take_rows(states, np.array(rows))


# -- dropout needs an rng -------------------------------------------------------


@pytest.mark.parametrize("rng", [None, 7, np.random.RandomState(0)], ids=["none", "int",
                                                                          "RandomState"])
def test_dropout_at_a_positive_rate_without_a_generator_is_a_value_error(rng):
    x = rand((2, 4, 4), seed=42)
    weights = [rand((4, 4) if i % 2 == 0 else (4,), seed=i) for i in range(6)]
    with pytest.raises(ValueError, match="rng"):
        ad.dropout(x, 0.1, rng)
    with pytest.raises(ValueError, match="rng"):
        ad.attention(x, *weights, np.zeros((2, 1, 1, 4)), 2, 0.1, rng)
    assert ad.dropout(x, 0.0, rng) is x
    assert ad.attention(x, *weights, np.zeros((2, 1, 1, 4)), 2, 0.0, rng).shape == x.shape


# -- worker threads ---------------------------------------------------------


needs_blas_controls = pytest.mark.skipif(
    ad._openblas() is None, reason="without OpenBLAS thread controls nothing splits")


def blas_threads():
    return ad._openblas()[0]()


def force_split(monkeypatch, n_workers, block=None):
    """n_workers CPUs, and every op large enough to split."""
    monkeypatch.setattr(ad, "_cpu_count", lambda: n_workers)
    monkeypatch.setattr(ad, "_SPLIT_MIN", 1)
    if block:
        monkeypatch.setattr(ad, "_BLOCK", block)


def twin(rng):
    copy = np.random.Generator(np.random.PCG64())
    copy.bit_generator.state = rng.bit_generator.state
    return copy


@pytest.mark.parametrize("shape", [(0, 3), (1,), (3,), (3, 5, 7), (7, 3), (16, 2, 5)])
@pytest.mark.parametrize("n_pieces", [1, 2, 3])
@pytest.mark.parametrize("buffered", [False, True], ids=["whole-words", "half-word-buffered"])
def test_a_split_mask_is_one_draw(shape, n_pieces, buffered):
    rng = np.random.default_rng(43)
    rng.random(5)
    if buffered:   # a uint32 draw leaves half a 64-bit word for the next one
        rng.integers(0, 10, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == buffered
    expected_rng = twin(rng)
    want = ad._dropout_mask(shape, 0.3, expected_rng)
    mask, fill = ad._split_mask(shape, 0.3, rng)
    bounds = np.linspace(0, shape[0], min(n_pieces, max(shape[0], 1)) + 1).astype(int)
    for lo, hi in reversed(list(zip(bounds, bounds[1:]))):
        fill(slice(lo, hi))
    assert mask.tobytes() == want.tobytes()
    assert rng.bit_generator.state == expected_rng.bit_generator.state
    assert rng.integers(0, 10, 5, dtype=np.uint32).tolist() == \
        expected_rng.integers(0, 10, 5, dtype=np.uint32).tolist()
    assert rng.random(4).tobytes() == expected_rng.random(4).tobytes()


def test_a_mask_from_another_bit_generator_is_drawn_whole():
    rng = np.random.Generator(np.random.MT19937(44))
    want = ad._dropout_mask((5, 3), 0.5, np.random.Generator(np.random.MT19937(44)))
    mask, fill = ad._split_mask((5, 3), 0.5, rng)
    fill(slice(0, 2))
    assert mask.tobytes() == want.tobytes()


def op_bytes(op, inputs, seed):
    """Output, input gradients and rng state after op's forward and backward."""
    tensors = [Tensor(a, requires_grad=True) for a in inputs]
    rng = np.random.default_rng(seed)
    out = op(tensors, rng)
    out.backward(np.random.default_rng(seed + 1).standard_normal(out.shape))
    return ([out.data.tobytes()] + [t.grad.tobytes() for t in tensors]
            + [str(rng.bit_generator.state)])


OPS = {
    "linear": (lambda ts, rng: ad.linear(*ts), [(5, 6, 4), (4, 3), (3,)]),
    "attention": (lambda ts, rng: ad.attention(
        *ts, np.where(np.arange(6) < 4, 0.0, -1e9)[None, None, None, :].repeat(5, 0),
        2, 0.2, rng), [(5, 6, 4)] + [(4, 4), (4,)] * 3),
    "add_norm": (lambda ts, rng: ad.add_norm(*ts), [(5, 6, 4), (5, 6, 4), (4,), (4,)]),
    "layer_norm": (lambda ts, rng: ad.layer_norm(*ts), [(5, 6, 4), (4,), (4,)]),
    "gelu": (lambda ts, rng: ad.gelu(*ts), [(5, 6, 7)]),
    "dropout": (lambda ts, rng: ad.dropout(ts[0], 0.3, rng), [(5, 6, 4)]),
}


@needs_blas_controls
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", OPS)
def test_split_ops_give_the_same_bytes_on_any_worker_count(monkeypatch, dtype, name):
    op, shapes = OPS[name]
    rng = np.random.default_rng(45)
    inputs = [_zero_heavy(rng, shape, dtype) if len(shape) > 1 else
              rng.standard_normal(shape).astype(dtype) for shape in shapes]
    splits, full = [], ad.share
    monkeypatch.setattr(ad, "share", lambda work, args: (splits.append(len(args)),
                                                         full(work, args))[1])
    runs = []
    for n in (1, 2, 3):
        force_split(monkeypatch, n, block=16)
        splits.clear()
        with ad.precision(dtype), ad.workers(5):
            runs.append(op_bytes(op, inputs, seed=46))
        assert max(splits, default=1) == n
    assert runs[0] == runs[1] == runs[2]


def fails_on_a_helper():
    """An error raised on a helper thread while the caller's pieces succeed."""
    raised = threading.Event()

    def work(k):
        if threading.current_thread() is threading.main_thread():
            raised.wait(timeout=30)
            return k
        try:
            raise ValueError(f"piece {k} failed")
        finally:
            raised.set()
    return work


@needs_blas_controls
def test_an_error_in_a_helper_reaches_the_caller_and_everything_is_restored(monkeypatch):
    monkeypatch.setattr(ad, "_cpu_count", lambda: 3)
    threads, blas = threading.active_count(), blas_threads()
    with ad.no_grad():
        with ad.workers(8):
            assert threading.active_count() == threads and blas_threads() == blas
            assert ad.share(lambda k: k, [7]) == [7]   # one piece starts nothing
            assert threading.active_count() == threads and blas_threads() == blas
            assert ad.share(lambda k: k, range(2)) == [0, 1]
            assert threading.active_count() == threads + 2 and blas_threads() == 1
            with ad.workers(8):   # an inner context adds nothing
                assert threading.active_count() == threads + 2
            with pytest.raises(ValueError, match="piece [0-9] failed"):
                ad.share(fails_on_a_helper(), range(6))
            assert ad.share(lambda k: 2 * k, range(5)) == [0, 2, 4, 6, 8]
    assert threading.active_count() == threads and blas_threads() == blas
    assert ad._GRAD_ENABLED is True
    with pytest.raises(ZeroDivisionError):
        with ad.workers(8):
            ad.share(lambda k: 1 / (k - 2), range(5))
    assert threading.active_count() == threads and blas_threads() == blas


@needs_blas_controls
def test_a_helper_lets_go_of_its_last_job(monkeypatch):
    monkeypatch.setattr(ad, "_cpu_count", lambda: 2)

    def work_on(a):
        return lambda k: k + a.size
    held = np.zeros(8)
    freed = weakref.ref(held)
    with ad.workers(4):
        assert ad.share(work_on(held), range(4)) == [8, 9, 10, 11]
        del held
        deadline = time.monotonic() + 10
        while freed() is not None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert freed() is None   # while the helper waits for its next job


def test_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(ad, "_cpu_count", lambda: 1)
    threads = threading.active_count()
    with ad.workers(16):
        assert ad._POOL is None
        assert ad.row_slices(16, 1 << 30) == [slice(0, 16)]
        assert ad.share(lambda k: k, range(16)) == list(range(16))
        assert threading.active_count() == threads


# -- malloc keeps freed memory from the first desk-size op on ------------------


def record_mallopt(monkeypatch) -> list:
    """The (param, value) calls made to glibc's mallopt, none of them made,
    in a process that has not yet reached _SPLIT_MIN."""
    calls = []
    monkeypatch.setattr(ad, "_FREED_KEPT", False)
    monkeypatch.setattr(ad, "_mallopt", lambda: lambda *call: calls.append(call) or 1)
    return calls


def test_the_first_desk_size_op_keeps_freed_memory_once_per_process(monkeypatch):
    calls = record_mallopt(monkeypatch)
    ad.gelu(Tensor(np.zeros((4, 64, 64))))        # 2^14 elements
    ad.row_slices(16, ad._SPLIT_MIN - 1)
    assert calls == [] and not ad._FREED_KEPT
    # outside any workers context the op runs whole, and still counts
    ad.gelu(Tensor(np.zeros((2, 256, 256))))      # 2^17 elements
    assert calls == [(ad._M_MMAP_THRESHOLD, 32 << 20), (ad._M_TRIM_THRESHOLD, -1)]
    assert (ad._M_MMAP_THRESHOLD, ad._M_TRIM_THRESHOLD) == (-3, -1)   # glibc's malloc.h
    assert ad._FREED_KEPT
    ad.gelu(Tensor(np.zeros((2, 256, 256))))
    with ad.workers(16):
        ad.row_slices(16, 1 << 30)
    assert len(calls) == 2


# -- backward releases the graph as it walks it ---------------------------------


def encoder_loss(dtype, rate, n_layers=2, hidden_dim=16, ff_dim=32, length=12, b=4,
                 vocab_size=20, seed=50):
    """(loss, params): the MLM + NSP pretraining loss of a small encoder on a
    padded batch, with dropout at rate, built afresh from seed."""
    with ad.precision(dtype):
        config = md.ModelConfig(n_layers=n_layers, hidden_dim=hidden_dim, n_heads=2,
                                ff_dim=ff_dim, max_seq_len=length, vocab_size=vocab_size,
                                dropout_rate=rate)
        params = md.init_params(config, substream(seed, "init"))
        rng = np.random.default_rng(seed)
        ids = rng.integers(5, vocab_size, (b, length))
        ids[:, 0] = 2
        mask = np.ones_like(ids)
        mask[:, length - 2:], ids[:, length - 2:] = 0, 0
        targets = np.where((rng.random(ids.shape) < 0.15) & (mask == 1), ids, ad.IGNORE_INDEX)
        targets[:, 0], targets[:, 1] = ad.IGNORE_INDEX, ids[:, 1]
        batch = pt.PretrainBatch(ids, np.zeros_like(ids), mask, targets, rng.integers(0, 2, b))
        loss = pt.pretrain_loss(params, config, batch, train=True,
                                rng=np.random.default_rng(seed + 1))[0]
    return loss, params


@pytest.mark.parametrize("n_workers", [1, pytest.param(2, marks=needs_blas_controls)])
@pytest.mark.parametrize("rate", [0.0, 0.1], ids=["no-dropout", "dropout"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_a_released_backward_gives_the_leaf_gradients_of_a_retained_one(
        monkeypatch, dtype, rate, n_workers):
    force_split(monkeypatch, n_workers, block=64)
    grads = []
    for backward in (retaining_backward, Tensor.backward):
        with ad.workers(4):
            loss, params = encoder_loss(dtype, rate)
            backward(loss)
        grads.append({p: t.grad.tobytes() for p, t in params.items()})
    assert grads[0] == grads[1]


def test_backward_releases_every_op_node_and_keeps_leaf_gradients():
    loss, _ = encoder_loss("float32", 0.1)
    order = ad._topo_order(loss)
    ops = [n for n in order if n._backward is not None]
    leaves = [n for n in order if n._backward is None]
    outputs = [weakref.ref(n.data) for n in ops if n is not loss and n.data.base is None]
    del order
    assert outputs and all(ref() is not None for ref in outputs)
    loss.backward()
    assert ops and all(n._parents == () and n._backward is ad._released and n.grad is None
                       for n in ops)
    assert leaves and all(n.grad is not None for n in leaves)
    del ops
    # with the loss still held, no output of the graph under it is alive
    assert all(ref() is None for ref in outputs)


def test_backward_frees_an_output_once_the_walk_has_passed_it():
    x = rand((64, 64), seed=52)
    freed = []

    def probe_back(g):   # runs after every node above the probe
        freed.append(output() is None)
        ad._accumulate(x, g)
    probe = ad._node(x.data.copy(), (x,), probe_back)
    h = ad.tanh(probe)
    output = weakref.ref(h.data)
    loss = ad.sum_all(ad.tanh(h))
    del h
    loss.backward()
    assert freed == [True]


def test_a_graph_is_backed_through_once():
    x = rand((3, 4), seed=51)
    y = ad.tanh(x)
    loss = ad.sum_all(ad.mul(y, y))
    loss.backward()
    first = x.grad.copy()
    with pytest.raises(ConfigurationError, match="released graph"):
        loss.backward()
    with pytest.raises(ConfigurationError, match="released graph"):
        ad.sum_all(ad.scale(y, 2.0)).backward()   # a new graph on a released node
    assert x.grad.tobytes() == first.tobytes()


def test_a_step_peaks_near_the_memory_its_forward_left_live():
    # four layers with an FFN of 4H, as the README desk model; keeping the
    # whole graph through backward peaks at 1.64x here
    tracemalloc.start()
    try:
        loss, _ = encoder_loss("float32", 0.1, n_layers=4, hidden_dim=32, ff_dim=128,
                               length=32, b=8, vocab_size=100)
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * live


# -- bool keep masks give the bits of the float-mask multiply -------------------


def with_specials(rng, shape, dtype):
    """_zero_heavy values with ±inf, nan and negative values among them."""
    x = _zero_heavy(rng, shape, dtype)
    flat = x.reshape(-1)
    flat[rng.choice(flat.size, 8, replace=False)] = np.repeat([np.inf, -np.inf, np.nan, -1.5], 2)
    return x


# inf * 0 is nan, and a helper thread warns of it whatever the caller's errstate
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize("n_workers", [1, pytest.param(3, marks=needs_blas_controls)])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_bool_keep_masks_give_the_bytes_of_the_float_mask_multiply(
        monkeypatch, dtype, n_workers, bit_generator):
    rng = np.random.default_rng(52)
    force_split(monkeypatch, n_workers)
    x, g = (with_specials(rng, (6, 5, 4), dtype) for _ in range(2))
    with ad.precision(dtype), ad.workers(6):
        t = Tensor(x, requires_grad=True)
        out = ad.dropout(t, 0.3, np.random.Generator(bit_generator(53)))
        out.backward(g)
        keep = np.random.Generator(bit_generator(53)).random(x.shape) >= 0.3
        assert out.data.tobytes() == float_mask_keep(x, keep, 0.3).tobytes()
        assert t.grad.tobytes() == float_mask_keep(g, keep, 0.3).tobytes()

    inputs = [rng.standard_normal((6, 5, 4)).astype(dtype)] + [
        rng.standard_normal(shape).astype(dtype) for shape in [(4, 4), (4,)] * 3]
    mask_bias = np.where(np.arange(5) < 4, 0.0, -1e9)[None, None, None, :]

    def attention_bytes(g):
        ts = [Tensor(a, requires_grad=True) for a in inputs]
        with ad.precision(dtype), ad.workers(6):
            out = ad.attention(*ts, mask_bias, 2, 0.3, np.random.Generator(bit_generator(54)))
            out.backward(g)
        return [out.data.tobytes()] + [t.grad.tobytes() for t in ts]
    for g in (_zero_heavy(rng, (6, 5, 4), dtype), with_specials(rng, (6, 5, 4), dtype)):
        got = attention_bytes(g)
        with monkeypatch.context() as patched:
            patched.setattr(ad, "_apply_keep", float_mask_keep)
            assert got == attention_bytes(g)

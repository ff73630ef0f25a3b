"""Gradient correctness for every primitive, plus the hand-checkable anchors."""

import numpy as np
import pytest

from bertlab import autodiff as ad
from bertlab.autodiff import Tensor
from bertlab.errors import DimensionError, NumericFault

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
    err = ad.grad_check(lambda t: ad.sum_all(Tensor(np.zeros(1))), x)
    assert err == 0.0


def _identity_with_backward(t, grad_of):
    # an op whose forward is the identity but whose backward passes grad_of(g)
    return ad._node(t.data.copy(), (t,), lambda g: ad._accumulate(t, grad_of(g)))


CHECKERS = {
    "grad_check": lambda f, x: ad.grad_check(f, x),
    "grad_check_params": lambda f, x: ad.grad_check_params(lambda: f(x), {"x": x})["x"],
    "grad_check_params-max_coords":
        lambda f, x: ad.grad_check_params(lambda: f(x), {"x": x}, max_coords=3)["x"],
}


@pytest.mark.parametrize("check", CHECKERS.values(), ids=CHECKERS.keys())
def test_checker_reports_a_wrong_backward(check):
    x = rand((4, 5), seed=30)
    doubled = lambda t: ad.sum_all(_identity_with_backward(t, lambda g: 2.0 * g))
    assert check(doubled, x) > FD_TOL


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
    assert ad.grad_check(lambda t: ad.sum_all(ad.mul(ad.add(t, b), ad.add(t, b))), a) < FD_TOL
    bias = rand((4,), seed=4)
    assert ad.grad_check(lambda t: ad.sum_all(ad.mul(ad.add(a, t), ad.add(a, t))), bias) < FD_TOL


def test_fd_sub_and_scale_and_add_const():
    a = rand((2, 3), seed=5)
    b = rand((2, 3), seed=6)
    const = np.array([[0.0, -1e9, 0.0]])
    assert ad.grad_check(lambda t: ad.sum_all(ad.mul(ad.sub(t, b), ad.sub(t, b))), a) < FD_TOL
    assert ad.grad_check(lambda t: ad.sum_all(ad.mul(ad.scale(t, 2.5), ad.scale(t, 2.5))), a) < FD_TOL
    assert ad.grad_check(lambda t: ad.sum_all(ad.tanh(ad.add_const(t, np.zeros((2, 3))))), a) < FD_TOL
    masked = ad.add_const(Tensor(np.zeros((1, 3)), requires_grad=True), const)
    assert np.isneginf(masked.data[0, 1] + 0) or masked.data[0, 1] == -1e9


def test_fd_matmul_including_batched():
    a = rand((3, 4), seed=7)
    b = rand((4, 2), seed=8)
    assert ad.grad_check(lambda t: ad.sum_all(ad.tanh(ad.matmul(t, b))), a) < FD_TOL
    assert ad.grad_check(lambda t: ad.sum_all(ad.tanh(ad.matmul(a, t))), b) < FD_TOL
    ab = rand((2, 3, 4), seed=9)   # batched lhs against shared rhs
    assert ad.grad_check(lambda t: ad.sum_all(ad.tanh(ad.matmul(ab, t))), b) < FD_TOL
    bb = rand((2, 4, 5), seed=10)
    assert ad.grad_check(lambda t: ad.sum_all(ad.tanh(ad.matmul(t, bb))), ab) < FD_TOL


def test_fd_softmax_all_axes():
    x = rand((3, 5), seed=11)
    w = Tensor(np.random.default_rng(12).standard_normal((3, 5)))
    for axis in (-1, 0, 1):
        assert ad.grad_check(lambda t: ad.sum_all(ad.mul(ad.softmax(t, axis=axis), w)), x) < FD_TOL


def test_fd_layer_norm_all_inputs():
    x = rand((2, 3, 6), seed=13)
    gain = rand((6,), seed=14)
    bias = rand((6,), seed=15)
    f = lambda: ad.sum_all(ad.tanh(ad.layer_norm(x, gain, bias)))
    errs = ad.grad_check_params(f, {"x": x, "gain": gain, "bias": bias})
    assert max(errs.values()) < FD_TOL


def test_fd_gelu_tanh():
    x = rand((4, 3), seed=16)
    assert ad.grad_check(lambda t: ad.sum_all(ad.gelu(t)), x) < FD_TOL
    assert ad.grad_check(lambda t: ad.sum_all(ad.tanh(t)), x) < FD_TOL


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
    assert ad.grad_check(lambda t: ad.sum_all(ad.tanh(ad.embedding_lookup(t, ids))), table) < FD_TOL


def test_embedding_lookup_rejects_out_of_range():
    table = Tensor(np.zeros((4, 2)))
    with pytest.raises(DimensionError):
        ad.embedding_lookup(table, np.array([4]))


def test_fd_reshape_transpose_select():
    x = rand((2, 3, 4), seed=18)
    assert ad.grad_check(lambda t: ad.sum_all(ad.tanh(ad.reshape(t, (6, 4)))), x) < FD_TOL
    assert ad.grad_check(lambda t: ad.sum_all(ad.tanh(ad.transpose(t, (2, 0, 1)))), x) < FD_TOL
    assert ad.grad_check(lambda t: ad.sum_all(ad.tanh(ad.select(t, 1, 0))), x) < FD_TOL


def test_fd_cross_entropy_with_ignored_positions():
    logits = rand((3, 5), seed=19)
    targets = np.array([1, -100, 4])
    assert ad.grad_check(lambda t: ad.cross_entropy(t, targets), logits) < FD_TOL


def test_cross_entropy_all_ignored_is_zero():
    logits = rand((2, 3), seed=20)
    loss = ad.cross_entropy(logits, np.array([-100, -100]))
    assert float(loss.data) == 0.0
    loss.backward()  # must not blow up


def test_fd_mean_all_and_sum_all():
    x = rand((3, 2), seed=21)
    assert ad.grad_check(lambda t: ad.mean_all(ad.mul(t, t)), x) < FD_TOL
    assert ad.grad_check(lambda t: ad.sum_all(ad.mul(t, t)), x) < FD_TOL


def test_dropout_identity_at_zero_and_scaling():
    x = Tensor(np.ones((4, 4)), requires_grad=True)
    assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x
    out = ad.dropout(x, 0.5, np.random.default_rng(1))
    kept = out.data != 0
    np.testing.assert_allclose(out.data[kept], 2.0)  # inverted scaling 1/(1-p)
    ad.sum_all(out).backward()
    np.testing.assert_allclose(x.grad[kept], 2.0)
    np.testing.assert_allclose(x.grad[~kept], 0.0)


def test_precision_context_controls_new_tensor_dtype():
    assert Tensor([1.0]).dtype == np.float64  # inside the autouse fixture
    with ad.precision("float32"):
        assert Tensor([1.0]).dtype == np.float32
    assert Tensor([1.0]).dtype == np.float64

"""`seeding.map_units`: the same results as a loop over the units, in unit
order, from forked worker processes; in-process where forking could not
help or is unsafe; errors and cleanup as in the loop."""

import multiprocessing
import os
import time

import numpy as np
import pytest

from bertlab import autodiff as ad
from bertlab import seeding
from bertlab.autodiff import Tensor
from bertlab.errors import DimensionError, ValidationError
from bertlab.seeding import map_units, substream


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(ad, "_cpu_count", lambda: 2)


def draws(seed):
    """A float array, a Tensor dict and a scalar from the seed's substream."""
    rng = substream(seed, "test")
    return {"array": rng.standard_normal((3, 5)),
            "params": {"w": Tensor(rng.standard_normal((4, 2)), requires_grad=True),
                       "b": Tensor(np.zeros(2, np.float32))},
            "sum": float(rng.random())}


def test_results_equal_the_loop_bit_for_bit(two_cpus):
    seeds = [3, 1, 4, 1, 5]
    got = map_units(draws, seeds)
    expected = [draws(s) for s in seeds]
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g["array"].tobytes() == e["array"].tobytes()
        assert g["sum"].hex() == e["sum"].hex()
        assert sorted(g["params"]) == sorted(e["params"])
        for name, t in e["params"].items():
            assert type(g["params"][name]) is Tensor
            assert g["params"][name].data.dtype == t.data.dtype
            assert g["params"][name].data.tobytes() == t.data.tobytes()
            assert g["params"][name].requires_grad == t.requires_grad
    assert multiprocessing.active_children() == []


def _late_first(i):
    time.sleep(0.05 * (4 - i))   # unit 0 finishes last
    return i, os.getpid()


def test_unit_order_is_kept_when_units_finish_out_of_order(two_cpus):
    got = map_units(_late_first, range(5))
    assert [i for i, _ in got] == list(range(5))
    assert os.getpid() not in {pid for _, pid in got}


def _pid(_):
    return os.getpid()


def _refuse(*args, **kwargs):
    raise AssertionError("a worker process was started")


@pytest.mark.parametrize("where", ["one-cpu", "one-unit", "workers"])
def test_runs_in_process_where_forking_cannot_help(monkeypatch, where):
    monkeypatch.setattr(ad, "_cpu_count", lambda: 1 if where == "one-cpu" else 2)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _refuse)
    units = [0] if where == "one-unit" else [0, 1, 2]
    if where == "workers":
        if ad._openblas() is None:
            pytest.skip("workers opens no pool without OpenBLAS thread controls")
        with ad.workers(4):
            assert ad._POOL is not None
            assert map_units(_pid, units) == [os.getpid()] * len(units)
    else:
        assert map_units(_pid, units) == [os.getpid()] * len(units)


def test_a_map_inside_a_unit_runs_in_its_worker(two_cpus):
    nested = map_units(lambda u: (os.getpid(), map_units(_pid, [u, u])), [0, 1])
    assert os.getpid() not in {pid for pid, _ in nested}
    assert all(inner == [pid, pid] for pid, inner in nested)


def _two_fail(i):
    if i == 1:
        time.sleep(0.3)   # fails after unit 2 has failed
        raise ValidationError("unit 1 is bad", ["row 7", "row 9"])
    if i == 2:
        raise DimensionError("matmul", (2, 3), (4, 5))
    return i


def test_the_first_failing_unit_in_order_wins(two_cpus):
    with pytest.raises(ValidationError) as caught:
        map_units(_two_fail, range(4))
    exc = caught.value
    assert type(exc) is ValidationError and exc.exit_code == 6
    assert exc.items == ["row 7", "row 9"]
    assert str(exc) == str(ValidationError("unit 1 is bad", ["row 7", "row 9"]))
    assert multiprocessing.active_children() == []
    # the same error, with its fields, when it is the only one
    with pytest.raises(DimensionError) as caught:
        map_units(_two_fail, [0, 2, 3])
    assert (caught.value.op, caught.value.shapes, caught.value.exit_code) == (
        "matmul", ((2, 3), (4, 5)), 4)
    assert multiprocessing.active_children() == []


def test_the_error_carries_the_workers_traceback(two_cpus):
    with pytest.raises(DimensionError) as caught:
        map_units(_two_fail, [2, 0])
    assert "unit 0 failed in a worker process" in str(caught.value.__cause__)
    assert "_two_fail" in str(caught.value.__cause__)


def test_a_result_that_will_not_pickle_is_an_error(two_cpus):
    with pytest.raises(Exception, match="pickle"):
        map_units(lambda u: (lambda: u), [0, 1])
    assert multiprocessing.active_children() == []


def _dies(i):
    if i == 1:
        os._exit(3)   # as a worker killed for memory would
    return i


def test_a_worker_that_dies_is_an_error_not_a_hang(two_cpus):
    with pytest.raises(RuntimeError, match="exited before it sent unit 1"):
        map_units(_dies, range(4))
    assert multiprocessing.active_children() == []


def _blas_threads(_):
    np.ones((64, 64)) @ np.ones((64, 64))
    threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 1
    return ad._openblas()[0](), threads


@pytest.mark.skipif(ad._openblas() is None, reason="numpy without OpenBLAS thread controls")
def test_a_worker_runs_openblas_on_one_thread(two_cpus):
    get, set_ = ad._openblas()
    before = get()
    set_(2)
    try:
        # one OpenBLAS thread, and no OpenBLAS helper thread beside the worker's own
        assert map_units(_blas_threads, range(2)) == [(1, 1), (1, 1)]
        assert get() == 2   # the caller's count is restored
    finally:
        set_(before)

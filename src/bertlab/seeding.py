"""Named RNG substreams so every source of randomness hangs off one run seed,
and `map_units`, which computes independent seeded units on every CPU.

A substream is identified by (seed, name). Derivation goes through SHA-256, so
streams for different names are independent and stable across platforms and
numpy versions.
"""

import hashlib
import multiprocessing
import traceback
from multiprocessing.connection import wait

import numpy as np

from . import autodiff as ad


def substream_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(seed: int, name: str) -> np.random.Generator:
    """Generator for the named substream of a run seed."""
    return np.random.Generator(np.random.PCG64(substream_seed(seed, name)))


_IN_WORKER = False   # set in each worker: a map_units called there runs in-process


def _serve(conn, fn, units, indices) -> None:
    """A worker's body: compute the units at `indices` in order and send
    (index, result, None) for each, or (index, error, its traceback) for the
    first that fails, then stop."""
    global _IN_WORKER
    _IN_WORKER = True
    for i in indices:
        try:
            conn.send((i, fn(units[i]), None))
        except Exception as exc:   # the unit's error, or its result would not pickle
            conn.send((i, exc, traceback.format_exc()))
            return


def map_units(fn, units) -> list:
    """[fn(u) for u in units], computed in n = min(CPUs, units) forked worker
    processes, worker k taking units k, k + n, ... in turn with OpenBLAS on
    one thread (the caller's count is restored after). The results come back
    pickled, in unit order. If units raise, the first failing unit in order
    raises its error here, with the worker's traceback as its cause; a
    worker that dies before it sends a unit is a RuntimeError. Every worker
    has exited when this returns. With one CPU or one unit, inside an open
    `autodiff.workers` context (its helper threads may be alive) or inside a
    worker, it runs in-process and starts no process. A unit must be a pure
    function of its inputs, so that where it runs does not change its bits."""
    units = list(units)
    n = min(ad._cpu_count(), len(units))
    if n < 2 or ad._POOL is not None or _IN_WORKER:
        return [fn(u) for u in units]
    # fork, named: a worker inherits fn and the units instead of unpickling
    # them, and Python 3.14 changes Linux's default start method
    ctx = multiprocessing.get_context("fork")
    workers, done, failed = {}, {}, {}
    read_all = False
    # the workers inherit OpenBLAS at one thread: set in a worker, the count
    # would restart the helper threads that the fork stopped, and one would
    # spin beside the worker
    blas = ad._openblas()
    if blas:
        blas_threads = blas[0]()
        blas[1](1)
    try:
        for k in range(n):
            receive, send = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_serve, daemon=True,
                                 args=(send, fn, units, range(k, len(units), n)))
            workers[receive] = worker
            worker.start()
            send.close()   # before the next fork, so that EOF means the worker is done
        reading = list(workers)
        while reading:
            for receive in wait(reading):
                try:
                    i, value, trace = receive.recv()
                except EOFError:   # the worker has sent all it will
                    reading.remove(receive)
                    continue
                (done if trace is None else failed)[i] = (value, trace)
        read_all = True
    finally:
        for receive, worker in workers.items():
            if not read_all:   # this call was interrupted: nothing will read the pipes
                worker.terminate()
            worker.join()
            receive.close()
        if blas:
            blas[1](blas_threads)
    first = min(failed, default=len(units))
    lost = [i for i in range(first) if i not in done]
    if lost:
        raise RuntimeError(f"a worker process exited before it sent unit {lost[0]}")
    if failed:
        exc, trace = failed[first]
        raise exc from RuntimeError(f"unit {first} failed in a worker process:\n{trace}")
    return [done[i][0] for i in range(len(units))]

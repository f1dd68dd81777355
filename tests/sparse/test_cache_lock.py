"""Concurrent solves on one SparseLU handle share one factor cache.

The serving layer multiplexes sessions: two `solve()` calls on the same
handle can land on different threads, yet they share a single
:class:`DeviceFactorCache`.  Without per-handle serialization, one
solve's LRU eviction interleaves with the other's upload and corrupts
the residency bookkeeping (or frees blocks out from under a running
sweep).  These tests storm a shared handle from many threads and assert
the solves stay bitwise-identical to sequential execution and the
device accounting stays exact.
"""

import threading

import numpy as np
import pytest

from repro.device import A100, Device
from repro.sparse import DeviceFactorCache, SolvePlan, SparseLU, \
    multifrontal_factor_cpu, nested_dissection, symbolic_analysis

from .util import grid2d

pytestmark = pytest.mark.serve

N_THREADS = 6
N_SOLVES = 5


def _run_threads(fn, n=N_THREADS):
    errors = []

    def wrap(tid):
        try:
            fn(tid)
        except BaseException as exc:  # noqa: BLE001 - reraised below
            errors.append(exc)

    threads = [threading.Thread(target=wrap, args=(t,)) for t in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _factored_solver(budget_frac=None):
    """A factored handle + a budget that forces mid-solve evictions."""
    solver = SparseLU(grid2d(12, 12)).analyze().factor(backend="cpu")
    budget = None
    if budget_frac is not None:
        plan = SolvePlan(solver.factors)
        budget = max(1, plan.total_nbytes() // budget_frac)
    return solver, budget


class TestSharedHandleSolves:
    def test_concurrent_solves_match_sequential(self):
        # Budget holds roughly a third of the levels, so each sweep both
        # uploads and evicts — the interleaving a missing lock corrupts.
        solver, budget = _factored_solver(budget_frac=3)
        dev = Device(A100())
        rng = np.random.default_rng(7)
        rhs = [rng.standard_normal(144) for _ in range(N_THREADS)]
        want = [solver.solve(b, device=dev, memory_budget=budget)[0]
                for b in rhs]
        steady = dev.allocated_bytes  # resident levels stay on device

        def worker(tid):
            for _ in range(N_SOLVES):
                x, info = solver.solve(rhs[tid], device=dev,
                                       memory_budget=budget)
                # device never fell back to the host mid-storm
                assert not any(ev.action == "host-fallback"
                               for ev in info.recovery)
                assert np.array_equal(x, want[tid])

        _run_threads(worker)
        assert dev.allocated_bytes == steady
        solver.solve_cache.free()
        assert dev.allocated_bytes == 0

    def test_budget_churn_across_threads(self):
        # Threads alternate between two budgets on one handle: every
        # switch frees the old cache and builds a new one — the exact
        # window where an unsynchronized solve would sweep over freed
        # blocks.  Serialized, every solve still matches the host.
        solver, small = _factored_solver(budget_frac=4)
        dev = Device(A100())
        rng = np.random.default_rng(11)
        b = rng.standard_normal(144)
        want, _ = solver.solve(b)  # host reference

        def worker(tid):
            budget = small if tid % 2 else None
            for _ in range(N_SOLVES):
                x, _info = solver.solve(b, device=dev, memory_budget=budget)
                np.testing.assert_allclose(x, want, rtol=1e-12, atol=1e-14)

        _run_threads(worker)
        solver.solve_cache.free()
        assert dev.allocated_bytes == 0


class TestCacheExclusive:
    def _fixture(self):
        a = grid2d(9, 9)
        nd = nested_dissection(a, leaf_size=8)
        ap = a[nd.perm][:, nd.perm].tocsr()
        fac = multifrontal_factor_cpu(ap, symbolic_analysis(ap, nd))
        plan = SolvePlan(fac)
        dev = Device(A100())
        return dev, fac, plan

    def test_exclusive_is_reentrant_with_operations(self):
        dev, fac, plan = self._fixture()
        cache = DeviceFactorCache(dev, fac, plan,
                                  memory_budget=plan.total_nbytes() // 2)
        li = min(cache.resident_levels) if cache.resident_levels else 0
        with cache.exclusive():
            blocks, owned = cache.acquire(li, "fwd")
            if owned:
                blocks.free()
            cache.evict_lru()   # nests under exclusive() without deadlock
            cache.free()
        assert dev.allocated_bytes == 0

    def test_exclusive_blocks_second_holder(self):
        dev, fac, plan = self._fixture()
        cache = DeviceFactorCache(dev, fac, plan)
        order = []
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with cache.exclusive():
                entered.set()
                release.wait(timeout=5)
                order.append("holder-exit")

        def contender():
            entered.wait(timeout=5)
            with cache.exclusive():
                order.append("contender-enter")

        t1 = threading.Thread(target=holder)
        t2 = threading.Thread(target=contender)
        t1.start()
        t2.start()
        entered.wait(timeout=5)
        release.set()
        t1.join(timeout=5)
        t2.join(timeout=5)
        assert order == ["holder-exit", "contender-enter"]
        cache.free()


class TestLazyDownloadRace:
    def test_concurrent_readers_download_each_front_once(self, monkeypatch):
        # Host solves (lock-free) read the device-held fronts while
        # budgeted device solves spill them: every front must cross the
        # bus exactly once and every answer must match the host's.
        import sys
        import time

        import repro.device.memory as memory
        solver = SparseLU(grid2d(30, 30)).analyze()
        dev = Device(A100())
        solver.factor(backend="batched", device=dev)
        budget = solver.solve_cache.resident_nbytes // 3
        front_bytes = {8 * f.order ** 2 for f in solver.symb.fronts}
        held = sum(f.device_front is not None for f in solver.factors.fronts)
        downloads = []
        d2h = memory._transfer_d2h

        def tap(device, src, **kw):
            if src.nbytes in front_bytes and src.ndim == 2 \
                    and src.shape[0] == src.shape[1]:
                downloads.append(src.nbytes)
                time.sleep(1e-4)    # widen the check-then-download window
            return d2h(device, src, **kw)

        monkeypatch.setattr(memory, "_transfer_d2h", tap)
        b = np.random.default_rng(3).standard_normal(900)
        errors, results = [], []

        start = threading.Barrier(N_THREADS)

        def worker(tid):
            try:
                start.wait(timeout=60)
                for _ in range(N_SOLVES):
                    if tid % 2:
                        x, _ = solver.solve(b)
                    else:
                        x, _ = solver.solve(b, device=dev,
                                            memory_budget=budget)
                    results.append(x)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(t,))
                       for t in range(N_THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]
        assert len(results) == N_THREADS * N_SOLVES
        assert len(downloads) == held
        for x in results:
            np.testing.assert_allclose(x, results[0], rtol=1e-12,
                                       atol=1e-14)
        solver.release()
        assert dev.allocated_bytes == 0

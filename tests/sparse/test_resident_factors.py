"""Factors kept on the device from factor to solve.

A ``SparseLU`` device factorization leaves its fronts where the
traversal put them; the solve cache adopts them as views, host copies
are downloaded lazily, and ``release()`` frees them.  These tests pin
the hand-off against the download-and-re-upload path it replaces.
"""

import gc

import numpy as np
import pytest

import repro.device.memory as memory
from repro.device import A100, PERSISTENT, Device, FaultPlan, FaultRule
from repro.errors import TransferError
from repro.serve import CoalescingPolicy, SolverService
from repro.sparse import SparseLU, multifrontal_factor_gpu
from repro.sparse.numeric.gpu_solve import multifrontal_solve_gpu
from repro.sparse.numeric.solve_plan import DeviceFactorCache, SolvePlan
from repro.workloads.fronts import build_maxwell_workload

from .util import grid2d, grid3d


@pytest.fixture(scope="module")
def maxwell():
    return build_maxwell_workload(4, leaf_size=16)


def perturbed(a, seed=7):
    a2 = a.copy()
    rng = np.random.default_rng(seed)
    a2.data = a2.data * (1.0 + 0.05 * rng.standard_normal(a2.nnz))
    return a2


@pytest.fixture
def transfers(monkeypatch):
    """Every H2D/D2H payload size, in call order."""
    log = []
    h2d, d2h = memory._transfer_h2d, memory._transfer_d2h

    def tap_h2d(device, dest, src, **kw):
        log.append(("h2d", src.nbytes))
        return h2d(device, dest, src, **kw)

    def tap_d2h(device, src, **kw):
        log.append(("d2h", src.nbytes))
        return d2h(device, src, **kw)

    monkeypatch.setattr(memory, "_transfer_h2d", tap_h2d)
    monkeypatch.setattr(memory, "_transfer_d2h", tap_d2h)
    return log


def window(dev, run):
    """Run ``run()`` from a synchronized device; return its launches
    (name, cost), simulated time and transfer time."""
    dev.synchronize()
    mark = len(dev.profiler.records)
    t0, x0 = dev.host_time, dev.profiler.transfer_time
    out = run()
    t1 = dev.synchronize()
    recs = [(r.name, r.cost) for r in dev.profiler.records[mark:]]
    return out, recs, t1 - t0, dev.profiler.transfer_time - x0


class TestHandOff:
    def test_refactor_solve_matches_download_reupload(self, maxwell,
                                                      transfers):
        a, b = maxwell.matrix, maxwell.rhs
        a2 = perturbed(a)
        s = SparseLU(a).analyze()
        dev = Device(A100())
        s.factor(backend="batched", device=dev)
        s.solve(b, device=dev)

        def handoff():
            s.update_values(a2)
            s.factor(backend="batched", device=dev)
            return s.solve(b, device=dev, refine_steps=0)[0]

        del transfers[:]
        x, recs, sim, xfer = window(dev, handoff)
        rhs_bytes = b.nbytes
        assert transfers and max(n for _k, n in transfers) <= rhs_bytes

        # the reference: host factors, then an explicit cache re-uploads
        perm = s.nd.perm
        ref_dev = Device(A100())

        def reference():
            res = multifrontal_factor_gpu(ref_dev, s.a_perm, s.symb)
            plan = SolvePlan(res.factors)
            cache = DeviceFactorCache(ref_dev, res.factors, plan)
            z = multifrontal_solve_gpu(ref_dev, res.factors, b[perm],
                                       plan=plan, cache=cache).x
            cache.free()
            y = np.empty_like(z)
            y[perm] = z
            return y

        y, ref_recs, ref_sim, ref_xfer = window(ref_dev, reference)
        assert np.array_equal(x, y)
        assert recs == ref_recs
        assert ref_xfer > xfer
        assert ref_sim - sim == pytest.approx(ref_xfer - xfer, rel=1e-9)
        # the factors read back lazily are the reference's, bit for bit
        res = multifrontal_factor_gpu(Device(A100()), s.a_perm, s.symb)
        for mine, theirs in zip(s.factors.fronts, res.factors.fronts):
            for name in ("f11", "f12", "f21", "ipiv"):
                assert np.array_equal(getattr(mine, name),
                                      getattr(theirs, name))

    def test_cache_adopts_at_factor_time(self):
        a = grid3d(5)
        dev = Device(A100())
        s = SparseLU(a).analyze()
        s.factor(backend="batched", device=dev)
        cache = s.solve_cache
        assert cache is not None and cache.uploads == 0
        held = sum(f.device_front.nbytes for f in s.factors.fronts
                   if f.device_front is not None)
        assert cache.resident_nbytes == held == dev.allocated_bytes
        _, info = s.solve(np.ones(a.shape[0]), device=dev)
        assert info.final_residual < 1e-13
        assert cache.uploads == 0 and cache.hits > 0
        assert dev.allocated_bytes == held

    def test_host_solve_downloads_lazily(self, transfers):
        a = grid2d(10, 10)
        b = np.random.default_rng(1).standard_normal(100)
        dev = Device(A100())
        s = SparseLU(a).analyze()
        s.factor(backend="batched", device=dev)
        assert not any(k == "d2h" for k, _n in transfers)
        x_host, _ = s.solve(b)
        downloads = [n for k, n in transfers if k == "d2h"]
        assert len(downloads) == len(s.symb.fronts)
        # solved on the host, the handle keeps no device copy
        assert all(f.device_front is None for f in s.factors.fronts)
        assert dev.allocated_bytes == 0
        x_dev, _ = s.solve(b, device=dev)
        np.testing.assert_allclose(x_host, x_dev, rtol=1e-12, atol=1e-14)
        # a second host solve reads the host copies: no new download
        s.solve(b)
        assert len([n for k, n in transfers if k == "d2h"]) == \
            len(downloads) + 2          # the two device-solve x reads

    def test_naive_device_solve_frees_adopted_fronts(self):
        a = grid2d(9, 9)
        b = np.ones(81)
        dev = Device(A100())
        s = SparseLU(a).analyze()
        s.factor(backend="batched", device=dev)
        x_naive, _ = s.solve(b, device=dev, engine="naive")
        assert dev.allocated_bytes == 0
        x, _ = s.solve(b, device=dev)
        assert np.array_equal(x, x_naive)
        assert dev.allocated_bytes == s.solve_cache.resident_nbytes > 0

    def test_release_during_host_solve(self, monkeypatch):
        """A re-factor may start while a host solve runs: the solve
        finishes on the factors it started with."""
        import repro.sparse.solver as solver_mod
        a = grid2d(10, 10)
        b = np.random.default_rng(2).standard_normal(100)
        dev = Device(A100())
        s = SparseLU(a).analyze()
        s.factor(backend="batched", device=dev)
        x_ref, _ = s.solve(b, device=dev)
        real = solver_mod.multifrontal_solve

        def racing(factors, rhs):
            s.release()
            return real(factors, rhs)

        monkeypatch.setattr(solver_mod, "multifrontal_solve", racing)
        x, info = s.solve(b, refine_steps=2)
        assert len(info.residuals) == 3 and info.final_residual < 1e-13
        np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=1e-14)
        assert dev.allocated_bytes == 0 and s.factors is None

    def test_reading_released_factors_raises(self):
        dev = Device(A100())
        s = SparseLU(grid2d(8, 8)).analyze()
        s.factor(backend="batched", device=dev)
        old, cache = s.factors, s.solve_cache
        kept = old.fronts[0].f11          # read before: stays readable
        s.release()
        assert dev.allocated_bytes == 0 and s.factors is None
        assert s.solve_cache is None and cache.resident_nbytes == 0
        assert np.array_equal(old.fronts[0].f11, kept)
        with pytest.raises(RuntimeError, match="released"):
            old.fronts[-1].f11
        with pytest.raises(RuntimeError, match="factor"):
            s.solve(np.ones(64), device=dev)

    def test_solve_on_another_device_downloads_first(self):
        a = grid2d(9, 9)
        b = np.ones(81)
        dev, other = Device(A100()), Device(A100())
        s = SparseLU(a).analyze()
        s.factor(backend="batched", device=dev)
        x1, _ = s.solve(b, device=dev)
        x2, _ = s.solve(b, device=other)
        assert np.array_equal(x1, x2)
        assert dev.allocated_bytes == 0
        assert other.allocated_bytes == s.solve_cache.resident_nbytes > 0
        s.release()
        assert other.allocated_bytes == 0


class TestBudgetSpill:
    def test_budget_below_fronts_spills_by_downloading(self, transfers):
        a = grid3d(5)
        b = np.random.default_rng(3).standard_normal(a.shape[0])
        ref = SparseLU(a).analyze()
        ref.factor(backend="batched", device=Device(A100()))
        x_ref, _ = ref.solve(b, device=ref.solve_cache.device)

        dev = Device(A100())
        s = SparseLU(a).analyze()
        s.factor(backend="batched", device=dev)
        held = s.solve_cache.resident_nbytes
        budget = held // 3
        del transfers[:]
        x, info = s.solve(b, device=dev, memory_budget=budget)
        assert np.array_equal(x, x_ref)
        cache = s.solve_cache
        assert 0 < cache.resident_nbytes <= budget
        assert dev.allocated_bytes == cache.resident_nbytes
        # the levels it could not keep came down once, then streamed up
        assert any(k == "d2h" and n > b.nbytes for k, n in transfers)
        assert any(k == "h2d" and n > b.nbytes for k, n in transfers)
        cache.free()
        assert dev.allocated_bytes == 0
        x_again, _ = s.solve(b, device=dev, memory_budget=budget)
        assert np.array_equal(x_again, x_ref)

    def test_lru_eviction_of_adopted_level_downloads(self):
        a = grid2d(11, 11)
        dev = Device(A100())
        s = SparseLU(a).analyze()
        s.factor(backend="batched", device=dev)
        cache = s.solve_cache
        victim = cache.evict_lru()
        assert victim is not None and victim not in cache.resident_levels
        fids = cache.plan.levels[victim].fids
        assert all(s.factors.fronts[f].device_front is None for f in fids)
        assert dev.allocated_bytes == cache.resident_nbytes
        x, info = s.solve(np.ones(121), device=dev)
        assert info.final_residual < 1e-13


class TestPrecision:
    def test_fp32_adopts_and_refines(self):
        a = grid3d(5)
        b = np.random.default_rng(5).standard_normal(a.shape[0])
        dev = Device(A100())
        s = SparseLU(a).analyze()
        s.factor(backend="batched", device=dev, precision="fp32")
        cache = s.solve_cache
        assert cache is not None and cache.uploads == 0
        assert s.factors.dtype == np.float32
        assert cache.resident_nbytes == dev.allocated_bytes
        x, info = s.solve(b, device=dev)
        assert info.precision == "fp32" and not info.fallback
        assert info.final_residual <= 1e-12
        assert cache.uploads == 0


class TestLifetime:
    def test_dropped_handle_strands_no_device_bytes(self):
        dev = Device(A100())
        s = SparseLU(grid2d(12, 12)).factor()
        s.solve(np.ones(144), device=dev)
        assert dev.allocated_bytes > 0
        del s
        gc.collect()
        assert dev.allocated_bytes == 0

    def test_dropped_device_factored_handle_frees_its_fronts(self):
        dev = Device(A100())
        s = SparseLU(grid2d(12, 12)).analyze()
        s.factor(backend="batched", device=dev)
        assert dev.allocated_bytes > 0
        del s
        gc.collect()
        assert dev.allocated_bytes == 0

    def test_refactor_frees_old_fronts_first(self):
        a = grid2d(10, 10)
        dev = Device(A100())
        s = SparseLU(a).analyze()
        s.factor(backend="batched", device=dev)
        held = dev.allocated_bytes
        s.update_values(perturbed(a))
        assert dev.allocated_bytes == 0 and s.factors is None
        s.factor(backend="batched", device=dev)
        assert dev.allocated_bytes == held
        # one traversal's fronts at a time: the peak never stacks two
        assert dev.peak_allocated_bytes < 2 * held

    def test_engine_plans_stay_flat_across_refactors(self, maxwell):
        a, b = maxwell.matrix, maxwell.rhs
        dev = Device(A100())
        s = SparseLU(a).analyze()
        counts = []
        for k in range(5):
            s.update_values(perturbed(a, seed=k))
            s.factor(backend="batched", device=dev)
            s.solve(b, device=dev)
            counts.append((len(s._factor_engine.cache),
                           len(s._solve_engine.cache)))
        assert counts[0][0] > 0 and counts[0][1] > 0
        assert counts == [counts[0]] * 5

    def test_caller_engine_wins(self):
        from repro.batched.engine import BatchEngine
        dev = Device(A100())
        s = SparseLU(grid2d(8, 8)).analyze()
        mine = BatchEngine()
        s.factor(backend="batched", device=dev, engine=mine)
        assert len(mine.cache) > 0 and len(s._factor_engine.cache) == 0


@pytest.mark.chaos
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestLazyDownloadFaults:
    def test_persistent_d2h_fault_on_lazy_download(self):
        a = grid2d(10, 10)
        b = np.random.default_rng(9).standard_normal(100)
        dev = Device(A100())
        s = SparseLU(a).analyze()
        s.factor(backend="batched", device=dev)
        x_dev, _ = s.solve(b, device=dev)
        held = dev.allocated_bytes
        plan = FaultPlan([FaultRule("d2h", at=0, times=PERSISTENT)])
        with dev.fault_scope(plan):
            with pytest.raises(TransferError, match="d2h"):
                s.solve(b)                      # host solve: lazy download
            with pytest.raises(TransferError, match="d2h"):
                s.solve(b, device=dev, memory_budget=held // 3)  # spill
        # nothing stranded, nothing half-released: every front is still
        # held on the device and counted
        assert all(f.device_front is not None for f in s.factors.fronts)
        assert dev.allocated_bytes == held
        # the fault cleared: the same handle solves, device and host
        x_again, _ = s.solve(b, device=dev)
        assert np.array_equal(x_again, x_dev)
        x_host, info = s.solve(b)
        assert info.final_residual < 1e-13
        s.release()
        assert dev.allocated_bytes == 0


@pytest.mark.serve
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestServedSession:
    def test_unsolved_session_reports_real_bytes(self):
        dev = Device(A100())
        svc = SolverService(dev, policy=CoalescingPolicy(), start=False)
        a = grid2d(11, 10)
        fut = svc.submit_factor(a)
        svc.run_once()
        session = fut.result(0)
        cache = session.solver.solve_cache
        assert cache is not None
        assert cache.resident_nbytes == dev.allocated_bytes > 0
        session.close()
        assert dev.allocated_bytes == 0
        assert session.factor_report is not None
        svc.close()

    def test_session_fits_its_share_from_open(self):
        dev = Device(A100())
        a = grid2d(11, 10)
        b = np.random.default_rng(4).standard_normal(110)
        ref = SparseLU(a).analyze()
        ref.factor(backend="batched", device=Device(A100()))
        held = ref.solve_cache.resident_nbytes
        x_ref, _ = ref.solve(b, device=ref.solve_cache.device)
        svc = SolverService(dev, policy=CoalescingPolicy(), start=False,
                            sparse_memory_budget=held // 2)
        fut = svc.submit_factor(a)
        svc.run_once()
        session = fut.result(0)
        cache = session.solver.solve_cache
        assert 0 < cache.resident_nbytes <= session.budget == held // 2
        assert dev.allocated_bytes == cache.resident_nbytes
        uploads = cache.uploads
        fs = svc.submit_solve(session, b)
        svc.run_once()
        x, _ = fs.result(0)
        assert np.array_equal(x, x_ref)
        # the first solve found the cache already under its share
        assert session.solver.solve_cache is cache
        assert cache.uploads > uploads
        session.close()
        assert dev.allocated_bytes == 0
        svc.close()

"""Cross-module property-based invariants.

Each property here is something the system's correctness *rests on*, as
opposed to the per-module behaviour tests: extend-add algebra, DCWI
consistency against dense references under random offsets, permutation
algebra of the row interchanges, and conservation laws of the simulator.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batched import IrrBatch, PanelPivots, fused_getf2, irr_gemm, \
    irr_laswp, lu_reconstruct
from repro.device import A100, Device, KernelCost
from repro.sparse import nested_dissection, symbolic_analysis
from repro.sparse.numeric.factors import assemble_front

from .sparse.util import grid2d


# ----------------------------------------------------------------------
# extend-add algebra
# ----------------------------------------------------------------------

class TestExtendAddAlgebra:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_extend_add_is_order_independent(self, seed):
        """Scattering children contributions commutes — required for any
        per-level batching order to be legal."""
        rng = np.random.default_rng(seed)
        a = grid2d(8, 8, seed=seed % 100)
        nd = nested_dissection(a, leaf_size=8)
        ap = a[nd.perm][:, nd.perm].tocsr()
        symb = symbolic_analysis(ap, nd)
        # find a front with >= 2 children
        target = next((f for f in symb.fronts if len(f.children) >= 2),
                      None)
        if target is None:
            return
        contribs = []
        for c in target.children:
            u = symb.fronts[c].upd
            contribs.append((rng.standard_normal((len(u), len(u))), u))
        f1, _ = assemble_front(ap, target, contribs)
        f2, _ = assemble_front(ap, target, contribs[::-1])
        np.testing.assert_allclose(f1, f2, atol=1e-14)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_extend_add_linear(self, seed):
        rng = np.random.default_rng(seed)
        a = grid2d(6, 6, seed=1)
        nd = nested_dissection(a, leaf_size=6)
        ap = a[nd.perm][:, nd.perm].tocsr()
        symb = symbolic_analysis(ap, nd)
        target = next((f for f in symb.fronts if f.children), None)
        if target is None:
            return
        c = target.children[0]
        u = symb.fronts[c].upd
        s1 = rng.standard_normal((len(u), len(u)))
        s2 = rng.standard_normal((len(u), len(u)))
        base, _ = assemble_front(ap, target, [])
        f_sum, _ = assemble_front(ap, target, [(s1 + s2, u)])
        f_parts, _ = assemble_front(ap, target, [(s1, u), (s2, u)])
        np.testing.assert_allclose(f_sum, f_parts, atol=1e-12)
        # and subtracting the base leaves exactly the scattered updates
        np.testing.assert_allclose((f_sum - base).sum(),
                                   (s1 + s2).sum(), atol=1e-9)


# ----------------------------------------------------------------------
# DCWI vs dense reference under random offsets
# ----------------------------------------------------------------------

class TestDcwiAgainstDense:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6),
           st.integers(0, 9), st.integers(0, 9))
    def test_offset_gemm_equals_dense_slice(self, seed, bs, oi, oj):
        """For any offsets, irrGEMM touches exactly the DCWI-predicted
        slice of every matrix and computes the dense product there."""
        rng = np.random.default_rng(seed)
        dev = Device(A100())
        sizes = rng.integers(1, 14, size=bs)
        mats = [rng.standard_normal((int(n), int(n))) for n in sizes]
        A = IrrBatch.from_host(dev, [m.copy() for m in mats])
        B = IrrBatch.from_host(dev, [m.copy() for m in mats])
        C = IrrBatch.from_host(dev, [m.copy() for m in mats])
        before = [m.copy() for m in mats]
        m = n = k = 5
        irr_gemm(dev, "N", "N", m, n, k, 1.0, A, (oi, oj), B, (oj, oi),
                 1.0, C, (oi, oi))
        for i, sz in enumerate(sizes):
            sz = int(sz)
            mi = max(0, min(m, sz - oi))
            ni = max(0, min(n, sz - oi))
            ki = max(0, min(k, sz - oj, sz - oj))
            want = before[i].copy()
            if mi and ni:
                ki_a = max(0, min(k, sz - oj))
                ki_b = max(0, min(k, sz - oj))
                ki = min(ki, ki_a, ki_b)
                if ki:
                    want[oi:oi + mi, oi:oi + ni] += (
                        before[i][oi:oi + mi, oj:oj + ki] @
                        before[i][oj:oj + ki, oi:oi + ni])
            np.testing.assert_allclose(C.matrix(i), want, rtol=1e-10,
                                       atol=1e-10)


# ----------------------------------------------------------------------
# row-interchange permutation algebra
# ----------------------------------------------------------------------

class TestLaswpAlgebra:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_laswp_applies_a_permutation(self, seed):
        """The interchange sequence is a permutation: row multisets are
        preserved exactly (no row duplicated or lost)."""
        rng = np.random.default_rng(seed)
        dev = Device(A100())
        n = int(rng.integers(8, 40))
        a = rng.standard_normal((n, n))
        b = IrrBatch.from_host(dev, [a.copy()])
        piv = PanelPivots(b)
        ib = min(8, n)
        fused_getf2(dev, b, piv, 0, ib)
        snapshot = np.sort(b.matrix(0)[:, ib:].copy(), axis=0) \
            if n > ib else None
        irr_laswp(dev, b, piv, 0, ib, "right", variant="rehearsed")
        if snapshot is not None:
            after = np.sort(b.matrix(0)[:, ib:], axis=0)
            np.testing.assert_allclose(after, snapshot, atol=0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_factorization_pivots_reconstruct(self, seed):
        rng = np.random.default_rng(seed)
        dev = Device(A100())
        from repro.batched import irr_getrf
        sizes = rng.integers(1, 50, size=4)
        mats = [rng.standard_normal((int(n), int(n))) for n in sizes]
        b = IrrBatch.from_host(dev, [m.copy() for m in mats])
        piv = irr_getrf(dev, b, concurrent_swaps=bool(seed % 2))
        for i, a in enumerate(mats):
            rec = lu_reconstruct(b.matrix(i), piv[i])
            assert np.abs(rec - a).max() < 1e-10 * max(1, np.abs(a).max())


# ----------------------------------------------------------------------
# simulator conservation laws
# ----------------------------------------------------------------------

class TestSimulatorConservation:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.floats(1e5, 1e9)),
                    min_size=1, max_size=20))
    def test_causality_and_work_conservation(self, launches):
        """Every kernel starts at/after its issue, ends after it starts,
        streams stay FIFO, and the makespan is at least the critical
        stream's total intrinsic time."""
        dev = Device(A100())
        for sid, flops in launches:
            dev.launch(f"k{sid}", None,
                       KernelCost(flops=flops, blocks=32), stream=sid)
        dev.synchronize()
        per_stream: dict[int, list] = {}
        for r in dev.profiler.records:
            assert r.start >= r.host_issue - 1e-15
            assert r.end > r.start
            per_stream.setdefault(r.stream, []).append(r)
        for recs in per_stream.values():
            recs.sort(key=lambda r: r.seq)
            for a, b in zip(recs, recs[1:]):
                assert b.start >= a.end - 1e-15
            total = sum(r.intrinsic for r in recs)
            assert dev.device_time >= total - 1e-12

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 8))
    def test_memory_conservation(self, n_allocs, size):
        dev = Device(A100())
        arrays = [dev.zeros((size, size)) for _ in range(n_allocs)]
        assert dev.allocated_bytes == n_allocs * size * size * 8
        for a in arrays:
            a.free()
        assert dev.allocated_bytes == 0

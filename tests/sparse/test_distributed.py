"""Distributed-memory factorization (§III-A) on a network-linked node.

Rank-local GPUs joined by a cluster network are a :class:`Node` whose
device↔device link models the network; the rank-per-subtree
factorization is :func:`multifrontal_factor_sharded`.
"""

import numpy as np
import pytest

from repro.device import A100, Device, Link, Node
from repro.sparse import multifrontal_factor_gpu, \
    multifrontal_factor_sharded, multifrontal_solve, nested_dissection, \
    symbolic_analysis

from .util import grid2d, grid3d


def prepare(a, leaf_size=16):
    nd = nested_dissection(a, leaf_size=leaf_size)
    ap = a[nd.perm][:, nd.perm].tocsr()
    return nd, ap, symbolic_analysis(ap, nd)


def cluster(n_ranks):
    """``n_ranks`` A100s joined by a 25 GB/s, 5 µs network."""
    return Node(A100(), n_ranks,
                p2p_link=Link(bandwidth=25e9, latency=5e-6))


class TestDistributedFactorization:
    def test_identical_to_single_device(self, rng):
        a = grid3d(6)
        _, ap, symb = prepare(a)
        ref = multifrontal_factor_gpu(Device(A100()), ap, symb)
        res = multifrontal_factor_sharded(cluster(4), ap, symb)
        for f1, f2 in zip(ref.factors.fronts, res.factors.fronts):
            np.testing.assert_array_equal(f1.f11, f2.f11)
            np.testing.assert_array_equal(f1.f12, f2.f12)
            np.testing.assert_array_equal(f1.f21, f2.f21)
            np.testing.assert_array_equal(f1.ipiv, f2.ipiv)

    def test_solve_correct(self, rng):
        a = grid3d(6)
        nd, ap, symb = prepare(a)
        res = multifrontal_factor_sharded(cluster(3), ap, symb)
        b = rng.standard_normal(a.shape[0])
        xp = multifrontal_solve(res.factors, b[nd.perm])
        x = np.empty_like(xp)
        x[nd.perm] = xp
        assert np.abs(a @ x - b).max() < 1e-10

    def test_local_makespan_shrinks_with_ranks(self, rng):
        a = grid3d(7)
        _, ap, symb = prepare(a)
        locals_ = []
        for p in (1, 4):
            res = multifrontal_factor_sharded(cluster(p), ap, symb)
            locals_.append(max(res.per_device_seconds))
        assert locals_[1] < 0.7 * locals_[0]

    def test_communication_accounted(self, rng):
        a = grid3d(6)
        _, ap, symb = prepare(a)
        res = multifrontal_factor_sharded(cluster(4), ap, symb)
        assert res.link_bytes > 0
        assert res.gather_seconds > 0
        # every boundary Schur is shipped to the top owner exactly once
        boundary = [
            f for f in range(len(symb.fronts))
            if res.assignment.rank_of_front[f] >= 0
            and symb.fronts[f].parent >= 0
            and res.assignment.rank_of_front[symb.fronts[f].parent] == -1]
        expected = sum(8 * symb.fronts[f].upd_size ** 2 for f in boundary)
        assert sum(nb for nb, _ in res.rank_link_stats) == expected
        assert sum(n for _, n in res.rank_link_stats) == len(boundary)
        # only the other ranks' contributions cross the network
        own = sum(8 * symb.fronts[f].upd_size ** 2 for f in boundary
                  if res.assignment.rank_of_front[f] == 0)
        assert res.link_bytes == expected - own

    def test_scalapack_top_mode(self, rng):
        a = grid3d(6)
        nd, ap, symb = prepare(a)
        res = multifrontal_factor_sharded(cluster(4), ap, symb,
                                          top_mode="scalapack")
        assert res.top_seconds > 0
        b = rng.standard_normal(a.shape[0])
        xp = multifrontal_solve(res.factors, b[nd.perm])
        x = np.empty_like(xp)
        x[nd.perm] = xp
        assert np.abs(a @ x - b).max() < 1e-10

    def test_invalid_top_mode(self, rng):
        _, ap, symb = prepare(grid2d(6, 6))
        with pytest.raises(ValueError, match="top_mode"):
            multifrontal_factor_sharded(cluster(2), ap, symb,
                                        top_mode="mpi")

    def test_single_rank_equals_plain_gpu_elapsed_shape(self, rng):
        a = grid2d(12, 12)
        _, ap, symb = prepare(a, leaf_size=8)
        res = multifrontal_factor_sharded(cluster(1), ap, symb)
        assert res.link_bytes == 0
        assert res.rank_link_stats == [(0, 0)]
        assert res.top_seconds == 0.0
        ref = multifrontal_factor_gpu(Device(A100()), ap, symb)
        assert res.per_device_seconds[0] == pytest.approx(ref.elapsed)

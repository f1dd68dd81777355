"""Tests for the SPD multifrontal Cholesky solver."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.batched import NotPositiveDefiniteError
from repro.device import A100, Device
from repro.sparse import SparseCholesky, SparseLU

from .util import grid2d, grid3d


def spd_grid(n2d=None, n3d=None, shift=3.0, seed=0):
    a0 = grid2d(*n2d, seed=seed) if n2d else grid3d(n3d, seed=seed)
    n = a0.shape[0]
    return sp.csr_matrix((a0 + a0.T) / 2 + shift * sp.eye(n))


class TestSparseCholesky:
    @pytest.mark.parametrize("backend", ["cpu", "batched"])
    def test_solve_matches_scipy(self, rng, backend):
        a = spd_grid(n2d=(11, 9))
        b = rng.standard_normal(a.shape[0])
        dev = None if backend == "cpu" else Device(A100())
        s = SparseCholesky(a).analyze().factor(backend=backend, device=dev)
        x, info = s.solve(b)
        assert info.final_residual < 1e-13
        np.testing.assert_allclose(x, spla.spsolve(a.tocsc(), b),
                                   rtol=1e-8)

    def test_cpu_gpu_factors_match(self, rng):
        a = spd_grid(n3d=5)
        s1 = SparseCholesky(a).analyze().factor()
        s2 = SparseCholesky(a).analyze().factor(backend="batched",
                                                device=Device(A100()))
        for l1, l2 in zip(s1.factors.l11, s2.factors.l11):
            np.testing.assert_allclose(l1, l2, rtol=1e-12, atol=1e-13)
        for l1, l2 in zip(s1.factors.l21, s2.factors.l21):
            np.testing.assert_allclose(l1, l2, rtol=1e-12, atol=1e-13)

    def test_multiple_rhs(self, rng):
        a = spd_grid(n2d=(8, 8))
        B = rng.standard_normal((64, 3))
        s = SparseCholesky(a).factor()
        X, info = s.solve(B)
        assert np.abs(a @ X - B).max() < 1e-12

    def test_not_spd_raises(self, rng):
        a0 = grid2d(6, 6)
        a = sp.csr_matrix((a0 + a0.T) / 2 - 50 * sp.eye(36))  # indefinite
        with pytest.raises(NotPositiveDefiniteError):
            SparseCholesky(a).analyze().factor()

    def test_not_spd_on_device_frees_front_buffers(self):
        a0 = grid2d(8, 8)
        a = sp.csr_matrix((a0 + a0.T) / 2 - 6 * sp.eye(64))
        dev = Device(A100())
        before = dev.allocated_bytes
        with pytest.raises(NotPositiveDefiniteError):
            SparseCholesky(a).analyze().factor(backend="batched", device=dev)
        assert dev.allocated_bytes == before

    def test_unsymmetric_rejected(self, rng):
        a = grid2d(5, 5)  # unsymmetric values
        with pytest.raises(ValueError, match="symmetric"):
            SparseCholesky(a)

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError, match="square"):
            SparseCholesky(sp.csr_matrix(np.ones((2, 3))))

    def test_unknown_backend(self, rng):
        s = SparseCholesky(spd_grid(n2d=(4, 4)))
        with pytest.raises(ValueError, match="backend"):
            s.factor(backend="gpu2")

    def test_solve_before_factor(self, rng):
        s = SparseCholesky(spd_grid(n2d=(4, 4)))
        with pytest.raises(RuntimeError, match="factor"):
            s.solve(np.zeros(16))

    def test_cholesky_cheaper_than_lu(self, rng):
        """No pivoting, no LASWP, half the off-diagonal factor storage:
        the SPD path must beat SparseLU on the same (SPD) system."""
        a = spd_grid(n3d=6)
        dev1, dev2 = Device(A100()), Device(A100())
        chol = SparseCholesky(a, leaf_size=16).analyze()
        chol.factor(backend="batched", device=dev1)
        lu = SparseLU(a, leaf_size=16).analyze()
        lu.factor(backend="batched", device=dev2)
        assert chol.factor_result.elapsed < lu.factor_result.elapsed
        assert chol.factor_result.counters["launch_count"] < \
            lu.factor_result.counters["launch_count"]

    def test_refinement_improves(self, rng):
        a = spd_grid(n2d=(10, 10), shift=0.5)
        b = rng.standard_normal(100)
        s = SparseCholesky(a).factor()
        _, info = s.solve(b, refine_steps=2)
        assert info.residuals[-1] <= info.residuals[0]
        assert info.residuals[-1] < 1e-13

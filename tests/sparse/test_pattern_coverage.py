"""Every traversal refuses a matrix its symbolic analysis does not cover.

The A-gather only reads entries inside a front's index set, so a matrix
with stored entries elsewhere — here, the matrix passed *unpermuted*
against the analysis of its permuted form — would otherwise factor to
wrong factors with a clean report.  Each traversal counts the nonzero
entries (duplicates summed) its fronts gather and raises
:class:`PatternMismatch` unless the count equals ``a_perm``'s.  Stored
zeros are outside the analysis' pattern and must not trip the check.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.device import A100, Device, Node
from repro.errors import PatternMismatch
from repro.sparse import SparseCholesky, multifrontal_factor_cpu, \
    multifrontal_factor_gpu, multifrontal_factor_sharded, \
    nested_dissection, superlu_like_factor, symbolic_analysis

from .util import grid2d, grid3d


def _analysis(a):
    nd = nested_dissection(a, leaf_size=16)
    ap = a[nd.perm][:, nd.perm].tocsr()
    return ap, symbolic_analysis(ap, nd)


BACKENDS = {
    "cpu": lambda a, symb: multifrontal_factor_cpu(a, symb),
    "superlu": lambda a, symb: superlu_like_factor(Device(A100()), a, symb),
    "batched": lambda a, symb: multifrontal_factor_gpu(Device(A100()), a,
                                                       symb),
    "looped": lambda a, symb: multifrontal_factor_gpu(
        Device(A100()), a, symb, strategy="looped"),
    "strumpack": lambda a, symb: multifrontal_factor_gpu(
        Device(A100()), a, symb, strategy="strumpack"),
    "out-of-core": lambda a, symb: multifrontal_factor_gpu(
        Device(A100()), a, symb,
        memory_budget=3 * max(8 * f.order ** 2 for f in symb.fronts)),
    "sharded": lambda a, symb: multifrontal_factor_sharded(
        Node(A100(), 4), a, symb),
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_uncovered_pattern_raises(backend):
    a = grid3d(5)
    _, symb = _analysis(a)
    with pytest.raises(PatternMismatch, match="not covered"):
        BACKENDS[backend](a.tocsr(), symb)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_duplicate_entries_are_covered(backend):
    # every entry stored as two halves: still covered, same factors
    ap, symb = _analysis(grid3d(5))
    ap.sort_indices()
    n = np.diff(ap.indptr)
    dup = sp.csr_matrix(
        (np.repeat(ap.data / 2, 2), np.repeat(ap.indices, 2),
         np.concatenate([[0], np.cumsum(2 * n)])), shape=ap.shape)
    assert dup.nnz == 2 * ap.nnz
    ref, res = BACKENDS[backend](ap, symb), BACKENDS[backend](dup, symb)
    ref, res = getattr(ref, "factors", ref), getattr(res, "factors", res)
    for f1, f2 in zip(ref.fronts, res.fronts):
        np.testing.assert_array_equal(f1.f11, f2.f11)
        np.testing.assert_array_equal(f1.f12, f2.f12)


def _dirichlet(a, v):
    """``a`` with vertex ``v``'s row and column zeroed in place (structure
    kept, unit diagonal): stored zeros the analysis does not cover."""
    a = a.tocsr(copy=True)
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    a.data[(rows == v) != (a.indices == v)] = 0.0
    a.data[(rows == v) & (a.indices == v)] = 1.0
    return a


def _cancelling(a):
    """``a`` with each stored zero split into a ``+1, -1`` duplicate pair."""
    rep = np.where(a.data == 0, 2, 1)
    data, cols = np.repeat(a.data, rep), np.repeat(a.indices, rep)
    start = np.cumsum(rep) - rep
    data[start[a.data == 0]] = 1.0
    data[start[a.data == 0] + 1] = -1.0
    indptr = np.concatenate([[0], np.cumsum(rep)])[a.indptr]
    return sp.csr_matrix((data, cols, indptr), shape=a.shape)


def _assert_same_factors(ref, res):
    ref, res = getattr(ref, "factors", ref), getattr(res, "factors", res)
    for f1, f2 in zip(ref.fronts, res.fronts, strict=True):
        np.testing.assert_array_equal(f1.f11, f2.f11)
        np.testing.assert_array_equal(f1.ipiv, f2.ipiv)
        np.testing.assert_array_equal(f1.f12, f2.f12)
        np.testing.assert_array_equal(f1.f21, f2.f21)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_stored_zeros_are_not_a_mismatch(backend):
    # vertex 27's row and column reach fronts the isolated vertex does
    # not share with its neighbours, so some stored zeros go ungathered
    ap, symb = _analysis(_dirichlet(grid2d(8, 8), 27))
    clean = ap.copy()
    clean.eliminate_zeros()
    assert clean.nnz < ap.nnz
    ref = BACKENDS[backend](clean, symb)
    _assert_same_factors(ref, BACKENDS[backend](ap, symb))
    _assert_same_factors(ref, BACKENDS[backend](_cancelling(ap), symb))


@pytest.mark.parametrize("backend", ["cpu", "batched"])
def test_cholesky_uncovered_pattern_raises(backend):
    a0 = grid2d(8, 8)
    a = sp.csr_matrix((a0 + a0.T) / 2 + 3 * sp.eye(64))
    chol = SparseCholesky(a).analyze()
    chol.a_perm = a      # the analysis belongs to the permuted matrix
    device = Device(A100()) if backend == "batched" else None
    before = device.allocated_bytes if device else 0
    with pytest.raises(PatternMismatch):
        chol.factor(backend=backend, device=device)
    if device:
        assert device.allocated_bytes == before


@pytest.mark.parametrize("backend", ["cpu", "batched"])
def test_cholesky_accepts_stored_zeros(backend):
    a0 = grid2d(8, 8)
    # the symmetric matrix is ordered differently: vertex 28 leaves
    # some of its stored zeros ungathered
    a = _dirichlet(sp.csr_matrix((a0 + a0.T) / 2 + 3 * sp.eye(64)), 28)
    clean = a.copy()
    clean.eliminate_zeros()
    device = Device(A100()) if backend == "batched" else None
    ref = SparseCholesky(clean).analyze().factor(backend=backend,
                                                 device=device)
    res = SparseCholesky(a).analyze().factor(backend=backend, device=device)
    for l1, l2 in zip(ref.factors.l11 + ref.factors.l21,
                      res.factors.l11 + res.factors.l21, strict=True):
        np.testing.assert_array_equal(l1, l2)

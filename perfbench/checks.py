"""Correctness checks applied to every op the benchmark times.

Both checks are written here against the caller's own inputs, not taken
from the program, so a defect in the program's diagnostics cannot hide a
wrong answer.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: Largest accepted error; equal to the solver's refinement target
#: (``repro.sparse.solver.REFINE_TARGET``) and fixed here on purpose.
TOLERANCE = 1e-12


def _inf_norm(a) -> float:
    if sp.issparse(a):
        return float(abs(a).sum(axis=1).max())
    return float(np.abs(a).sum(axis=1).max())


def backward_error(a, x, b) -> float:
    """Normwise backward error ``‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)``.

    ``x`` and ``b`` may hold several right-hand sides as columns; the
    worst column is returned.  Non-finite solutions give ``inf``.
    """
    x = np.asarray(x)
    b = np.asarray(b)
    if not np.all(np.isfinite(x)):
        return float("inf")
    x2 = x.reshape(len(x), -1)
    b2 = b.reshape(len(b), -1)
    r = b2 - a @ x2
    norm_a = _inf_norm(a)
    worst = 0.0
    for j in range(x2.shape[1]):
        den = norm_a * np.abs(x2[:, j]).max() + np.abs(b2[:, j]).max()
        num = np.abs(r[:, j]).max()
        worst = max(worst, float(num / den) if den else float(num))
    return worst


def lu_residual(a, lu, ipiv) -> float:
    """Reconstruction residual ``‖P·A − L·U‖_F / ‖A‖_F`` of packed LU
    factors with LAPACK-style (0-based, sequential) row interchanges."""
    a = np.asarray(a)
    lu = np.asarray(lu)
    if not np.all(np.isfinite(lu)):
        return float("inf")
    m, n = a.shape
    k = min(m, n)
    pa = a.copy()
    for r in range(k):
        p = int(ipiv[r])
        if p != r:
            pa[[r, p], :] = pa[[p, r], :]
    lower = np.tril(lu[:, :k], -1) + np.eye(m, k)
    upper = np.triu(lu[:k, :])
    den = float(np.linalg.norm(a))
    num = float(np.linalg.norm(pa - lower @ upper))
    return num / den if den else num

"""Factor storage shared by the CPU and GPU numeric phases."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...errors import PatternMismatch
from ..symbolic.analysis import SymbolicFactorization

__all__ = ["FrontFactors", "MultifrontalFactors", "assemble_front",
           "gather_front", "check_gathered", "host_traversal"]


@dataclass
class FrontFactors:
    """Factored blocks of one front.

    ``f11`` holds the packed LU of the pivot block (unit-lower L, U on and
    above the diagonal) with pivot vector ``ipiv`` (pivoting restricted to
    the pivot block, §III-A); ``f12`` is ``L⁻¹·P·F12`` (the U12 block) and
    ``f21`` is ``F21·U⁻¹`` (the L21 block).

    The trailing fields are the front's pivot-breakdown diagnostics (see
    :class:`~repro.sparse.numeric.report.FactorReport`): ``info`` is the
    LAPACK-style 1-based column of the first unrecovered breakdown in the
    pivot block (0 = clean; a failed front stores zeroed ``f12``/``f21``
    so nothing downstream meets Inf/NaN), ``n_replaced`` counts
    statically replaced pivots, ``min_pivot`` is the smallest ``|pivot|``
    met and ``growth`` the element growth factor ``max|LU|/max|F11|``.
    """

    f11: np.ndarray
    ipiv: np.ndarray
    f12: np.ndarray
    f21: np.ndarray
    info: int = 0
    n_replaced: int = 0
    min_pivot: float = np.inf
    growth: float = 1.0


@dataclass
class MultifrontalFactors:
    """All front factors, in the symbolic postorder.

    ``report`` carries the factorization-wide breakdown diagnostics
    (``None`` for factors produced by paths that predate the robustness
    layer, e.g. the comparator baselines).
    """

    symb: SymbolicFactorization
    fronts: list[FrontFactors] = field(default_factory=list)
    report: "FactorReport | None" = None

    def nnz(self) -> int:
        return sum(f.f11.size + f.f12.size + f.f21.size
                   for f in self.fronts)

    def front(self, fid: int) -> FrontFactors:
        return self.fronts[fid]


def _nonzero_entries(m) -> int:
    """Nonzero-valued entries of ``m`` with duplicates summed — what the
    symbolic analysis' ``a_perm != 0`` pattern sees; ``m`` is not
    mutated."""
    if not m.has_canonical_format:
        m = m.copy()
        m.sum_duplicates()
    return int(np.count_nonzero(m.data))


def gather_front(a_perm, info, F: np.ndarray) -> int:
    """Gather the front's A entries — the rows and columns touching its
    separator — into the dense ``F``; returns how many nonzero entries
    of ``a_perm`` (duplicates summed) were gathered.

    When the symbolic analysis covers ``a_perm``'s pattern each such
    entry lands in exactly one front, so a traversal's total equals
    ``a_perm``'s count (see :func:`check_gathered`).  Explicitly stored
    zeros are not counted: the analysis ignores them, and dropping one
    changes nothing.
    """
    idx = info.indices
    s = info.sep_size
    rows = a_perm[idx[:s], :][:, idx]
    F[:s, :] = rows.toarray()
    n = _nonzero_entries(rows)
    if info.upd_size and s:
        cols = a_perm[idx[s:], :][:, idx[:s]]
        F[s:, :s] = cols.toarray()
        n += _nonzero_entries(cols)
    return n


def check_gathered(a_perm, gathered: int) -> None:
    """Raise :class:`~repro.errors.PatternMismatch` unless a traversal's
    fronts gathered every nonzero entry of ``a_perm``."""
    total = _nonzero_entries(a_perm)
    if gathered != total:
        raise PatternMismatch(
            f"the fronts gathered {gathered} of the matrix's {total} "
            f"nonzero entries: its pattern is not covered by the symbolic "
            f"analysis (was it permuted the way the analysis was?)")


def assemble_front(a_perm, info, child_schur: list[tuple[np.ndarray,
                                                         np.ndarray]]
                   ) -> tuple[np.ndarray, int]:
    """Build one dense frontal matrix: A entries + children extend-add.

    ``child_schur`` is a list of ``(S, upd_indices)`` contributions; each
    child update index must appear in this front's index set (guaranteed
    by the symbolic analysis).  Returns the front and the number of
    nonzero A entries it gathered (:func:`gather_front`).
    """
    nf = info.order
    F = np.zeros((nf, nf), dtype=a_perm.dtype)
    if nf == 0:
        return F, 0
    n = gather_front(a_perm, info, F)
    # Extend-add the children's Schur complements.
    if child_schur:
        pos = {int(g): l for l, g in enumerate(info.indices)}
        for schur, upd in child_schur:
            if len(upd) == 0:
                continue
            loc = np.array([pos[int(g)] for g in upd], dtype=np.int64)
            F[np.ix_(loc, loc)] += schur
    return F, n


def host_traversal(a_perm, symb: SymbolicFactorization,
                   factor_front) -> None:
    """The postorder front loop of the host factorizations.

    Assembles each front (its A entries plus its children's Schur
    complements), hands it to ``factor_front(fid, info, F)`` — which
    returns the front's Schur complement — and finally raises
    :class:`~repro.errors.PatternMismatch` unless the fronts gathered
    every nonzero entry of ``a_perm``.
    """
    schur: list = [None] * len(symb.fronts)
    gathered = 0
    for fid, info in enumerate(symb.fronts):
        contribs = [schur[c] for c in info.children if schur[c] is not None]
        for c in info.children:
            schur[c] = None
        F, n = assemble_front(a_perm, info, contribs)
        gathered += n
        S = factor_front(fid, info, F)
        if info.parent >= 0:
            schur[fid] = (S, info.upd)
    check_gathered(a_perm, gathered)

"""Adjacency-graph utilities on CSR sparsity patterns.

The multifrontal solver works on the *symmetrized* pattern of the input
matrix (§III-A: "using a symmetrized sparsity pattern"); this module holds
the small pattern-level operations the ordering and symbolic phases need.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["symmetrize_pattern", "gather_neighbours", "bfs_levels",
           "pseudo_peripheral_vertex"]


def symmetrize_pattern(a: sp.spmatrix) -> sp.csr_matrix:
    """Pattern of ``A + Aᵀ`` with an explicit zero-free structure and no
    diagonal (a plain adjacency graph)."""
    a = sp.csr_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    pattern = (a != 0).astype(np.int8)
    sym = (pattern + pattern.T).tocsr()
    sym.setdiag(0)
    sym.eliminate_zeros()
    sym.sort_indices()
    return sym


def gather_neighbours(g: sp.csr_matrix, vertices: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated adjacency lists of ``vertices`` and their lengths.

    Returns ``(neighbours, counts)``: the lists follow ``vertices`` order,
    each in its CSR order, and ``counts[i]`` is the length of list ``i``.
    """
    indptr = g.indptr
    starts = indptr[vertices]
    counts = indptr[vertices + 1] - starts
    total = int(counts.sum())
    ends = np.cumsum(counts)
    pos = np.repeat(starts - ends + counts, counts) + np.arange(total)
    return g.indices[pos], counts


def bfs_levels(g: sp.csr_matrix, start: int,
               mask: np.ndarray | None = None) -> np.ndarray:
    """BFS level of every vertex from ``start`` (-1 = unreachable).

    ``mask`` restricts the traversal to vertices where it is True.  Each
    level is expanded as a whole frontier; levels do not depend on the
    order in which a frontier is visited.
    """
    level = np.full(g.shape[0], -1, dtype=np.int64)
    if mask is not None and not mask[start]:
        raise ValueError("start vertex is masked out")
    level[start] = 0
    frontier = np.array([start], dtype=np.int64)
    d = 0
    while len(frontier):
        d += 1
        nbr, _ = gather_neighbours(g, frontier)
        new = level[nbr] == -1
        if mask is not None:
            new &= mask[nbr]
        frontier = np.unique(nbr[new])
        level[frontier] = d
    return level


def pseudo_peripheral_vertex(g: sp.csr_matrix,
                             vertices: np.ndarray) -> int:
    """A vertex of (nearly) maximal eccentricity within ``vertices``.

    The George–Liu doubling heuristic: BFS from an arbitrary vertex, jump
    to the farthest one, repeat until the eccentricity stops growing.
    """
    if len(vertices) == 0:
        raise ValueError("empty vertex set")
    mask = np.zeros(g.shape[0], dtype=bool)
    mask[vertices] = True
    v = int(vertices[0])
    ecc = -1
    for _ in range(8):  # converges in 2-3 iterations in practice
        level = bfs_levels(g, v, mask)
        reach = level[vertices]
        new_ecc = int(reach.max())
        if new_ecc <= ecc:
            break
        ecc = new_ecc
        far = vertices[reach == new_ecc]
        v = int(far[0])
    return v

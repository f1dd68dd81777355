"""Graph bisection with vertex separators.

The METIS substitute: a BFS (level-set) bisection from a pseudo-peripheral
vertex, followed by extraction of a vertex separator from the edge cut.
For the quasi-regular graphs of FE discretizations this yields geometric
separators of the right asymptotic size (O(n²) for n³-cell meshes), which
is all the multifrontal front-size distribution depends on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..graph import bfs_levels, gather_neighbours, pseudo_peripheral_vertex

__all__ = ["Bisection", "bisect"]


@dataclass
class Bisection:
    """Result of one vertex-separator bisection.

    ``part_a``/``part_b`` are disjoint from ``separator`` and from each
    other, their union is the input vertex set, and no edge joins
    ``part_a`` to ``part_b`` directly.
    """

    part_a: np.ndarray
    part_b: np.ndarray
    separator: np.ndarray


def bisect(g: sp.csr_matrix, vertices: np.ndarray) -> Bisection:
    """Split ``vertices`` into two balanced halves plus a vertex separator.

    BFS levels from a pseudo-peripheral vertex are split at the median;
    the separator is the smaller boundary layer of the cut (vertices of
    one side adjacent to the other side).  Vertices unreachable from the
    start (disconnected pieces) are appended to the smaller part.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    n = len(vertices)
    if n < 2:
        return Bisection(part_a=vertices,
                         part_b=np.empty(0, dtype=np.int64),
                         separator=np.empty(0, dtype=np.int64))

    mask = np.zeros(g.shape[0], dtype=bool)
    mask[vertices] = True
    start = pseudo_peripheral_vertex(g, vertices)
    level = bfs_levels(g, start, mask)

    lv = level[vertices]
    reached = vertices[lv >= 0]
    unreached = vertices[lv < 0]
    rlv = level[reached]
    # Split level so that part A holds ~half the reached vertices.
    order = np.argsort(rlv, kind="stable")
    half = len(reached) // 2
    cut_level = int(rlv[order[min(half, len(reached) - 1)]])

    a_side = reached[level[reached] < cut_level]
    b_side = reached[level[reached] >= cut_level]
    if len(a_side) == 0:  # degenerate: everything on one level
        a_side = reached[:half]
        b_side = reached[half:]
        # With an arbitrary split we cannot use the level structure; take
        # the full boundary of the smaller side as separator.
        sep = np.sort(a_side[_touches(g, a_side, b_side)])
        a_set = np.setdiff1d(a_side, sep, assume_unique=False)
        b_set = np.setdiff1d(b_side, sep, assume_unique=False)
        return _finish(a_set, b_set, sep, unreached)

    # The first level of the B side is a vertex separator between
    # A = levels < cut and B' = levels > cut.
    sep = reached[level[reached] == cut_level]
    b_only = reached[level[reached] > cut_level]
    # Shrink the separator: keep only vertices actually adjacent to A.
    keep = _touches(g, sep, a_side)
    b_extra = sep[~keep]
    sep = sep[keep]
    b_only = np.concatenate([b_only, b_extra])
    return _finish(a_side, b_only, sep, unreached)


def _touches(g: sp.csr_matrix, vs: np.ndarray,
             other: np.ndarray) -> np.ndarray:
    """Per vertex of ``vs``: does it have a neighbour in ``other``?"""
    omask = np.zeros(g.shape[0], dtype=bool)
    omask[other] = True
    nbr, counts = gather_neighbours(g, vs)
    owner = np.repeat(np.arange(len(vs)), counts)
    hit = np.zeros(len(vs), dtype=bool)
    hit[owner[omask[nbr]]] = True
    return hit


def _finish(a, b, sep, unreached) -> Bisection:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if len(unreached):
        if len(a) <= len(b):
            a = np.concatenate([a, unreached])
        else:
            b = np.concatenate([b, unreached])
    return Bisection(part_a=np.sort(a), part_b=np.sort(b),
                     separator=np.sort(np.asarray(sep, dtype=np.int64)))

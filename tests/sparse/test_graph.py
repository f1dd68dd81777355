"""Tests for the adjacency-graph utilities."""

import collections
import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.sparse.graph import bfs_levels, pseudo_peripheral_vertex, \
    symmetrize_pattern
from repro.sparse.ordering.bisection import bisect

from .util import grid2d, grid3d


def path_graph(n):
    rows = list(range(n - 1)) + list(range(1, n))
    cols = list(range(1, n)) + list(range(n - 1))
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))


class TestSymmetrizePattern:
    def test_symmetric_no_diagonal(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0, 0.0],
                                    [0.0, 3.0, 0.0],
                                    [4.0, 0.0, 5.0]]))
        g = symmetrize_pattern(a)
        d = g.toarray()
        assert np.all(d == d.T)
        assert np.all(np.diag(d) == 0)
        assert d[0, 1] and d[1, 0]          # from a[0,1]
        assert d[0, 2] and d[2, 0]          # from a[2,0]

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            symmetrize_pattern(sp.csr_matrix(np.ones((2, 3))))


class TestBfs:
    def test_path_levels(self):
        g = path_graph(5)
        level = bfs_levels(g, 0)
        assert level.tolist() == [0, 1, 2, 3, 4]

    def test_mask_restricts(self):
        g = path_graph(5)
        mask = np.array([True, True, False, True, True])
        level = bfs_levels(g, 0, mask)
        assert level[1] == 1
        assert level[3] == -1  # cut off by the mask

    def test_masked_start_rejected(self):
        g = path_graph(3)
        mask = np.array([False, True, True])
        with pytest.raises(ValueError):
            bfs_levels(g, 0, mask)


def reference_bfs(g, start, mask):
    """Queue-based BFS, one vertex at a time."""
    level = [-1] * g.shape[0]
    level[start] = 0
    queue = collections.deque([start])
    while queue:
        v = queue.popleft()
        for w in g.indices[g.indptr[v]:g.indptr[v + 1]]:
            if level[w] == -1 and (mask is None or mask[w]):
                level[w] = level[v] + 1
                queue.append(int(w))
    return level


@st.composite
def masked_graphs(draw):
    """Random symmetric pattern (possibly disconnected, with isolated
    vertices), an optional vertex mask and an unmasked start vertex."""
    n = draw(st.integers(1, 40))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=3 * n))
    rows = [u for u, _ in edges]
    cols = [v for _, v in edges]
    a = sp.csr_matrix((np.ones(len(edges)), (rows, cols)), shape=(n, n))
    g = symmetrize_pattern(a)
    start = draw(st.integers(0, n - 1))
    mask = None
    if draw(st.booleans()):
        mask = np.array(draw(st.lists(st.booleans(), min_size=n,
                                      max_size=n)), dtype=bool)
        mask[start] = True
    return g, start, mask


class TestBfsReference:
    @settings(max_examples=200, deadline=None)
    @given(masked_graphs())
    def test_matches_queue_bfs(self, case):
        g, start, mask = case
        assert bfs_levels(g, start, mask).tolist() == \
            reference_bfs(g, start, mask)


def _bisect_digest(b):
    h = hashlib.sha256()
    for arr in (b.part_a, b.part_b, b.separator):
        h.update(np.asarray(arr, dtype=np.int64).tobytes())
        h.update(b"|")
    return h.hexdigest()[:16]


class TestBisectPinned:
    """The vectorized BFS and separator tests keep every split of the
    vertex-at-a-time implementation (digests recorded from it)."""

    def test_grid2d_explicit(self):
        b = bisect(symmetrize_pattern(grid2d(7, 5)), np.arange(35))
        assert b.part_a.tolist() == [14, 18, 19, 22, 23, 24, 26, 27, 28,
                                     29, 30, 31, 32, 33, 34]
        assert b.part_b.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11,
                                     12, 15, 16, 20]
        assert b.separator.tolist() == [9, 13, 17, 21, 25]

    @pytest.mark.parametrize("name, matrix, vertices, digest", [
        ("grid2d-12x9-sub", lambda: grid2d(12, 9),
         np.arange(108)[np.arange(108) % 7 != 3], "50dbf0ceb29efb7a"),
        ("grid2d-6x6-isolated-start", lambda: grid2d(6, 6),
         np.array([0] + [x for x in range(2, 36) if x != 6]),
         "e4f6cd612e7223b3"),
        ("grid3d-4", lambda: grid3d(4), np.arange(64), "4d0fb0d672360b45"),
        ("grid3d-6-sub", lambda: grid3d(6),
         np.arange(216)[np.arange(216) % 5 != 0], "16a77266ff44a0b2"),
        ("grid3d-8", lambda: grid3d(8), np.arange(512), "b5062dde70fc0f66"),
    ])
    def test_pinned_splits(self, name, matrix, vertices, digest):
        b = bisect(symmetrize_pattern(matrix()), vertices)
        assert _bisect_digest(b) == digest, name


class TestPseudoPeripheral:
    def test_path_graph_finds_endpoint(self):
        g = path_graph(30)
        v = pseudo_peripheral_vertex(g, np.arange(30))
        assert v in (0, 29)

    def test_empty_set_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            pseudo_peripheral_vertex(g, np.array([], dtype=np.int64))

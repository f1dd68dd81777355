"""Launch-sequence parity of the multifrontal factorization strategies.

Every factorization below is compared against a committed fixture
(``data/launch_parity.json``): the profiler's ``(name, duration)``
sequence, a digest of every launch's :class:`KernelCost`, the counters,
``elapsed`` and a digest of the factor bytes (factors, pivots and
per-front diagnostics).  The comparison is exact, so any change to a
strategy's launch sequence, costs or numerics fails here.

Regenerate the fixture (only when a launch change is intended) with::

    PYTHONPATH=src python -m tests.sparse.test_launch_parity
"""

import hashlib
import json
import pathlib
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

from repro.device import A100, Device, Node
from repro.sparse import multifrontal_factor_gpu, \
    multifrontal_factor_sharded, nested_dissection, symbolic_analysis
from repro.sparse.numeric import gpu_factor

from .util import grid2d, grid3d

FIXTURE = pathlib.Path(__file__).parent / "data" / "launch_parity.json"


def _prepare(a, leaf_size):
    nd = nested_dissection(a, leaf_size=leaf_size)
    ap = a[nd.perm][:, nd.perm].tocsr()
    return ap, symbolic_analysis(ap, nd)


def _singular():
    """Grid operator with row+column 40 zeroed: exactly singular."""
    a = grid2d(9, 9).tolil()
    a[40, :] = 0.0
    a[:, 40] = 0.0
    return sp.csr_matrix(a)


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else repr(c).encode())
    return h.hexdigest()


def _factor_digest(factors) -> str:
    def chunks():
        for f in factors.fronts:
            for arr in (f.f11, f.ipiv, f.f12, f.f21):
                yield np.ascontiguousarray(arr).tobytes()
            yield (f.info, f.n_replaced, f.min_pivot, f.growth)
    return _digest(chunks())


def _launches(devices) -> dict:
    recs = [r for dev in devices for r in dev.profiler.records]
    return {"launches": [[r.name, r.duration] for r in recs],
            "cost_digest": _digest((r.name, r.stream, r.cost)
                                   for r in recs)}


def _entry(devices, factors, elapsed, counters) -> dict:
    out = _launches(devices)
    out.update(elapsed=elapsed, counters=counters,
               factor_digest=_factor_digest(factors))
    return out


@contextmanager
def _hybrid_cutoff(value):
    old = gpu_factor.HYBRID_GEMM_CUTOFF
    gpu_factor.HYBRID_GEMM_CUTOFF = value
    try:
        yield
    finally:
        gpu_factor.HYBRID_GEMM_CUTOFF = old


def _single(ap, symb, **kw) -> dict:
    dev = Device(A100())
    res = multifrontal_factor_gpu(dev, ap, symb, **kw)
    return _entry([dev], res.factors, res.elapsed, res.counters)


def _sharded(ap, symb, n_dev, top_mode) -> dict:
    node = Node(A100(), n_dev)
    res = multifrontal_factor_sharded(node, ap, symb, top_mode=top_mode)
    counters = {"per_device_seconds": res.per_device_seconds,
                "gather_seconds": res.gather_seconds,
                "top_seconds": res.top_seconds,
                "link_bytes": res.link_bytes,
                "rank_link_stats": [list(s) for s in res.rank_link_stats]}
    return _entry(list(node), res.factors, res.elapsed, counters)


def _runs() -> dict:
    """Every parity run, keyed by name; values are thunks."""
    ap, symb = _prepare(grid3d(7), leaf_size=8)   # strumpack: seps 0..37
    sap, ssymb = _prepare(_singular(), leaf_size=16)
    runs = {}
    for mode in ("irr", "vendor", "hybrid"):
        runs[f"batched-{mode}"] = \
            lambda m=mode: _single(ap, symb, gemm_mode=m)
    runs["batched-hybrid-split"] = lambda: _hybrid_split(ap, symb)
    runs["looped"] = lambda: _single(ap, symb, strategy="looped")
    runs["strumpack"] = lambda: _single(ap, symb, strategy="strumpack")
    runs["batched-out-of-core"] = \
        lambda: _single(ap, symb, memory_budget=_ooc_budget(symb))
    for strat in ("batched", "looped", "strumpack"):
        runs[f"breakdown-{strat}"] = \
            lambda s=strat: _single(sap, ssymb, strategy=s,
                                    breakdown="report")
    for n_dev in (2, 4):
        for top in ("slate", "scalapack"):
            runs[f"sharded-{n_dev}-{top}"] = \
                lambda p=n_dev, t=top: _sharded(ap, symb, p, t)
    return runs


def _hybrid_split(ap, symb) -> dict:
    with _hybrid_cutoff(16):        # both halves of the hybrid GEMM run
        return _single(ap, symb, gemm_mode="hybrid")


def _ooc_budget(symb) -> int:
    biggest = max(8 * f.order ** 2 for f in symb.fronts)
    budget = 3 * biggest
    assert len(gpu_factor.plan_traversals(symb, budget)) >= 2
    return budget


def _canonical(obj):
    """JSON round trip, so tuples compare equal to the fixture's lists."""
    return json.loads(json.dumps(obj))


_RUNS = _runs()


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_launch_parity(name, fixture):
    assert _canonical(_RUNS[name]()) == fixture[name]


def test_fixture_covers_every_run(fixture):
    assert sorted(fixture) == sorted(_RUNS)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {name: _canonical(run()) for name, run in sorted(_RUNS.items())}
    FIXTURE.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {len(data)} runs to {FIXTURE}")

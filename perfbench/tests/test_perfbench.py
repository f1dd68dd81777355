"""Fast tests of the benchmark's own logic (no timed runs)."""

import json
import pathlib
import re

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from checks import TOLERANCE, backward_error, lu_residual
from kernels import FAMILIES, family_figures, family_of
from metrics import END_TO_END, PER_LAYER, spread, tail_supported
from spans import Tracer, layer_of, self_times
from workloads import Measure, MaxwellSweep, ServeMixed, ServeSteps

ROOT = pathlib.Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- metric names ----------------------------------------------------------
def test_metric_names_are_well_formed_and_unique():
    names = list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert name[0].isalnum(), name


def test_benchmark_json_matches_the_metric_tables():
    bench = bench_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [m["name"] for m in bench["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(PER_LAYER)
    for m in bench["end_to_end"]:
        unit, _, better = END_TO_END[m["name"]]
        assert (m["unit"], m["better"]) == (unit, better)
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    for m in bench["per_layer"]:
        assert (m["unit"], m["better"]) == (PER_LAYER[m["name"]][0],
                                            PER_LAYER[m["name"]][2])
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(
        w.name for w in (MaxwellSweep, ServeMixed, ServeSteps))
    for w in bench["workloads"]:
        assert NAME.fullmatch(w["name"]) and len(w["why"]) <= 200


# -- span arithmetic -------------------------------------------------------
def synthetic_tracer():
    """op [0, 10] > serve [1, 9] > batched [2, 8] > kernel [3, 5], and a
    second kernel [6, 7] under batched; one setup span outside the op."""
    tr = Tracer()
    rows = [("sparse.analyze", 0.0, 0.5, -1, None),
            ("op", 0.0, 10.0, -1, 0),
            ("serve.dispatch", 1.0, 9.0, 1, 0),
            ("batched.getrf", 2.0, 8.0, 2, 0),
            ("kernel.irrgetf2", 3.0, 5.0, 3, 0),
            ("batched.gemm", 6.0, 7.5, 3, 0),
            ("kernel.irrgemm", 6.0, 7.0, 5, 0)]
    for name, s, e, p, op in rows:
        tr.name.append(name)
        tr.start.append(s)
        tr.end.append(e)
        tr.parent.append(p)
        tr.op.append(op)
    return tr


def test_self_times_subtract_direct_children_only():
    tr = synthetic_tracer()
    got = self_times(tr.start, tr.end, tr.parent)
    assert got == pytest.approx([0.5, 2.0, 2.0, 2.5, 2.0, 0.5, 1.0])


def test_summary_layers_add_up_to_op_time():
    s = synthetic_tracer().summary()
    assert s["ops"] == 1 and s["op_s"] == 10.0
    assert s["layer_self_s"] == pytest.approx(
        {"bench": 2.0, "serve": 2.0, "batched": 3.0, "kernel": 3.0})
    assert sum(s["layer_self_s"].values()) == pytest.approx(s["op_s"])
    # the gemm nested in getrf is not counted again at the top level
    assert s["top_incl_s"]["batched.getrf"] == 6.0
    assert s["top_incl_s"]["batched.gemm"] == 0.0
    assert s["incl_s"]["batched.gemm"] == 1.5
    assert "sparse.analyze" not in s["self_s"]


def test_setup_time_counts_spans_outside_ops():
    assert synthetic_tracer().setup_time("sparse.analyze") == 0.5


def test_tracer_records_nested_calls_and_restores_patches():
    import repro.sparse.solver as solver
    tr = Tracer()
    original = solver.SparseLU.__dict__["solve"]
    tr.install()
    assert solver.SparseLU.__dict__["solve"] is not original
    tr.uninstall()
    assert solver.SparseLU.__dict__["solve"] is original

    def inner(name):               # a keyword called ``name`` passes through
        return name
    with tr.op_scope(3):
        assert tr.call("batched.trsm", tr.call, "kernel.irrtrsm", inner,
                       name="x") == "x"
    assert tr.name == ["op", "batched.trsm", "kernel.irrtrsm"]
    assert tr.parent == [-1, 0, 1] and tr.op == [3, 3, 3]
    assert layer_of("op") == "bench" and layer_of("kernel.x") == "kernel"


# -- correctness checks ----------------------------------------------------
def test_backward_error_trips_on_a_perturbed_solution(rng):
    a = rng.standard_normal((40, 40)) + 40 * np.eye(40)
    b = rng.standard_normal((40, 2))
    x = np.linalg.solve(a, b)
    assert backward_error(a, x, b) <= TOLERANCE
    bad = x.copy()
    bad[7, 1] *= 1 + 1e-6
    assert backward_error(a, bad, b) > TOLERANCE
    bad[0, 0] = np.nan
    assert backward_error(a, bad, b) == float("inf")


def test_backward_error_on_sparse_matrix(rng):
    a = sp.random(60, 60, density=0.1, random_state=1, format="csr") \
        + 10 * sp.eye(60, format="csr")
    b = rng.standard_normal(60)
    x = sp.linalg.spsolve(a.tocsc(), b)
    assert backward_error(a, x, b) <= TOLERANCE
    assert backward_error(a, x + 1e-6, b) > TOLERANCE


def test_lu_residual_trips_on_perturbed_factors(rng):
    a = rng.standard_normal((30, 30))
    lu, piv = sla.lu_factor(a)
    assert lu_residual(a, lu, piv) <= TOLERANCE
    bad = lu.copy()
    bad[12, 3] += 1e-6
    assert lu_residual(a, bad, piv) > TOLERANCE
    swapped = piv.copy()
    swapped[0] = (piv[0] + 1) % 30
    assert lu_residual(a, lu, swapped) > TOLERANCE


def test_measure_counts_a_failed_check():
    m = Measure(attempted=2)
    m.check("good", 1e-16)
    m.check("bad", 1e-9)
    m.check("nan", float("nan"))
    assert m.failed == 2 and len(m.errors) == 2


def test_same_seed_repeats_counts_and_sim_times():
    wl = ServeMixed()
    runs = []
    for _ in range(2):
        m = Measure()
        wl._timed_replay(3, 0, wl.inputs(3, 0, 60), m, None)
        runs.append(m)
    a, b = runs
    assert (a.attempted, a.failed) == (b.attempted, b.failed) == (60, 0)
    assert a.layer == b.layer and a.device_peaks == b.device_peaks
    assert np.allclose(a.sim_s, b.sim_s, rtol=1e-9, atol=0)
    assert a.sim_busy_s == pytest.approx(b.sim_busy_s, rel=1e-9)


# -- input generators ------------------------------------------------------
def test_maxwell_frequencies_are_deterministic_per_seed():
    w = MaxwellSweep.inputs(4, 5)
    assert np.array_equal(w, MaxwellSweep.inputs(4, 5))
    assert not np.array_equal(w, MaxwellSweep.inputs(5, 5))
    assert np.all((w >= 15) & (w <= 17)) and np.all(np.diff(w) >= 0)


def test_step_inputs_are_deterministic_per_seed():
    b1, g1 = ServeSteps.inputs(2, 7, 50)
    b2, g2 = ServeSteps.inputs(2, 7, 50)
    assert np.array_equal(b1, b2)
    assert all(np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])
               for x, y in zip(g1, g2))
    assert sorted(a.shape[0] for a, _ in g1) == sorted([8, 16, 40, 64] * 4)
    assert not np.array_equal(b1, ServeSteps.inputs(3, 7, 50)[0])
    assert ServeSteps.omega(2) == ServeSteps.omega(2) != ServeSteps.omega(3)


def test_mixed_inputs_are_deterministic_per_seed():
    wl = ServeMixed()
    p1 = wl.inputs(1, 0, 20)
    p2 = wl.inputs(1, 0, 20)
    assert all(c1 == c2 and np.array_equal(a1, a2) and np.array_equal(b1, b2)
               for (c1, a1, b1), (c2, a2, b2) in zip(p1, p2))
    other = wl.inputs(2, 0, 20)
    assert any(a1.shape != a2.shape or not np.array_equal(a1, a2)
               for (_, a1, _), (_, a2, _) in zip(p1, other))


def test_op_counts_come_from_seconds_not_a_clock():
    for cls in (MaxwellSweep, ServeMixed, ServeSteps):
        wl = cls()
        assert wl.n_ops(15) == wl.n_ops(15) >= 1
        assert wl.n_ops(60) >= wl.n_ops(15)


# -- kernel and statistics helpers ----------------------------------------
def test_family_of_maps_launch_names():
    assert family_of("irrgemm:update") == "irrgemm"
    assert family_of("fused[8]") == "fused"
    assert family_of("laswp:apply") == "other"
    assert set(FAMILIES) >= {"irrgetf2", "cublas_gemm", "solve"}


def test_roofline_fraction_is_the_bound_over_sim_time():
    f = family_figures(launches=2, flops=4e9, nbytes=1e9, sim_s=1e-3,
                       body_s=0.5, peak_flops=1e13, mem_bandwidth=2e12)
    roof = min(1e13, 2e12 * 4.0)               # memory side binds here
    assert f["roofline_frac"] == pytest.approx((4e9 / 1e-3) / roof)
    assert f["host_gflops"] == pytest.approx(8.0)
    moves = family_figures(launches=1, flops=0.0, nbytes=2e9, sim_s=2e-3,
                           body_s=0.0, peak_flops=1e13, mem_bandwidth=2e12)
    assert moves["roofline_frac"] == pytest.approx(0.5)
    assert moves["host_gflops"] == 0.0


def test_statistics_helpers():
    assert tail_supported(1000, 99) and not tail_supported(999, 99)
    assert tail_supported(100, 90) and not tail_supported(50, 90)
    assert spread([10.0] * 10) == 0.0
    assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (8.25 - 2.75) / 5.5)


@pytest.fixture
def rng():
    return np.random.default_rng(0)

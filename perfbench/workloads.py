"""The benchmark's three workloads.

Each workload has an input generator (a pure function of the seed), a
``setup`` that builds the system and warms its caches, and ``run``, which
times a range of ops, checks every answer and fills a :class:`Measure`.
An op is one frequency point (``maxwell-sweep``), one replay of an
open-loop request stream whose ops are its requests (``serve-mixed``),
or one time step (``serve-steps``).

The number of ops comes from ``--seconds`` through each workload's
nominal op rate on the reference machine, never from a clock, so one
seed always gives the same ops and the same counts.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from checks import TOLERANCE, backward_error, lu_residual
from repro.device import A100, Device
from repro.fem.maxwell import MaxwellProblem
from repro.fem.mesh import HexMesh
from repro.serve.scheduler import CoalescingPolicy
from repro.serve.service import FactorHandle, SolverService
from repro.sparse.solver import SparseLU
from repro.workloads import traffic


@dataclass
class Measure:
    """What one range of timed ops produced, on both clocks."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    host_s: list = field(default_factory=list)      # per-op latency
    host_busy_s: float = 0.0                        # throughput base
    sim_s: list = field(default_factory=list)       # per-op latency
    sim_busy_s: float = 0.0                         # device-busy time
    slo_missed: int = 0
    device_peaks: list = field(default_factory=list)  # one per device
    #: per-layer counters over the ops: service stats deltas, device
    #: profiler deltas, dispatch waits
    layer: Counter = field(default_factory=Counter)
    waits: list = field(default_factory=list)
    records: list = field(default_factory=list)     # resolved launches
    profiler_records: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def check(self, what: str, err: float) -> None:
        if not err <= TOLERANCE:
            self.fail(f"{what}: error {err:.3e} > {TOLERANCE:g}")

    def note_device(self, dev: Device, mark: dict) -> None:
        """Fold a device's profiler activity since ``mark`` in."""
        prof = dev.profiler
        self.layer["transfer_sim_s"] += prof.transfer_time - \
            mark["transfer_time"]
        self.layer["sync_wait_sim_s"] += prof.sync_wait_time - \
            mark["sync_wait_time"]
        self.records.extend(prof.records[mark["records"]:])
        self.profiler_records = max(self.profiler_records,
                                    len(prof.records))
        self.device_peaks.append(dev.peak_allocated_bytes)

    def note_service(self, svc: "RecordingService", before: dict) -> None:
        """Fold a service's counters since snapshot ``before`` in."""
        after = svc.counters()
        for k, v in after.items():
            self.layer[k] += v - before.get(k, 0)


def device_mark(dev: Device) -> dict:
    prof = dev.profiler
    return {"transfer_time": prof.transfer_time,
            "sync_wait_time": prof.sync_wait_time,
            "records": len(prof.records)}


class RecordingService(SolverService):
    """The solver service, plus what the benchmark reads from outside:
    every future it returned, each request's share of the host time of
    the dispatch that served it, the simulated wait of every dispatched
    request and the number of dense factor dispatches."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.futures: list = []
        self.host_share: dict = {}
        self.waits: list = []
        self.getrf_dispatches = 0

    def submit_factor(self, *args, **kwargs):
        fut = super().submit_factor(*args, **kwargs)
        self.futures.append(fut)
        return fut

    def submit_factor_solve(self, *args, **kwargs):
        fut = super().submit_factor_solve(*args, **kwargs)
        self.futures.append(fut)
        return fut

    def _safe_dispatch(self, group, policy=None):
        self.waits.extend(r.waited() for r in group)
        if group[0].key[0] == "getrf":
            self.getrf_dispatches += 1
        t0 = time.perf_counter()
        record = super()._safe_dispatch(group, policy)
        share = (time.perf_counter() - t0) / len(group)
        for r in group:
            self.host_share[id(r.future)] = share
        return record

    def counters(self) -> dict:
        s = self.stats.snapshot()
        pc = s["plan_cache"]
        return {"dispatches": s["dispatches"],
                "coalesced_requests": s["coalesced_requests"],
                "occupancy_total": s["occupancy_total"],
                "retries": s["retries"],
                "compiled_dispatches": s["compiled_dispatches"],
                "getrf_dispatches": self.getrf_dispatches,
                "plan_hits": pc["hits"], "plan_misses": pc["misses"]}


def _scope(tracer, k: int):
    return tracer.op_scope(k) if tracer is not None else nullcontext()


def _call(tracer, name: str, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


# ----------------------------------------------------------------------
# maxwell-sweep
# ----------------------------------------------------------------------
class MaxwellSweep:
    """The paper's §V-B solve, swept over frequency by one caller."""

    name = "maxwell-sweep"
    mesh_n = 16                 # 10,800 interior dofs
    op_seconds = 4.0            # nominal host seconds per frequency point

    def n_ops(self, seconds: float) -> int:
        return max(2, round(seconds / self.op_seconds))

    @staticmethod
    def inputs(seed: int, n_ops: int) -> np.ndarray:
        """The frequency points, drawn from ``[15, 17]``."""
        rng = np.random.default_rng([seed, 0])
        return np.sort(rng.uniform(15.0, 17.0, size=n_ops))

    def setup(self, seed: int, n_ops: int) -> dict:
        prob = MaxwellProblem.build(HexMesh(self.mesh_n, self.mesh_n,
                                            self.mesh_n), omega=16.0)
        a, b = prob.reduced_system()
        inner = prob.interior
        k_ii = prob.K[inner][:, inner].tocsr()
        m_ii = prob.M[inner][:, inner].tocsr()
        solver = SparseLU(a).analyze()
        dev = Device(A100())
        solver.factor(backend="batched", device=dev)
        x, _ = solver.solve(b, device=dev)
        err = backward_error(a, x, b)
        if not err <= TOLERANCE:
            raise RuntimeError(f"warm-up solve: backward error {err:.3e}")
        dev.synchronize()
        return {"K": k_ii, "M": m_ii, "b": b, "solver": solver, "dev": dev,
                "omegas": self.inputs(seed, n_ops)}

    def run(self, st: dict, ops: range, m: Measure, tracer=None) -> None:
        dev, solver, b = st["dev"], st["solver"], st["b"]
        mark = device_mark(dev)
        for k in ops:
            w = float(st["omegas"][k])
            m.attempted += 1
            t0 = time.perf_counter()
            s0 = dev.host_time
            with _scope(tracer, k):
                a = (st["K"] - (w * w) * st["M"]).tocsr()
                solver.update_values(a)
                solver.factor(backend="batched", device=dev)
                x, _ = solver.solve(b, device=dev)
                s1 = dev.synchronize()
            t1 = time.perf_counter()
            m.host_s.append(t1 - t0)
            m.host_busy_s += t1 - t0
            m.sim_s.append(s1 - s0)
            m.sim_busy_s += s1 - s0
            m.check(f"omega={w:.6f}", backward_error(a, x, b))
        m.note_device(dev, mark)

    def close(self, st: dict) -> None:
        pass


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
#: Offered load on the simulated clock and the two request classes; the
#: SLOs are the simulated latency limits the workload reports against.
MIXED_RATE = 20_000.0
MIXED_CLASSES = (
    traffic.RequestClass("factor_solve", "factor_solve", 12, 96,
                         weight=0.75, slo=10e-3, sampler="lognormal"),
    traffic.RequestClass("factor", "factor", 32, 128, weight=0.25,
                         slo=20e-3),
)


class ServeMixed:
    """Independent users, open loop, replayed in virtual time."""

    name = "serve-mixed"
    replay_size = 2000          # requests per replay
    req_per_s = 600.0           # nominal host requests per second
    warm_size = 200

    def n_ops(self, seconds: float) -> int:
        """Number of replays (each replay is one timed unit)."""
        return max(1, round(seconds * self.req_per_s / self.replay_size))

    @staticmethod
    def mix(count: int) -> traffic.TrafficMix:
        return traffic.TrafficMix(name="serve-mixed", classes=MIXED_CLASSES,
                                  count=count, arrival="poisson",
                                  rate=MIXED_RATE)

    @staticmethod
    def replay_seed(seed: int, k: int) -> int:
        return seed * 1000 + k

    def inputs(self, seed: int, k: int, count: int | None = None) -> list:
        """Replay ``k``'s requests: ``(class, matrix, rhs)`` per index,
        made by the program's own generator (a pure function of the
        traffic seed and the request index)."""
        count = self.replay_size if count is None else count
        mix = self.mix(count)
        s = self.replay_seed(seed, k)
        return [traffic._payload(mix, s, i) for i in range(count)]

    def setup(self, seed: int, n_ops: int) -> dict:
        # warm the process: one short replay from a seed no run uses
        warm = Measure()
        self._timed_replay(seed, 999, self.inputs(seed, 999, self.warm_size),
                           warm, None)
        if warm.failed:
            raise RuntimeError(f"warm-up replay failed: {warm.errors}")
        return {"seed": seed}

    def run(self, st: dict, ops: range, m: Measure, tracer=None) -> None:
        for k in ops:
            self._timed_replay(st["seed"], k, self.inputs(st["seed"], k), m,
                               tracer)

    def _timed_replay(self, seed: int, k: int, payloads: list, m: Measure,
                      tracer) -> None:
        """Replay ``payloads`` through ``run_mix`` (timed), then check
        every answer and fold the replay's figures into ``m``."""
        tseed = self.replay_seed(seed, k)
        services: list[RecordingService] = []

        def make_service(*args, **kwargs):
            svc = RecordingService(*args, **kwargs)
            services.append(svc)
            return svc

        def payload(_mix, s, i):
            if s != tseed:
                raise RuntimeError(f"replay asked for seed {s}, "
                                   f"inputs were made for {tseed}")
            return payloads[i]

        saved = traffic.SolverService, traffic._payload
        traffic.SolverService, traffic._payload = make_service, payload
        try:
            t0 = time.perf_counter()
            with _scope(tracer, k):
                res = _call(tracer, "serve.replay", traffic.run_mix,
                            self.mix(len(payloads)), policy=CoalescingPolicy(),
                            seed=tseed)
            t1 = time.perf_counter()
        finally:
            traffic.SolverService, traffic._payload = saved
        (svc,) = services
        m.host_busy_s += t1 - t0
        m.sim_busy_s += res.stats["sim_seconds"]
        m.attempted += len(payloads)
        for _ in range(res.rejected + res.failed):
            m.fail("rejected or failed request")
        handles = {}
        for fut in svc.futures:
            if fut.done() and fut.exception() is None:
                m.host_s.append(svc.host_share[id(fut)])
                v = fut.result()
                if isinstance(v, FactorHandle):
                    handles[id(v.lu)] = v
        for i, (cls, a, b) in enumerate(payloads):
            out, lat = res.results[i], res.latencies[i]
            if lat is not None:
                m.sim_s.append(lat)
            if out is None or lat is None or lat > cls.slo:
                m.slo_missed += 1
            if out is None:
                continue
            if cls.kind == "factor":
                h = handles[id(out)]
                m.check(f"request {i} LU", lu_residual(a, h.lu, h.ipiv))
            else:
                m.check(f"request {i} solve", backward_error(a, out, b))
        m.waits.extend(svc.waits)
        m.note_service(svc, {})
        m.note_device(svc.device, {"transfer_time": 0.0,
                                   "sync_wait_time": 0.0, "records": 0})

    def close(self, st: dict) -> None:
        pass


# ----------------------------------------------------------------------
# serve-steps
# ----------------------------------------------------------------------
#: Orders of the dense group submitted every step (four of each).
STEP_ORDERS = (8, 16, 40, 64)
STEP_NRHS = 2


class ServeSteps:
    """A time-stepping client: one sparse solve plus a recurring dense
    group per step, dispatched inline."""

    name = "serve-steps"
    mesh_n = 10                 # 2,430 interior dofs
    steps_per_s = 25.0          # nominal host steps per second
    max_warm_steps = 10

    def n_ops(self, seconds: float) -> int:
        return max(2, round(seconds * self.steps_per_s))

    @staticmethod
    def omega(seed: int) -> float:
        return float(np.random.default_rng([seed, 0]).uniform(15.0, 17.0))

    @staticmethod
    def inputs(seed: int, k: int, n: int) -> tuple:
        """Step ``k``'s sparse right-hand side and dense group."""
        rng = np.random.default_rng([seed, 1, k])
        b = rng.standard_normal(n)
        group = []
        for order in STEP_ORDERS:
            for _ in range(4):
                a = rng.standard_normal((order, order))
                a += order * np.eye(order)    # no pivot breakdown
                group.append((a, rng.standard_normal((order, STEP_NRHS))))
        return b, group

    def setup(self, seed: int, n_ops: int) -> dict:
        prob = MaxwellProblem.build(HexMesh(self.mesh_n, self.mesh_n,
                                            self.mesh_n),
                                    omega=self.omega(seed))
        a, _ = prob.reduced_system()
        dev = Device(A100())
        svc = RecordingService(
            dev, policy=CoalescingPolicy(max_wait=0.0, compile_hot=True),
            start=False, clock=lambda: dev.host_time)
        fut = svc.submit_factor(a)
        svc.run_once()
        st = {"a": a, "dev": dev, "svc": svc, "session": fut.result(),
              "seed": seed}
        # warm up until the recurring dense group replays compiled
        warm = Measure()
        for j in range(self.max_warm_steps):
            self._steps(st, [n_ops + j], warm, None)
            if svc.stats.compiled_dispatches:
                break
        if warm.failed or not svc.stats.compiled_dispatches:
            raise RuntimeError(f"warm-up did not reach compiled replay "
                               f"({warm.errors})")
        return st

    def _steps(self, st: dict, ops, m: Measure, tracer) -> None:
        svc, dev, a = st["svc"], st["dev"], st["a"]
        for k in ops:
            b, group = self.inputs(st["seed"], k, a.shape[0])
            m.attempted += 1
            t0 = time.perf_counter()
            s0 = dev.host_time
            with _scope(tracer, k):
                fs = svc.submit_solve(st["session"], b)
                futs = [svc.submit_factor_solve(ad, bd) for ad, bd in group]
                svc.run_once()
                x, _ = fs.result()
                xs = [f.result()[0] for f in futs]
            s1 = dev.host_time
            t1 = time.perf_counter()
            m.host_s.append(t1 - t0)
            m.host_busy_s += t1 - t0
            m.sim_s.append(s1 - s0)
            m.sim_busy_s += s1 - s0
            err = backward_error(a, x, b)
            for (ad, bd), xd in zip(group, xs):
                err = max(err, backward_error(ad, xd, bd))
            m.check(f"step {k}", err)

    def run(self, st: dict, ops: range, m: Measure, tracer=None) -> None:
        svc, dev = st["svc"], st["dev"]
        mark, before = device_mark(dev), svc.counters()
        n_waits = len(svc.waits)
        self._steps(st, ops, m, tracer)
        m.waits.extend(svc.waits[n_waits:])
        m.note_service(svc, before)
        m.note_device(dev, mark)

    def close(self, st: dict) -> None:
        st["session"].close()
        st["svc"].close()


WORKLOADS = {w.name: w for w in (MaxwellSweep, ServeMixed, ServeSteps)}

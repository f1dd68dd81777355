"""Span tracing for the benchmark's traced run.

Spans are recorded from outside the program: :meth:`Tracer.install`
swaps each layer's public entry points, at the module or class where
their callers look them up, for wrappers that time the call.  Nothing
under ``src/`` is edited, and :meth:`Tracer.uninstall` restores every
original object.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (``-1`` for none) and ``op`` the id of the benchmark
op it ran under (``None`` during setup).  The layer of a span is the
part of its name before the first dot; the benchmark's own root span of
each op is named ``op`` and belongs to the ``bench`` layer.  Everything
runs on one thread, so the spans of one op nest strictly and a span's
self time is its duration minus its children's durations.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager

from kernels import family_of

#: Layers in report order; ``bench`` is the harness's own time inside an op.
LAYERS = ("fem", "sparse", "batched", "kernel", "device", "serve", "bench")


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    return [e - s - c for s, e, c in zip(start, end, child)]


class Tracer:
    """In-memory span store plus the counters kept at the same wrappers."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._op = None
        self._patches: list[tuple] = []
        self._warm: set[int] = set()

    # -- recording -------------------------------------------------------
    def _begin(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _end(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        i = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(i)

    @contextmanager
    def span(self, name: str):
        """Context-manager form of :meth:`call` for the harness's spans."""
        i = self._begin(name)
        try:
            yield
        finally:
            self._end(i)

    @contextmanager
    def op_scope(self, op_id: int):
        """Root span of one benchmark op; spans inside carry ``op_id``."""
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attr: str, make):
        """Replace ``owner.attr`` with ``make(original_function)``,
        keeping classmethod/staticmethod descriptors intact."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _timed(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
            return wrapper
        return make

    def install(self) -> None:
        """Wrap every layer's entry points (idempotent per install)."""
        if self._patches:
            return
        import repro.batched.engine as engine
        import repro.batched.getrf as getrf
        import repro.batched.getrs as getrs
        import repro.batched.program as program
        import repro.batched.trsm as trsm
        import repro.device.memory as memory
        import repro.device.simulator as simulator
        import repro.fem.maxwell as maxwell
        import repro.serve.service as service
        import repro.serve.session as session
        import repro.sparse.numeric.gpu_factor as gpu_factor
        import repro.sparse.numeric.gpu_solve as gpu_solve
        import repro.sparse.solver as solver

        t = self._timed
        p = self._patch
        # fem: assembly of the Maxwell system
        p(maxwell.MaxwellProblem, "build", t("fem.assemble"))
        p(maxwell.MaxwellProblem, "reduced_system", t("fem.assemble"))
        # sparse: the SparseLU phases
        p(solver.SparseLU, "analyze", t("sparse.analyze"))
        p(solver.SparseLU, "update_values", t("sparse.update_values"))
        p(solver.SparseLU, "factor", self._factor_wrapper)
        p(solver.SparseLU, "solve", self._solve_wrapper)
        # batched: entry points where the sparse and serve layers call them
        for mod, attr, name in (
                (service, "irr_getrf", "batched.getrf"),
                (service, "irr_getrs", "batched.getrs"),
                (service, "compile_workload", "batched.compile"),
                (gpu_factor, "irr_getrf", "batched.getrf"),
                (gpu_factor, "vendor_getrf", "batched.getrf"),
                (gpu_factor, "irr_trsm", "batched.trsm"),
                (gpu_factor, "vendor_trsm", "batched.trsm"),
                (gpu_factor, "irr_gemm", "batched.gemm"),
                (gpu_factor, "vendor_gemm", "batched.gemm"),
                (gpu_solve, "irr_trsm", "batched.trsm"),
                (getrf, "irr_trsm", "batched.trsm"),
                (getrf, "irr_gemm", "batched.gemm"),
                (getrf, "irr_laswp", "batched.laswp"),
                (getrs, "irr_trsm", "batched.trsm"),
                (trsm, "irr_gemm", "batched.gemm")):
            p(mod, attr, t(name))
        p(program.WorkloadProgram, "run", t("batched.program"))
        # DCWI planning and pivot rehearsal run inside kernel bodies; their
        # spans move that time from the kernel layer to the batched layer.
        p(engine.PlanCache, "get_or_build", t("batched.plan"))
        p(engine.BatchEngine, "_rehearse_permutation", t("batched.rehearse"))
        # device: launch accounting, event simulation, bus transfers
        p(simulator.Device, "launch", self._launch_wrapper)
        p(simulator.Device, "synchronize", t("device.sync"))
        p(memory, "_transfer_h2d", self._transfer_wrapper("h2d"))
        p(memory, "_transfer_d2h", self._transfer_wrapper("d2h"))
        # serve: admission, inline dispatch, sessions
        for attr in ("submit_factor", "submit_solve", "submit_factor_solve"):
            p(service.SolverService, attr, t("serve.submit"))
        p(service.SolverService, "run_once", t("serve.run_once"))
        p(service.SolverService, "_safe_dispatch", t("serve.dispatch"))
        p(session.ServeSession, "solve_on_device", t("serve.session_solve"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- wrappers that also count ----------------------------------------
    def _launch_wrapper(self, fn):
        @functools.wraps(fn)
        def launch(dev, name, body, cost=None, **kwargs):
            fam = family_of(name)
            if body is not None:
                body = functools.partial(self.call, f"kernel.{fam}", body)
            out = self.call("device.launch", fn, dev, name, body, cost,
                            **kwargs)
            c = self.counters
            c[f"launches.{fam}"] += 1
            c[f"flops.{fam}"] += out.flops
            c[f"bytes.{fam}"] += out.bytes_total
            return out
        return launch

    def _transfer_wrapper(self, direction: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(device, *args, **kwargs):
                src = args[1] if direction == "h2d" else args[0]
                self.counters[f"{direction}_bytes"] += src.nbytes
                return self.call(f"device.{direction}", fn, device, *args,
                                 **kwargs)
            return wrapper
        return make

    def _factor_wrapper(self, fn):
        @functools.wraps(fn)
        def factor(solver, *args, **kwargs):
            self._warm.discard(id(solver))
            return self.call("sparse.factor", fn, solver, *args, **kwargs)
        return factor

    def _solve_wrapper(self, fn):
        @functools.wraps(fn)
        def solve(solver, *args, **kwargs):
            cold = id(solver) not in self._warm
            self._warm.add(id(solver))
            name = "sparse.solve_cold" if cold else "sparse.solve"
            x, info = self.call(name, fn, solver, *args, **kwargs)
            self.counters["sparse_solves"] += 1
            self.counters["refine_sweeps"] += max(0, len(info.residuals) - 1)
            return x, info
        return solve

    # -- analysis --------------------------------------------------------
    def _nested(self) -> list[bool]:
        """Whether each span has an ancestor in its own layer."""
        bit = {name: 1 << k for k, name in enumerate(LAYERS)}
        layer = [bit[layer_of(n)] for n in self.name]
        mask = [0] * len(layer)            # layers of all ancestors
        for i, p in enumerate(self.parent):
            if p >= 0:                     # parents precede children
                mask[i] = mask[p] | layer[p]
        return [bool(m & b) for m, b in zip(mask, layer)]

    def summary(self) -> dict:
        """Span aggregates summed over every traced op.

        ``op_s`` is the total root-span time and ``ops`` the number of
        root spans; ``layer_self_s`` sums self time per layer;
        ``self_s`` and ``incl_s`` are per span name; ``top_incl_s``
        counts only spans with no ancestor in their own layer, so a
        ``batched.gemm`` issued from inside ``batched.getrf`` is part of
        the getrf figure, not counted twice."""
        selfs = self_times(self.start, self.end, self.parent)
        nested = self._nested()
        out = {"op_s": 0.0, "ops": 0, "layer_self_s": Counter(),
               "self_s": Counter(), "incl_s": Counter(),
               "top_incl_s": Counter()}
        for i, n in enumerate(self.name):
            if self.op[i] is None:
                continue
            dur = self.end[i] - self.start[i]
            if n == "op":
                out["op_s"] += dur
                out["ops"] += 1
            out["layer_self_s"][layer_of(n)] += selfs[i]
            out["self_s"][n] += selfs[i]
            out["incl_s"][n] += dur
            if not nested[i]:
                out["top_incl_s"][n] += dur
        return out

    def setup_time(self, name: str) -> float:
        """Inclusive time of outermost ``name`` spans outside any op."""
        nested = self._nested()
        return sum(self.end[i] - self.start[i]
                   for i, n in enumerate(self.name)
                   if n == name and self.op[i] is None and not nested[i])

    def dump(self, path) -> None:
        """Write every span as a ``[name, start, end, parent, op]`` row."""
        rows = [list(r) for r in zip(self.name, self.start, self.end,
                                     self.parent, self.op)]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": rows}, fh)

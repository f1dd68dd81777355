"""Compiled multifrontal level schedules: factor once, replay on
same-structure matrices.

The multifrontal traversal's launch sequence is a pure function of the
symbolic factorization: front shapes, level grouping, DCWI plans and the
assembly index arithmetic never depend on the matrix *values*.  For
applications that re-factor a sequence of matrices sharing one sparsity
structure (time stepping, Newton iterations, parameter sweeps — the
serve layer's bread and butter), :func:`compile_factor_program` records
the first ``strategy="batched"`` factorization into a
:class:`FactorProgram`: persistent front buffers, the uploaded-CSR
device claim and a fixed step schedule (zero-fill → assembly →
pivot-state reset → LU launches → growth/diagnostics → guard →
off-diagonal updates, per level).  ``program.run(a_perm)`` then only
overwrites the CSR payload bytes and replays — zero plan-cache misses,
zero new device allocations, bitwise-identical factors, pivots,
diagnostics and :class:`KernelCost` records (modulo launch fusion).

Value-dependent control flow is fenced, not recorded: a pivot breakdown
changes the level's launch sequence (quarantine + survivor sub-batches),
so compilation is abandoned if the rehearsal matrix breaks down, and a
replay whose payload breaks down raises
:class:`~repro.batched.program.GuardTripped` — the caller
(:meth:`SparseLU.factor`) falls back to the ordinary bucketed path for
that payload.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from functools import partial

import numpy as np
import scipy.sparse as sp

from ...batched.engine import BatchEngine
from ...batched.panel import _batch_abs_max
from ...batched.program import CompileError, GuardTripped, PayloadMismatch, \
    _HostStep, _Recorder, _fuse_steps, _growth_epilogue, _reset_pivots, \
    _resolve_compile_engine
from ...device.simulator import Device
from ..symbolic.analysis import SymbolicFactorization
from .factors import check_gathered
from .gpu_factor import FactorPolicy, GpuFactorResult, _FrontStore, \
    _chunk_levels, _csr_bytes, _factor_level, _front_factors, \
    _level_step, _package_result, _record_batch

__all__ = ["FactorProgram", "compile_factor_program"]


class FactorProgram:
    """A compiled level schedule over one sparse structure.

    Built by :func:`compile_factor_program`.  Holds the uploaded-CSR
    claim and every front buffer for its lifetime; :meth:`run` replays
    the recorded schedule on a same-structure matrix.
    """

    def __init__(self, device: Device, symb: SymbolicFactorization,
                 a_csr: sp.csr_matrix, buffers: dict, steps: list,
                 level_diags: list, policy: FactorPolicy,
                 engine: BatchEngine):
        self.device = device
        self.symb = symb
        self.a_csr = a_csr                  # .data overwritten per replay
        self.a_dev_bytes = _csr_bytes(a_csr)
        self.policy = policy
        self.engine = engine
        self.runs = 0
        self._buffers = buffers             # fid -> DeviceArray, persistent
        self._steps = steps
        self._level_diags = level_diags     # (fids, piv) per level
        self._indptr = a_csr.indptr.copy()
        self._indices = a_csr.indices.copy()
        self._freed = False

    # -- signature matching -------------------------------------------
    def matches(self, a_perm: sp.spmatrix, policy: FactorPolicy) -> bool:
        """True when ``a_perm`` shares the compiled structure and the
        factorization policy is identical."""
        return policy == self.policy and sp.issparse(a_perm) \
            and self._same_structure(sp.csr_matrix(a_perm))

    def _same_structure(self, a: sp.csr_matrix) -> bool:
        return (a.shape == self.a_csr.shape and a.dtype == self.a_csr.dtype
                and np.array_equal(a.indptr, self._indptr)
                and np.array_equal(a.indices, self._indices))

    # -- execution -----------------------------------------------------
    def run(self, a_perm: sp.spmatrix, *,
            breakdown: str = "raise") -> GpuFactorResult:
        """Replay the schedule on a same-structure matrix.

        The pivot policy is the compiled one (it is baked into the
        recorded pivot state).  Raises :class:`PayloadMismatch` on a
        structure/dtype deviation and :class:`GuardTripped` when a front
        breaks down (the schedule recorded the breakdown-free launch
        sequence).
        """
        if self._freed:
            raise RuntimeError("cannot run a freed FactorProgram")
        a = sp.csr_matrix(a_perm)
        if not self._same_structure(a):
            raise PayloadMismatch(
                "matrix does not share the compiled sparse structure "
                "(shape/dtype/indptr/indices)")
        device = self.device
        mark = device.recovery_log.mark()
        # payload upload: the CSR arrays already live on the device (the
        # claim persists); only the value bytes move.
        self.a_csr.data[...] = a.data
        device._account_transfer(self.a_dev_bytes)
        try:
            with device.timed_region() as region:
                for step in self._steps:
                    step.run(device)
        except GuardTripped:
            device.synchronize()   # drain recorded launches already issued
            raise
        self.runs += 1

        store = _FrontStore()
        for fids, piv in self._level_diags:
            _record_batch(store, fids, piv)
        return _download_result(
            device, self.symb, self._buffers, store, region, mark,
            replace(self.policy, breakdown=breakdown),
            counters_extra={"compiled_replay": 1})

    def free(self) -> None:
        """Release the front buffers and the CSR claim (idempotent)."""
        if self._freed:
            return
        self._freed = True
        for arr in self._buffers.values():
            arr.free()
        self.device._release(self.a_dev_bytes)


def _download_result(device, symb, buffers, store, region, mark, policy,
                     **kw) -> GpuFactorResult:
    """Download every front (the buffers and pivot arrays persist
    across replays, so the host factors are copies) and report."""
    host_factors = {
        fid: _front_factors(symb.fronts[fid], buffers[fid].to_host(),
                            store.pivots[fid].copy(), store.diags.get(fid))
        for fid in range(len(symb.fronts))}
    return _package_result(device, symb, host_factors, region, mark,
                           policy, traversals=1, **kw)


def compile_factor_program(device: Device, a_perm: sp.spmatrix,
                           symb: SymbolicFactorization, *,
                           gemm_mode: str = "hybrid",
                           pivot_tol: float = 0.0,
                           static_pivot: bool = False,
                           replace_scale: float | None = None,
                           breakdown: str = "raise",
                           engine=None, fuse: bool = True
                           ) -> tuple["FactorProgram | None",
                                      GpuFactorResult]:
    """Factor ``a_perm`` once while recording the level schedule.

    Returns ``(program, result)``: the result of this (first)
    factorization — identical to ``multifrontal_factor_gpu`` with the
    bucketed engine — plus the compiled program for same-structure
    replays.  ``program`` is ``None`` when any front broke down during
    the rehearsal (the recorded schedule would not be breakdown-free) —
    the result is still valid.  The in-core single-traversal regime only
    (use ``multifrontal_factor_gpu`` for out-of-core budgets).
    """
    policy = FactorPolicy("batched", gemm_mode, pivot_tol, static_pivot,
                          replace_scale, breakdown)
    eng = _resolve_compile_engine(engine)
    a_csr = sp.csr_matrix(a_perm).copy()
    if a_csr.shape[0] != symb.n:
        raise CompileError("matrix size does not match the symbolic "
                           "analysis")
    tiny = float(np.finfo(a_csr.dtype).tiny)
    mark = device.recovery_log.mark()

    device._claim(_csr_bytes(a_csr), site="gpu_factor:a_csr")
    buffers: dict = {}
    steps: list = []
    level_diags: list = []
    store = _FrontStore()
    ok = True
    rec = _Recorder(device)
    phases: list = []

    @contextmanager
    def phase():
        with rec:
            yield
        phases.append(rec.take())

    step = partial(_level_step, policy=policy, engine=eng, phase=phase)
    try:
        device._account_transfer(_csr_bytes(a_csr))
        with device.timed_region() as region:
            for fids in _chunk_levels(symb, list(range(len(symb.fronts)))):
                _, (piv, f11) = _factor_level(device, a_csr, symb, fids,
                                              buffers, store, step, phase)
                assemble_steps, getrf_steps, offdiag_steps = phases
                phases.clear()

                def zero_fill(fids=tuple(fids)) -> None:
                    for fid in fids:
                        buffers[fid].data[...] = 0.0

                level_diags.append((list(fids), piv))
                if np.any(piv.info != 0):
                    ok = False     # breakdown-free schedule impossible

                def reset(piv=piv, f11=f11) -> None:
                    _reset_pivots(piv, _batch_abs_max(f11), tiny)

                def growth(piv=piv, f11=f11) -> None:
                    _growth_epilogue(_batch_abs_max(f11), piv.ctrl)

                def guard(piv=piv, fids=tuple(fids)) -> None:
                    if np.any(piv.info != 0):
                        bad = np.nonzero(piv.info != 0)[0]
                        raise GuardTripped(
                            f"pivot breakdown during compiled replay "
                            f"(fronts "
                            f"{[fids[int(i)] for i in bad]}); the "
                            f"recorded level schedule assumes clean "
                            f"factors — fall back to the bucketed path",
                            info=piv.info.copy())

                if ok:
                    steps.append(_HostStep(zero_fill))
                    steps.extend(assemble_steps)
                    steps.append(_HostStep(reset))
                    steps.extend(getrf_steps)
                    # growth/diag before the guard so a tripped replay
                    # still leaves coherent diagnostics behind
                    steps.append(_HostStep(growth))
                    steps.append(_HostStep(guard))
                    steps.extend(offdiag_steps)
        check_gathered(a_csr, sum(store.gathered.values()))
    except Exception:
        for arr in buffers.values():
            arr.free()
        device._release(_csr_bytes(a_csr))
        raise

    program = None
    if ok:
        program = FactorProgram(
            device, symb, a_csr, buffers,
            _fuse_steps(steps) if fuse else steps, level_diags, policy,
            eng)
    try:
        result = _download_result(device, symb, buffers, store, region,
                                  mark, policy,
                                  counters_extra={"compiled": 1})
    finally:
        if not ok:
            # rehearsal broke down: no replayable schedule, release the
            # would-be persistent state (after the downloads above)
            for arr in buffers.values():
                arr.free()
            device._release(_csr_bytes(a_csr))
    return program, result

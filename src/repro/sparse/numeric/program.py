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

import numpy as np
import scipy.sparse as sp

from ...batched.engine import BatchEngine
from ...batched.getrf import irr_getrf
from ...batched.panel import _batch_abs_max
from ...batched.program import CompileError, GuardTripped, PayloadMismatch, \
    _HostStep, _Recorder, _fuse_steps, _growth_epilogue, _reset_pivots, \
    _resolve_compile_engine
from ...device.simulator import Device
from ..symbolic.analysis import SymbolicFactorization
from .gpu_factor import GpuFactorResult, _assemble_level, _chunk_levels, \
    _front_factors, _level_offdiag, _make_block_batches, _package_result, \
    _record_level_diag

__all__ = ["FactorProgram", "compile_factor_program"]


class FactorProgram:
    """A compiled level schedule over one sparse structure.

    Built by :func:`compile_factor_program`.  Holds the uploaded-CSR
    claim and every front buffer for its lifetime; :meth:`run` replays
    the recorded schedule on a same-structure matrix.
    """

    def __init__(self, device: Device, symb: SymbolicFactorization,
                 a_csr: sp.csr_matrix, a_dev_bytes: int, buffers: dict,
                 steps: list, level_diags: list, policy: tuple,
                 engine: BatchEngine):
        self.device = device
        self.symb = symb
        self.a_csr = a_csr                  # .data overwritten per replay
        self.a_dev_bytes = a_dev_bytes
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
    def matches(self, a_perm: sp.spmatrix, policy: tuple) -> bool:
        """True when ``a_perm`` shares the compiled structure and the
        factorization policy is identical."""
        if policy != self.policy or not sp.issparse(a_perm):
            return False
        a = a_perm if isinstance(a_perm, sp.csr_matrix) \
            else sp.csr_matrix(a_perm)
        return (a.shape == self.a_csr.shape
                and a.dtype == self.a_csr.dtype
                and np.array_equal(a.indptr, self._indptr)
                and np.array_equal(a.indices, self._indices))

    # -- execution -----------------------------------------------------
    def run(self, a_perm: sp.spmatrix, *, pivot_tol: float = 0.0,
            static_pivot: bool = False, replace_scale: float | None = None,
            breakdown: str = "raise") -> GpuFactorResult:
        """Replay the schedule on a same-structure matrix.

        The breakdown-policy keywords must match the compiled policy
        (they are baked into the recorded pivot state); they are
        re-accepted here only so the caller's report carries them.
        Raises :class:`PayloadMismatch` on a structure/dtype deviation
        and :class:`GuardTripped` when a front breaks down (the
        schedule recorded the breakdown-free launch sequence).
        """
        if self._freed:
            raise RuntimeError("cannot run a freed FactorProgram")
        a = a_perm if isinstance(a_perm, sp.csr_matrix) \
            else sp.csr_matrix(a_perm)
        if a.shape != self.a_csr.shape or a.dtype != self.a_csr.dtype \
                or not np.array_equal(a.indptr, self._indptr) \
                or not np.array_equal(a.indices, self._indices):
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

        diag_of: dict[int, tuple] = {}
        pivots_of: dict[int, np.ndarray] = {}
        for fids, piv in self._level_diags:
            _record_level_diag(diag_of, fids, piv)
            for fid, ip in zip(fids, piv.ipiv):
                pivots_of[fid] = ip
        return _download_result(
            device, self.symb, self._buffers, pivots_of, diag_of, region,
            mark, pivot_tol=pivot_tol, static_pivot=static_pivot,
            replace_scale=replace_scale, breakdown=breakdown,
            counters_extra={"compiled_replay": 1})

    def free(self) -> None:
        """Release the front buffers and the CSR claim (idempotent)."""
        if self._freed:
            return
        self._freed = True
        for arr in self._buffers.values():
            arr.free()
        self.device._release(self.a_dev_bytes)


def _download_result(device, symb, buffers, pivots_of, diag_of, region,
                     mark, **kw) -> GpuFactorResult:
    """Download every front (the buffers and pivot arrays persist
    across replays, so the host factors are copies) and report."""
    host_factors = {
        fid: _front_factors(symb.fronts[fid], buffers[fid].to_host(),
                            pivots_of[fid].copy(), diag_of.get(fid))
        for fid in range(len(symb.fronts))}
    return _package_result(device, symb, host_factors, region, mark,
                           traversals=1, **kw)


def compile_factor_program(device: Device, a_perm: sp.spmatrix,
                           symb: SymbolicFactorization, *,
                           gemm_mode: str = "hybrid",
                           hybrid_cutoff: int = 256,
                           laswp_variant: str = "rehearsed",
                           nb: int = 32,
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
    if gemm_mode not in ("irr", "vendor", "hybrid"):
        raise CompileError(f"unknown gemm_mode {gemm_mode!r}")
    if breakdown not in ("raise", "report"):
        raise CompileError(f"unknown breakdown mode {breakdown!r}")
    eng = _resolve_compile_engine(engine)
    a_csr = sp.csr_matrix(a_perm).copy()
    if a_csr.shape[0] != symb.n:
        raise CompileError("matrix size does not match the symbolic "
                           "analysis")
    a_dev_bytes = a_csr.data.nbytes + a_csr.indices.nbytes + \
        a_csr.indptr.nbytes
    policy = (gemm_mode, int(hybrid_cutoff), laswp_variant, int(nb),
              float(pivot_tol), bool(static_pivot),
              None if replace_scale is None else float(replace_scale))
    dtype = a_csr.dtype
    tiny = float(np.finfo(dtype).tiny)
    mark = device.recovery_log.mark()

    device._claim(a_dev_bytes, site="gpu_factor:a_csr")
    buffers: dict = {}
    steps: list = []
    level_diags: list = []
    ok = True
    rec = _Recorder(device)
    try:
        device._account_transfer(a_dev_bytes)
        with device.timed_region() as region:
            all_fids = list(range(len(symb.fronts)))
            for fids in _chunk_levels(symb, all_fids):
                for fid in fids:
                    info = symb.fronts[fid]
                    buffers[fid] = device.zeros((info.order, info.order),
                                                dtype=dtype)

                def zero_fill(fids=tuple(fids)) -> None:
                    for fid in fids:
                        buffers[fid].data[...] = 0.0

                with rec:
                    _assemble_level(device, a_csr, symb, fids, buffers)
                assemble_steps = rec.take()

                s_vec, u_vec, f11, f12, f21, f22 = _make_block_batches(
                    device, symb, fids, buffers)
                with rec:
                    piv = irr_getrf(device, f11, nb=nb,
                                    laswp_variant=laswp_variant,
                                    pivot_tol=pivot_tol,
                                    static_pivot=static_pivot,
                                    replace_scale=replace_scale,
                                    engine=eng)
                getrf_steps = rec.take()
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

                with rec:
                    _level_offdiag(device, symb, fids, s_vec, u_vec,
                                   f11, f12, f21, f22, piv, gemm_mode,
                                   hybrid_cutoff, engine=eng)
                offdiag_steps = rec.take()

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
    except Exception:
        for arr in buffers.values():
            arr.free()
        device._release(a_dev_bytes)
        raise

    diag_of: dict[int, tuple] = {}
    pivots_of: dict[int, np.ndarray] = {}
    for fids, piv in level_diags:
        _record_level_diag(diag_of, fids, piv)
        for fid, ip in zip(fids, piv.ipiv):
            pivots_of[fid] = ip

    program = None
    if ok:
        program = FactorProgram(
            device, symb, a_csr, a_dev_bytes, buffers,
            _fuse_steps(steps) if fuse else steps, level_diags, policy,
            eng)
    try:
        result = _download_result(
            device, symb, buffers, pivots_of, diag_of, region, mark,
            pivot_tol=pivot_tol, static_pivot=static_pivot,
            replace_scale=replace_scale, breakdown=breakdown,
            counters_extra={"compiled": 1})
    finally:
        if not ok:
            # rehearsal broke down: no replayable schedule, release the
            # would-be persistent state (after the downloads above)
            for arr in buffers.values():
                arr.free()
            device._release(a_dev_bytes)
    return program, result

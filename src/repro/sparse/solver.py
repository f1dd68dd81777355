"""SparseLU — the top-level sparse direct solver (§III-A).

Wraps the three phases the paper describes:

1. *Reordering and symbolic analysis* — optional MC64 static pivoting
   (row permutation + scalings), nested-dissection fill reduction, and
   the frontal symbolic factorization.
2. *Numerical factorization* — on the CPU reference path or on a
   simulated GPU with any of the kernel strategies (the paper's batched
   irr kernels, the naive vendor loop, the STRUMPACK-like or
   SuperLU-like models).
3. *Solve* — forward/backward substitution through the assembly tree,
   plus optional iterative refinement (§V-B solves "to machine precision
   after a single step of iterative refinement").

Example
-------
>>> solver = SparseLU(A, use_mc64=True)
>>> solver.analyze()
>>> solver.factor(device=Device(A100()), backend="batched")
>>> x, info = solver.solve(b, refine_steps=1)
"""

from __future__ import annotations

import threading
import weakref
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..batched.engine import BatchEngine, resolve_engine
from ..device.memory import DeviceOutOfMemory, validate_memory_budget
from ..device.simulator import Device
from ..errors import FactorizationError, KernelLaunchError, \
    PrecisionFallback, ResourceExhausted, TransferError
from ..recovery import RecoveryLog
from .baselines import superlu_like_factor
from .numeric.cpu_factor import multifrontal_factor_cpu
from .numeric.gpu_factor import GpuFactorResult, multifrontal_factor_gpu
from .numeric.factors import MultifrontalFactors
from .numeric.gpu_solve import multifrontal_solve_gpu
from .numeric.report import FactorReport, check_factors_ok
from .numeric.shard import multifrontal_factor_sharded
from .numeric.solve_plan import DeviceFactorCache, SolvePlan
from .numeric.triangular import multifrontal_solve
from .ordering.mc64 import mc64
from .ordering.nested_dissection import DEFAULT_LEAF_SIZE, nested_dissection
from .symbolic.analysis import symbolic_analysis

__all__ = ["SparseLU", "SolveInfo"]

_BACKENDS = ("cpu", "batched", "looped", "strumpack", "superlu", "sharded")

#: Refinement steps a perturbed factorization is escalated to, and the
#: backward error the escalated steps must reach (≈ eps^{3/4}).
ESCALATED_REFINE_STEPS = 8
REFINE_TARGET = 1e-12

#: GMRES-IR escalation bounds: Krylov dimension per cycle and bounded
#: restarts before a stagnating reduced-precision solve takes the FP64
#: fallback.  Flexible right-preconditioned GMRES with the cheap factors
#: as the preconditioner recovers systems whose condition number defeats
#: plain FP32-corrected refinement (κ ≳ 1/eps32) but not FP64 itself.
GMRES_RESTART = 16
GMRES_MAX_RESTARTS = 3

#: Plain refinement is declared stagnant (and GMRES-IR takes over) when
#: one step shrinks the backward error by less than this factor.
_STAGNATION_RATIO = 0.25

#: Reduced working precision of each native dtype (``precision="fp32"``).
_REDUCED_OF = {np.dtype(np.float64): np.dtype(np.float32),
               np.dtype(np.complex128): np.dtype(np.complex64)}


def check_rhs_shape(b: np.ndarray, n: int) -> None:
    """Refuse a right-hand side that is not 1-D or 2-D with ``n`` rows."""
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(
            f"rhs must have {n} rows (1-D or 2-D), got {b.shape}")


@dataclass
class SolveInfo:
    """Per-solve diagnostics: residual after each refinement step.

    ``escalated`` is set when the solve ran extra refinement steps
    because the factorization statically replaced pivots; ``report``
    carries the factorization's :class:`FactorReport` (``None`` for
    report-less baseline factors).

    ``recovery`` — set for device solves — is the
    :class:`~repro.recovery.RecoveryLog` slice of resilience actions
    taken during this solve (transfer retries, cache evictions, a
    ``host-fallback`` when the device path was abandoned); empty for a
    clean device solve, ``None`` for host-only solves (unless a
    host-side ``precision-fallback`` had to be recorded).

    Mixed precision: ``precision`` is the working precision the
    substitutions actually ran in (``"fp32"`` covers complex64),
    ``gmres_cycles`` counts GMRES-IR restart cycles the escalation
    spent, and ``fallback`` is set when the reduced-precision factors
    could not reach :data:`REFINE_TARGET` and the solve transparently
    re-factored in FP64.
    """

    residuals: list[float] = field(default_factory=list)
    escalated: bool = False
    report: FactorReport | None = None
    recovery: RecoveryLog | None = None
    precision: str = "fp64"
    fallback: bool = False
    gmres_cycles: int = 0

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("nan")


class _DeviceState:
    """What a handle holds for its solves: the factors — whose fronts a
    device factorization may still hold on the device — and the device
    solve state ``(device, memory_budget, SolvePlan, DeviceFactorCache)``.
    Kept apart from the handle so the handle's finalizer can release
    it."""

    __slots__ = ("factors", "solve")

    def __init__(self) -> None:
        self.factors = None
        self.solve: tuple | None = None

    def release(self) -> None:
        """Drop the cache's views, free the device-held fronts without
        downloading them, and forget both."""
        solve, self.solve = self.solve, None
        factors, self.factors = self.factors, None
        if solve is not None:
            solve[3].free(spill=False)
        if factors is not None:
            for front in factors.fronts:
                front.release()


class SparseLU:
    """Multifrontal sparse LU with selectable numeric backends.

    Device memory: a device factorization in one traversal
    (``backend="batched"``/``"looped"``/``"strumpack"``, no out-of-core
    split) with a clean report leaves its factored fronts on the device,
    where the handle's :class:`DeviceFactorCache` adopts them for device
    solves — no factor download, no re-upload.  Host copies are made
    lazily, through the device's charged D2H path:

    * a host or naive solve, or a solve on another device, downloads
      every front and frees its device buffer;
    * a solve-time ``memory_budget`` (or :meth:`rebudget`) downloads the
      levels it cannot keep, then frees them;
    * reading a block of :attr:`factors` directly downloads a host copy
      of that front and leaves the device buffer to the cache.

    What stays on the device is freed by :meth:`release` — called by
    :meth:`factor`, :meth:`update_values`, ``ServeSession.close`` and
    the handle's finalizer.
    """

    def __init__(self, a: sp.spmatrix, *, use_mc64: bool = False,
                 leaf_size: int = DEFAULT_LEAF_SIZE):
        a = sp.csr_matrix(a)
        if np.iscomplexobj(a.data):
            a = a.astype(np.complex128)
        else:
            a = a.astype(np.float64)
        if a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        self.a = a
        self.n = a.shape[0]
        self.use_mc64 = use_mc64
        self.leaf_size = leaf_size
        self._analyzed = False
        self._factored = False
        self.factor_result: GpuFactorResult | None = None
        self.factor_report: FactorReport | None = None
        self._hold = _DeviceState()
        weakref.finalize(self, self._hold.release)
        # One engine per phase for the handle's lifetime, so re-factors
        # and re-built solve plans reuse their DCWI plans.
        self._factor_engine = BatchEngine()
        self._solve_engine = BatchEngine()
        #: Working precision of the current factors ("fp64" or "fp32").
        self.precision = "fp64"
        self._work_dtype = self.a.dtype
        self._precision_fallback = True
        self._factor_call: tuple | None = None
        # Serializes device solves on this handle: two concurrent
        # solve() calls share one SolvePlan/DeviceFactorCache, and an
        # unsynchronized pair could interleave one call's cache eviction
        # with the other's upload (or free the cache out from under a
        # running sweep when budgets differ).  Host-only solves take it
        # only to bring the factors to the host (``_solve_factors``),
        # then read their own reference lock-free.
        self._solve_lock = threading.RLock()

    @property
    def factors(self):
        """The current :class:`MultifrontalFactors` (``None`` when
        un-factored); device-held fronts download on first read."""
        return self._hold.factors

    def release(self) -> None:
        """Free this handle's device memory and drop its factors.

        Device-held fronts are freed without a download and the solve
        plan and factor cache are dropped, so the handle is un-factored
        until the next :meth:`factor` (:attr:`factor_report` is kept).
        Blocks of previously returned factors that were never read can
        no longer be read; a solve already running keeps working on the
        factors it started with.  Idempotent.
        """
        with self._solve_lock:
            self._hold.release()
            self.factor_result = None
            self._factored = False

    def rebudget(self, device: Device,
                 memory_budget: int | None) -> None:
        """Apply a solve ``memory_budget`` on ``device`` now rather than
        at the next device solve there.

        The factor cache is rebuilt under the new budget: levels of
        adopted fronts that no longer fit are downloaded and freed, and
        uploaded levels that no longer fit are freed.  Nothing is
        uploaded.  A no-op unless the handle holds a device solve state
        on ``device``.
        """
        memory_budget = validate_memory_budget(memory_budget)
        with self._solve_lock:
            st = self._hold.solve
            if st is not None and st[0] is device:
                self._device_solve_state(device, memory_budget,
                                         self._solve_engine)

    # ------------------------------------------------------------------
    # phase 1
    # ------------------------------------------------------------------
    def analyze(self) -> "SparseLU":
        """Orderings, scalings and symbolic factorization."""
        a = self.a
        if self.use_mc64:
            self._mc64 = mc64(a.tocsc())
            a = self._mc64.apply(a)
        else:
            self._mc64 = None
        self.a_pre = a.tocsr()

        self.nd = nested_dissection(self.a_pre, leaf_size=self.leaf_size)
        self.a_perm = self.a_pre[self.nd.perm][:, self.nd.perm].tocsr()
        self.symb = symbolic_analysis(self.a_perm, self.nd)
        self._analyzed = True
        return self

    # ------------------------------------------------------------------
    # phase 2
    # ------------------------------------------------------------------
    def factor(self, *, backend: str = "cpu",
               device: Device | None = None,
               precision: str | None = None,
               precision_fallback: bool = True, **kw) -> "SparseLU":
        """Numerical factorization.

        ``backend="cpu"`` runs the reference path; the other backends
        (``"batched"``, ``"looped"``, ``"strumpack"``, ``"superlu"``)
        require a simulated ``device`` and record simulated timings in
        :attr:`factor_result`.  ``backend="sharded"`` factors across a
        multi-device :class:`~repro.device.node.Node` passed as
        ``device`` (subtrees on concurrent per-device timelines, Schur
        contributions over the node's modeled links — see
        :func:`~repro.sparse.numeric.shard.multifrontal_factor_sharded`);
        the factors are bitwise identical to ``backend="batched"`` on a
        single device, and :meth:`solve` works as usual (pass one of the
        node's member devices, or no device for the host path).

        ``precision="fp32"`` factors in the reduced working precision
        (float32, or complex64 for complex matrices): the permuted
        matrix is cast **once** and every assembly, panel, TRSM, GEMM
        and extend-add kernel of every backend runs in the working
        dtype — half the device bytes and twice the arithmetic peak of
        the FP64 path, and half-sized factors in the solve-phase
        :class:`DeviceFactorCache` (double the resident levels under a
        fixed ``memory_budget``).  :meth:`solve` then restores FP64
        accuracy by iterative refinement against the original
        double-precision matrix.  Pivot breakdown thresholds scale with
        the working precision's eps automatically (see
        ``PivotControl``).  If the reduced-precision factorization
        itself breaks down, the solver re-factors in FP64 — recording a
        ``precision-fallback`` in the recovery log — unless
        ``precision_fallback=False``, in which case a typed
        :class:`~repro.errors.PrecisionFallback` is raised.
        ``precision=None`` (default) or ``"fp64"`` keeps the native
        double-precision path, bit for bit.

        Breakdown policy keywords (``pivot_tol``, ``static_pivot``,
        ``replace_scale``, ``breakdown``) pass through to every backend.
        The resulting :class:`FactorReport` is kept in
        :attr:`factor_report` — also when the factorization *fails*: a
        raised :class:`~repro.errors.FactorizationError` still leaves
        the report behind for inspection, but the solver stays
        un-factored and any cached solve plan / device factor cache from
        a previous factorization is invalidated up front.
        """
        if not self._analyzed:
            self.analyze()
        if backend not in _BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"choose from {_BACKENDS}")
        if precision not in (None, "fp64", "fp32"):
            raise ValueError(f"unknown precision {precision!r}; "
                             f"choose 'fp32', 'fp64' or None")
        native = self.a_perm.dtype
        work = _REDUCED_OF[native] if precision == "fp32" else native
        # Invalidate eagerly: a failed re-factorization must not leave a
        # stale plan/cache (or stale factors) serving solves, and the old
        # fronts must be gone before the new traversal allocates.  The
        # release takes the solve lock, so a concurrent device solve
        # finishes its sweep first.
        self.release()
        self.factor_report = None
        self.precision = "fp32" if work != native else "fp64"
        self._work_dtype = work
        self._precision_fallback = bool(precision_fallback)
        self._factor_call = (backend, device, dict(kw))
        a_num = self.a_perm if work == native \
            else self.a_perm.astype(work)
        try:
            self._run_factor_backend(backend, device, a_num, **kw)
        except FactorizationError as exc:
            if work == native:
                self.factor_report = exc.report
                raise
            if not self._precision_fallback:
                self.factor_report = exc.report
                raise PrecisionFallback(
                    f"reduced-precision ({work}) factorization failed — "
                    f"{exc} — and precision_fallback=False forbids the "
                    f"FP64 re-factorization", exc.report) from exc
            hlog = self._log_precision_fallback(
                device, "SparseLU.factor",
                f"{type(exc).__name__}: {exc}")
            self.precision = "fp64"
            self._work_dtype = native
            try:
                self._run_factor_backend(backend, device, self.a_perm,
                                         **kw)
            except FactorizationError as exc2:
                self.factor_report = exc2.report
                raise
            report = getattr(self.factors, "report", None)
            if hlog is not None and report is not None \
                    and report.recovery is None:
                report.recovery = hlog
        self.factor_report = getattr(self.factors, "report", None)
        self._factored = True
        return self

    def _run_factor_backend(self, backend: str, device: Device | None,
                            a_num: sp.spmatrix, **kw) -> None:
        """Dispatch one backend over the working-precision matrix."""
        if backend == "cpu":
            self._hold.factors = multifrontal_factor_cpu(a_num, self.symb,
                                                         **kw)
            self.factor_result = None
            return
        if backend in ("sharded", "batched", "looped", "strumpack") \
                and kw.get("engine", "bucketed") == "bucketed":
            kw["engine"] = self._factor_engine
        if backend == "sharded":
            from ..device.node import Node
            if not isinstance(device, Node):
                raise ValueError(
                    "backend 'sharded' needs a multi-device Node "
                    "(repro.device.Node) as its device")
            res = multifrontal_factor_sharded(device, a_num, self.symb,
                                              **kw)
            self._hold.factors = res.factors
            self.factor_result = res
            return
        if device is None:
            raise ValueError(f"backend {backend!r} needs a device")
        if backend == "superlu":
            res = superlu_like_factor(device, a_num, self.symb, **kw)
        else:
            res = multifrontal_factor_gpu(device, a_num, self.symb,
                                          strategy=backend, keep_fronts=True,
                                          **kw)
        self._hold.factors = res.factors
        self.factor_result = res
        if any(f.device_front is not None for f in res.factors.fronts):
            # the solve cache adopts the fronts where the traversal left
            # them
            plan = SolvePlan(res.factors, engine=self._solve_engine)
            with self._solve_lock:
                self._hold.solve = (device, None, plan, DeviceFactorCache(
                    device, res.factors, plan))

    def _log_precision_fallback(self, device: Device | None, site: str,
                                detail: str) -> RecoveryLog | None:
        """Record a ``precision-fallback`` action — on the device's
        canonical log when one is involved, else on a local host log
        that is returned so the caller can attach it to its artifact."""
        if device is not None:
            device.recovery_log.record("precision-fallback", site=site,
                                       detail=detail)
            return None
        log = RecoveryLog()
        log.record("precision-fallback", site=site, detail=detail)
        return log

    def update_values(self, a_new: sp.spmatrix) -> "SparseLU":
        """Install new numeric values on the same sparsity structure.

        The orderings and symbolic analysis are value-independent, so
        they are kept; the solver drops back to un-factored and the next
        :meth:`factor` call re-factors the new values on the same
        assembly tree — the same-structure sweep (time stepping,
        frequency sweeps).  Raises :class:`ValueError` when the
        structure differs or MC64 scaling is enabled (its
        permutation/scalings are value-dependent).
        """
        if self.use_mc64:
            raise ValueError(
                "update_values requires use_mc64=False: the MC64 "
                "permutation and scalings depend on the matrix values")
        a = sp.csr_matrix(a_new)
        a = a.astype(np.complex128 if np.iscomplexobj(a.data)
                     else np.float64)
        a.sort_indices()
        self.a.sort_indices()
        if a.shape != self.a.shape or a.dtype != self.a.dtype \
                or not np.array_equal(a.indptr, self.a.indptr) \
                or not np.array_equal(a.indices, self.a.indices):
            raise ValueError(
                "update_values requires the same shape, dtype and "
                "sparsity structure as the original matrix")
        self.a = a
        if self._analyzed:
            self.a_pre = a
            self.a_perm = self.a_pre[self.nd.perm][:, self.nd.perm].tocsr()
        self.release()
        self.factor_report = None
        return self

    # ------------------------------------------------------------------
    # phase 3
    # ------------------------------------------------------------------
    def _device_solve_state(self, device: Device,
                            memory_budget: int | None,
                            engine) -> tuple[SolvePlan, DeviceFactorCache]:
        """Build (or reuse) the solve plan + device factor cache.

        The plan depends only on the factors, so one plan serves every
        device/budget; the cache is rebuilt (and its device memory
        freed) when the device or budget changes — on the same device
        the new cache adopts the fronts the old one held, on another
        device they are downloaded first.  ``factor()`` invalidates
        both.
        """
        st = self._hold.solve
        if st is not None and st[0] is device and st[1] == memory_budget:
            return st[2], st[3]
        plan = st[2] if st is not None else \
            SolvePlan(self.factors, engine=engine)
        if st is not None:
            self._hold.solve = None
            st[3].free(spill=st[0] is not device)
        cache = DeviceFactorCache(device, self.factors, plan,
                                  memory_budget=memory_budget)
        self._hold.solve = (device, memory_budget, plan, cache)
        return plan, cache

    @property
    def solve_plan(self) -> SolvePlan | None:
        """The cached :class:`SolvePlan` of the device solve state."""
        return self._hold.solve[2] if self._hold.solve else None

    @property
    def solve_cache(self) -> DeviceFactorCache | None:
        """The :class:`DeviceFactorCache` of the device solve state: the
        adopting cache right after a device factorization, else the
        cache of the last device solve."""
        return self._hold.solve[3] if self._hold.solve else None

    def _solve_factors(self, host_reads: bool) -> MultifrontalFactors:
        """The factors one solve call works on, taken under the lock.

        A call that reads host blocks (``host_reads``: a host or naive
        solve) first spills the fronts its cache adopted — download, then
        free — so a handle solved on the host keeps no device copy.
        Holding its own reference to host blocks, the call is then safe
        from a concurrent :meth:`release` (a re-factor starting).
        """
        with self._solve_lock:
            if not self._factored:
                raise RuntimeError("factor() must run before solve()")
            if host_reads and self._hold.solve is not None:
                self._hold.solve[3].free()
            return self.factors

    def _solve_once(self, factors: MultifrontalFactors, b: np.ndarray,
                    device: Device | None = None, *,
                    engine="bucketed", rhs_block: int | None = None,
                    plan: SolvePlan | None = None,
                    cache: DeviceFactorCache | None = None,
                    work_dtype=None) -> np.ndarray:
        """One substitution pass: undo scalings/permutations around the
        permuted multifrontal solve (on the host, or batched on a
        device).  ``work_dtype`` casts the permuted right-hand side down
        to the factors' reduced working precision just before the sweep
        (the MC64 scalings stay FP64), so a mixed-precision correction
        solve moves half the bytes end to end."""
        if self._mc64 is not None:
            c = self._mc64.dr * b if b.ndim == 1 else \
                self._mc64.dr[:, None] * b
            c = c[self._mc64.row_of_col]
        else:
            c = b
        cp = c[self.nd.perm]
        if work_dtype is not None:
            cp = cp.astype(work_dtype, copy=False)
        if device is not None:
            z = multifrontal_solve_gpu(device, factors, cp,
                                       engine=engine,
                                       plan=plan, cache=cache,
                                       rhs_block=rhs_block).x
        else:
            z = multifrontal_solve(factors, cp)
        y = np.empty_like(z)
        y[self.nd.perm] = z
        if self._mc64 is not None:
            y = self._mc64.dc * y if y.ndim == 1 else \
                self._mc64.dc[:, None] * y
        return y

    def _gmres_refine(self, b: np.ndarray, x0: np.ndarray,
                      substitute) -> tuple[np.ndarray, int]:
        """GMRES-IR escalation for stagnated mixed-precision refinement.

        Right-preconditioned restarted (F)GMRES per right-hand-side
        column: the reduced-precision factors serve as the
        preconditioner (one ``substitute`` sweep per inner iteration)
        while every vector operation — matvec against the original FP64
        matrix, modified Gram-Schmidt, the small Hessenberg least-squares
        — runs in FP64.  Bounded by :data:`GMRES_RESTART` inner
        iterations per cycle and :data:`GMRES_MAX_RESTARTS` cycles per
        column; returns the refined solution and the total number of
        restart cycles spent.  Convergence is *not* guaranteed — the
        caller checks the achieved backward error afterwards.
        """
        one_col = b.ndim == 1
        b2 = b.reshape(-1, 1) if one_col else b
        x2 = np.array(x0.reshape(-1, 1) if one_col else x0)
        n = b2.shape[0]
        tiny = np.finfo(np.float64).tiny
        cycles = 0
        for col in range(b2.shape[1]):
            bc = b2[:, col]
            norm_bc = float(np.linalg.norm(bc))
            target = REFINE_TARGET * (norm_bc if norm_bc else 1.0)
            xc = x2[:, col]
            for _ in range(GMRES_MAX_RESTARTS):
                r = bc - self.a @ xc
                beta = float(np.linalg.norm(r))
                if beta <= target:
                    break
                cycles += 1
                m = GMRES_RESTART
                V = np.zeros((n, m + 1), dtype=b2.dtype)
                Z = np.zeros((n, m), dtype=b2.dtype)
                H = np.zeros((m + 1, m), dtype=b2.dtype)
                e1 = np.zeros(m + 1, dtype=b2.dtype)
                e1[0] = beta
                V[:, 0] = r / beta
                y = np.zeros(0, dtype=b2.dtype)
                k = 0
                for j in range(m):
                    # flexible: keep the preconditioned vector so the
                    # update stays exact even though ``substitute`` is a
                    # reduced-precision (hence slightly varying) operator
                    Z[:, j] = np.asarray(substitute(V[:, j]),
                                         dtype=b2.dtype)
                    w = self.a @ Z[:, j]
                    for i in range(j + 1):
                        H[i, j] = np.vdot(V[:, i], w)
                        w = w - H[i, j] * V[:, i]
                    h = float(np.linalg.norm(w))
                    H[j + 1, j] = h
                    y, res, _, _ = np.linalg.lstsq(H[:j + 2, :j + 1],
                                                   e1[:j + 2], rcond=None)
                    k = j + 1
                    est = float(np.sqrt(res[0])) if res.size else \
                        float(np.linalg.norm(
                            e1[:j + 2] - H[:j + 2, :j + 1] @ y))
                    if est <= target or h < tiny:
                        break     # converged (or lucky breakdown)
                    V[:, j + 1] = w / h
                if y.size:
                    xc = xc + Z[:, :k] @ y
            x2[:, col] = xc
        return (x2[:, 0] if one_col else x2), cycles

    def solve(self, b: np.ndarray, *, refine_steps: int = 1,
              device: Device | None = None, engine="bucketed",
              memory_budget: int | None = None,
              rhs_block: int | None = None
              ) -> tuple[np.ndarray, SolveInfo]:
        """Solve ``A·x = b`` with optional iterative refinement.

        Pass ``device`` to run the substitution phase with the batched
        per-level GPU kernels instead of the host reference.  Device
        solves with the default ``engine="bucketed"`` build a
        :class:`SolvePlan` + :class:`DeviceFactorCache` on first use and
        reuse them for every later solve against the same factors —
        including the refinement passes of this call — so repeated
        solves pay no per-solve setup.  ``memory_budget`` bounds the
        cache's device bytes (``None`` = keep all factor levels
        resident); ``rhs_block`` blocks many-column ``b`` through the
        sweeps.  ``engine="naive"`` streams factors per solve (the
        bitwise-identical reference path).

        Resource recovery: when the device path exhausts its options —
        a :class:`~repro.errors.ResourceExhausted`, a persistent
        transfer/launch fault, or an OOM nothing could relieve — the
        solve falls back to the host substitution path for the rest of
        the call (refinement passes included), records a
        ``host-fallback`` in the device's recovery log, and still
        returns a correct solution.  ``info.recovery`` carries the log
        slice of every resilience action this call took.  A
        ``memory_budget`` that is not ``None`` or a positive integer, or
        a ``b`` that is not 1-D or 2-D with ``n`` rows, raises
        :class:`ValueError` up front.

        The right-hand side is promoted with ``np.result_type``: a
        complex ``b`` against a real ``A`` yields a complex solution
        (the imaginary part is never silently dropped).

        Breakdown handling: factors whose :class:`FactorReport` records
        an unrecovered pivot breakdown are refused with a
        :class:`~repro.errors.FactorizationError`.  When the
        factorization statically replaced pivots, refinement is
        auto-escalated to at least :data:`ESCALATED_REFINE_STEPS` steps
        (the extra steps stop early once the backward error reaches
        :data:`REFINE_TARGET`); if it still stagnates above the target —
        the perturbed factors do not define a usable solution — a
        :class:`~repro.errors.FactorizationError` is raised instead of
        returning a garbage ``x``.  Non-finite substitution output
        raises the same typed error, never silently returns NaN/Inf.

        Mixed precision: after ``factor(precision="fp32")`` each
        substitution sweep runs in the reduced working precision while
        the residuals, the solution accumulator and the refinement
        updates stay FP64 against the original matrix.  Refinement is
        always escalated; if it stagnates (successive residuals shrink
        by less than :data:`_STAGNATION_RATIO`) the solve switches to
        GMRES-IR-style bounded restarts (:meth:`_gmres_refine`).  If
        even that misses :data:`REFINE_TARGET`, the solver re-factors in
        FP64, records a ``precision-fallback`` recovery action and
        solves again (``info.fallback`` is set) — or raises
        :class:`~repro.errors.PrecisionFallback` when the handle was
        factored with ``precision_fallback=False``.  ``info.precision``
        always names the precision that produced the returned ``x``.
        """
        if not self._factored:
            raise RuntimeError("factor() must run before solve()")
        refine_steps = int(refine_steps)
        if refine_steps < 0:
            raise ValueError(
                f"refine_steps must be >= 0, got {refine_steps}")
        memory_budget = validate_memory_budget(memory_budget)
        eng = self._solve_engine if engine == "bucketed" \
            else resolve_engine(engine)
        host_reads = device is None or eng is None
        b = np.asarray(b)
        check_rhs_shape(b, self.n)
        b = b.astype(np.result_type(self.a.dtype, b.dtype), copy=False)
        # Device solves serialize on the handle (see ``_solve_lock``):
        # the shared plan / factor cache admit one logical solve at a
        # time, so a concurrent solve cannot interleave its cache
        # eviction with this one's upload.  Host-only solves read host
        # blocks of their own ``factors`` and run lock-free.
        with self._solve_lock if device is not None else nullcontext():
            factors = self._solve_factors(host_reads)
            check_factors_ok(factors, "solve")
            report = getattr(factors, "report", None)
            perturbed = report is not None and report.total_replaced > 0
            mark = device.recovery_log.mark() if device is not None else 0
            reduced = self.precision == "fp32"
            # The device is dropped for the rest of this call (all
            # remaining substitution passes included) the first time its
            # recovery options run dry — the host path is the ladder's
            # last rung.  ``work`` is the dtype the permuted rhs is cast
            # to before each sweep (None = native); plan/cache/report
            # are re-pointed when a precision fallback re-factors.
            state = {"factors": factors, "device": device,
                     "plan": None, "cache": None,
                     "work": _REDUCED_OF[b.dtype] if reduced else None,
                     "report": report}
            if device is not None and eng is not None:
                state["plan"], state["cache"] = \
                    self._device_solve_state(device, memory_budget, eng)

            def substitute(rhs):
                dev = state["device"]
                if dev is not None:
                    try:
                        y = self._solve_once(state["factors"], rhs, dev,
                                             engine=engine,
                                             rhs_block=rhs_block,
                                             plan=state["plan"],
                                             cache=state["cache"],
                                             work_dtype=state["work"])
                    except (ResourceExhausted, DeviceOutOfMemory,
                            TransferError, KernelLaunchError) as exc:
                        state["device"] = None
                        dev.recovery_log.record(
                            "host-fallback", site="SparseLU.solve",
                            detail=f"{type(exc).__name__}: {exc}")
                        y = self._solve_once(state["factors"], rhs, None,
                                             engine=engine,
                                             rhs_block=rhs_block,
                                             work_dtype=state["work"])
                else:
                    y = self._solve_once(state["factors"], rhs, None,
                                         engine=engine,
                                         rhs_block=rhs_block,
                                         work_dtype=state["work"])
                if not np.all(np.isfinite(y)):
                    raise FactorizationError(
                        "substitution produced non-finite values — the "
                        "factors are numerically unusable; re-factor with "
                        "static_pivot=True (or MC64 scaling)",
                        state["report"])
                return y

            info = SolveInfo(report=report,
                             precision="fp32" if reduced else "fp64")
            norm_b = float(np.linalg.norm(b))
            denom = norm_b if norm_b else 1.0

            def resid(xv):
                return float(np.linalg.norm(b - self.a @ xv) / denom)

            def run_ladder(reduced_now):
                """Direct solve + bounded plain refinement.  Residuals
                are always computed against the FP64 matrix; a reduced
                solve accumulates its corrections in FP64 and always
                escalates (the cheap factors *need* refinement)."""
                x = substitute(b)
                if reduced_now:
                    x = x.astype(b.dtype, copy=False)
                info.residuals.append(resid(x))
                max_steps = max(refine_steps, ESCALATED_REFINE_STEPS) \
                    if (perturbed or reduced_now) else refine_steps
                for step in range(max_steps):
                    if step >= refine_steps and \
                            info.residuals[-1] <= REFINE_TARGET:
                        break
                    if reduced_now and len(info.residuals) >= 2 and \
                            info.residuals[-1] > REFINE_TARGET and \
                            info.residuals[-1] > _STAGNATION_RATIO * \
                            info.residuals[-2]:
                        break     # stagnant — hand over to GMRES-IR
                    if step >= refine_steps:
                        info.escalated = True
                    r = b - self.a @ x
                    x = x + substitute(r)
                    info.residuals.append(resid(x))
                return x

            x = None
            failure = None
            host_log = None
            try:
                x = run_ladder(reduced)
            except FactorizationError as exc:
                if not reduced:
                    raise
                failure = exc

            if reduced:
                if failure is None and info.residuals[-1] > REFINE_TARGET:
                    # plain refinement stagnated above the target:
                    # GMRES-IR-style bounded restarts, preconditioned by
                    # the same cheap factors
                    try:
                        x, cycles = self._gmres_refine(b, x, substitute)
                        info.gmres_cycles = cycles
                        if cycles:
                            info.escalated = True
                        info.residuals.append(resid(x))
                    except FactorizationError as exc:
                        failure = exc
                if failure is not None \
                        or info.residuals[-1] > REFINE_TARGET:
                    achieved = info.residuals[-1] if info.residuals \
                        else float("nan")
                    if not self._precision_fallback:
                        if device is not None:
                            info.recovery = device.recovery_log.since(mark)
                        err = PrecisionFallback(
                            f"mixed-precision solve reached backward "
                            f"error {achieved:.3e} (target "
                            f"{REFINE_TARGET:g}) and "
                            f"precision_fallback=False forbids the FP64 "
                            f"re-factorization", report,
                            achieved=achieved, target=REFINE_TARGET)
                        if failure is not None:
                            raise err from failure
                        raise err
                    detail = (f"backward error {achieved:.3e} > target "
                              f"{REFINE_TARGET:g}")
                    if failure is not None:
                        detail = f"{type(failure).__name__}: {failure}"
                    host_log = self._log_precision_fallback(
                        device, "SparseLU.solve", detail)
                    backend_f, device_f, kw_f = self._factor_call
                    self.factor(backend=backend_f, device=device_f,
                                precision="fp64", **kw_f)
                    state["factors"] = self._solve_factors(host_reads)
                    check_factors_ok(state["factors"], "solve")
                    report = getattr(state["factors"], "report", None)
                    perturbed = report is not None \
                        and report.total_replaced > 0
                    state["report"] = report
                    state["work"] = None
                    state["device"] = device
                    state["plan"] = state["cache"] = None
                    if device is not None and eng is not None:
                        state["plan"], state["cache"] = \
                            self._device_solve_state(device,
                                                     memory_budget, eng)
                    info.report = report
                    info.fallback = True
                    info.precision = "fp64"
                    x = run_ladder(False)

            if perturbed and info.residuals[-1] > REFINE_TARGET:
                raise FactorizationError(
                    f"iterative refinement stagnated at backward error "
                    f"{info.residuals[-1]:.3e} (target {REFINE_TARGET:g}) "
                    f"after {len(info.residuals) - 1} step(s) on a "
                    f"factorization with {report.total_replaced} "
                    f"statically replaced pivot(s) — the matrix is "
                    f"singular or too ill-conditioned for static-pivot "
                    f"recovery", report)
            if device is not None:
                info.recovery = device.recovery_log.since(mark)
            elif host_log is not None:
                info.recovery = host_log
            return x, info

"""GPU multifrontal factorization: level-by-level batched fronts (§III-A).

"Our GPU implementation traverses the tree level-by-level, from leaves to
root, using batch algorithms for the dense linear algebra operations (LU,
triangular solve and matrix multiplication) for all fronts on a given
level."

Every level runs the same computation — assembly, LU of F11, pivot
application to F12, two TRSMs, the Schur GEMM — at one of three launch
granularities, the rows of one launch table (:data:`_STRATEGIES`):

* ``"batched"`` — the paper's contribution: per level, one assembly
  kernel, then irrLU on the pivot blocks, one pivot-application kernel,
  two irrTRSMs and the Schur irrGEMM.  ``gemm_mode`` selects pure
  irrGEMM, a pure vendor-GEMM loop, or the paper's hybrid (irrGEMM for
  fronts ≤ 256, cuBLAS-style loop above — Fig 14).
* ``"looped"`` — the naive comparator: cuSOLVER/cuBLAS called in a loop
  over the fronts of each level.
* ``"strumpack"`` — the STRUMPACK v6.3.1 model: a naive batched kernel
  restricted to pivot blocks ≤ 32×32 (unblocked column-wise, a launch per
  elementary operation), a looped vendor path above, and a stream
  synchronization after every operation — the launch/sync profile
  Table I quotes.

Per-front pointer views (the F11/F12/F21/F22 blocks) are set up *once per
level* on the host, which is exactly what the expanded interface makes
cheap; no pointer-arithmetic kernels run on the device.

Every device factorization — this module's, the sharded one
(:mod:`.shard`) and the SPD variant (:mod:`repro.sparse.cholesky`) —
walks the tree through one exception-safe traversal (:func:`_traverse`)
of level transactions (:func:`_run_level`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp

from ...batched.engine import resolve_engine
from ...batched.gemm import irr_gemm
from ...batched.getrf import irr_getrf
from ...batched.interface import IrrBatch
from ...batched.trsm import TRSM_BASE_NB, irr_trsm
from ...batched.vendor import vendor_gemm, vendor_getrf, vendor_trsm
from ...device.kernel import KernelCost
from ...device.memory import DeviceArray, DeviceOutOfMemory, \
    validate_memory_budget
from ...device.simulator import Device
from ...errors import CorruptionDetected, FactorizationError, \
    KernelLaunchError, ResourceExhausted
from ..symbolic.analysis import SymbolicFactorization
from .factors import FrontFactors, MultifrontalFactors, check_gathered, \
    gather_front, spill_fronts
from .report import FactorReport

__all__ = ["multifrontal_factor_gpu", "GpuFactorResult", "plan_traversals",
           "HYBRID_GEMM_CUTOFF", "STRUMPACK_BATCH_LIMIT"]

HYBRID_GEMM_CUTOFF = 256   # Fig 14: irrGEMM below, vendor loop above
STRUMPACK_BATCH_LIMIT = 32

#: Bounded retries of one level transaction after a kernel-launch
#: failure before the failure is treated as persistent.
_MAX_LEVEL_RETRIES = 3
#: Bounded halvings of the out-of-core traversal budget after a dynamic
#: device OOM before the device path is declared exhausted.
_MAX_CHUNK_SHRINKS = 4


@dataclass(frozen=True)
class _Launches:
    """How one strategy launches a level.  Fronts with ``sep_size <=
    batch_limit`` run as one batch — irrLU (``getrf`` settings), pivot
    application, two irrTRSMs, the Schur update (``schur=None``: the
    caller's ``gemm_mode``) — on the caller's engine if ``engine``, else
    the reference loops (the irrLU on :func:`irr_getrf`'s default
    engine); the rest take the per-front vendor path.
    ``sync``: synchronize after every batch operation and vendor front.
    """

    batch_limit: float
    getrf: dict = field(default_factory=dict)
    trsm_nb: int = TRSM_BASE_NB
    trsm_names: tuple[str, str] = ("irrtrsm", "irrtrsm")
    schur: str | None = "irr"
    engine: bool = False
    sync: bool = False


_STRATEGIES = {
    "batched": _Launches(
        batch_limit=math.inf, getrf=dict(nb=32, laswp_variant="rehearsed"),
        trsm_names=("irrtrsm:f12", "irrtrsm:f21"), schur=None,
        engine=True),
    "looped": _Launches(batch_limit=-1),
    # the naive batch kernel: unblocked, column-wise, a launch per
    # elementary operation (this is what "naive" costs)
    "strumpack": _Launches(
        batch_limit=STRUMPACK_BATCH_LIMIT,
        getrf=dict(nb=8, panel="columnwise", laswp_variant="looped"),
        trsm_nb=8, sync=True),
}

@dataclass(frozen=True)
class FactorPolicy:
    """A factorization's launch strategy, Schur GEMM mode, pivot policy
    and ``breakdown`` mode (raise or report an unrecovered breakdown),
    validated on construction."""

    strategy: str = "batched"
    gemm_mode: str = "hybrid"
    pivot_tol: float = 0.0
    static_pivot: bool = False
    replace_scale: float | None = None
    breakdown: str = "raise"

    def __post_init__(self):
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.gemm_mode not in ("irr", "vendor", "hybrid"):
            raise ValueError(f"unknown gemm_mode {self.gemm_mode!r}")
        if self.breakdown not in ("raise", "report"):
            raise ValueError(f"unknown breakdown mode {self.breakdown!r}")

    @property
    def pivot_kw(self) -> dict:
        return dict(pivot_tol=self.pivot_tol, static_pivot=self.static_pivot,
                    replace_scale=self.replace_scale)


@dataclass
class GpuFactorResult:
    """Factors plus the simulated performance of the factorization.

    ``report`` is the per-front pivot-breakdown
    :class:`~repro.sparse.numeric.report.FactorReport` (also attached to
    ``factors.report``); ``breakdown`` is the *performance* breakdown by
    kernel prefix, unrelated to pivot breakdown.
    """

    factors: MultifrontalFactors
    elapsed: float
    counters: dict = field(default_factory=dict)
    breakdown: dict = field(default_factory=dict)
    report: "FactorReport | None" = None


@dataclass
class _FrontStore:
    """Per-front host state of the traversals over one tree: pivots,
    ``(info, n_replaced, min_pivot, growth)`` diagnostics, Schur blocks
    crossing a traversal boundary, downloaded factors and the nonzero A
    entries each front gathered (keyed by front, so retried and split
    levels never count twice)."""

    pivots: dict = field(default_factory=dict)
    diags: dict = field(default_factory=dict)
    schur: dict = field(default_factory=dict)
    factors: dict = field(default_factory=dict)
    gathered: dict = field(default_factory=dict)


def multifrontal_factor_gpu(device: Device, a_perm: sp.spmatrix,
                            symb: SymbolicFactorization, *,
                            strategy: str = "batched",
                            gemm_mode: str = "hybrid",
                            memory_budget: int | None = None,
                            pivot_tol: float = 0.0,
                            static_pivot: bool = False,
                            replace_scale: float | None = None,
                            breakdown: str = "raise",
                            engine="bucketed",
                            host_fallback: bool = True,
                            keep_fronts: bool = False) -> GpuFactorResult:
    """Factor the permuted sparse matrix on the simulated device.

    ``engine`` selects the host execution path for the batched kernels
    (``"bucketed"`` default / ``"naive"``, see
    :mod:`repro.batched.engine`).  One :class:`BatchEngine` is shared by
    every level of the traversal, so levels with matching front-size
    vectors reuse each other's DCWI plans.  Same-level fronts are highly
    shape-clustered, which is exactly the case shape bucketing rewards.
    The strategies that *model* naive implementations (``"looped"``,
    ``"strumpack"``) always run their reference loops.

    ``memory_budget`` (bytes) enables the paper's §III-A out-of-core
    mode: "if the entire assembly tree does not fit in the device memory,
    then the factorization is split in multiple traversals of subtrees
    that do fit on the device".  Fronts are processed in postorder chunks
    whose working set fits the budget; finished chunks stream their
    factors (and the Schur complements crossing the chunk boundary) back
    to the host, and those Schur blocks are re-uploaded when their parent
    front is assembled.  Raises :class:`DeviceOutOfMemory` if a single
    front cannot fit (a *static* infeasibility — checked eagerly, never
    entering the recovery ladder below).

    Resource recovery: a *dynamic* failure during the traversal — a
    transient allocation failure, a rejected kernel launch, or an OOM
    from the traversal's working set — is retried through a bounded
    ladder: the failing level transaction re-runs from consistent
    inputs, its front batch is split into sub-batches, the traversal
    budget is shrunk (down to the largest-front floor) and the
    factorization restarted, and finally — with ``host_fallback=True``
    (default) — the host path takes over.  Every action is recorded in
    the device's recovery log; the slice belonging to this call is
    attached as ``report.recovery``.  Recovered runs produce factors
    bitwise identical to a fault-free run (host fallback preserves the
    math but not the batched kernels' operation order).  With
    ``host_fallback=False`` an exhausted ladder raises a typed
    :class:`~repro.errors.ResourceExhausted` carrying that log.

    ``pivot_tol``/``static_pivot``/``replace_scale`` set the pivot
    breakdown policy of the batched LU (see
    :func:`~repro.batched.getrf.irr_getrf`); every front's
    ``(info, n_replaced, min_pivot, growth)`` diagnostics are aggregated
    into the result's :class:`FactorReport`.  A front whose pivot block
    broke down un-recovered is *quarantined* — its F12/F21 factors and
    Schur complement are zeroed so the extend-add never consumes
    Inf/NaN — and with ``breakdown="raise"`` (default) a typed
    :class:`~repro.errors.FactorizationError` carrying the report is
    raised once the traversal completes; ``breakdown="report"`` returns
    the quarantined factors with ``report.ok == False``.

    A matrix with nonzero entries outside the fronts of ``symb`` (e.g.
    one not permuted the way the analysis was) raises
    :class:`~repro.errors.PatternMismatch`.

    The factors come back on the host: every front is downloaded and its
    device buffer freed.  ``keep_fronts=True`` instead leaves a clean
    (``report.ok``), single-traversal factorization's fronts where the
    traversal left them: each :class:`FrontFactors` owns its device
    buffer (``device_front``) and downloads it only when its blocks are
    read, and the caller must :meth:`~FrontFactors.release` them —
    :class:`~repro.sparse.solver.SparseLU` hands them to its
    :class:`~repro.sparse.numeric.solve_plan.DeviceFactorCache`.
    """
    policy = FactorPolicy(strategy, gemm_mode, pivot_tol, static_pivot,
                          replace_scale, breakdown)
    memory_budget = validate_memory_budget(memory_budget)
    a_perm = sp.csr_matrix(a_perm)
    if a_perm.shape[0] != symb.n:
        raise ValueError("matrix size does not match the symbolic analysis")

    engine = resolve_engine(engine)
    mark = device.recovery_log.mark()

    # Static infeasibility ("largest front needs X bytes") is a contract
    # violation of the requested budget: it raises eagerly, before any
    # recovery is attempted.  The ladder below only shrinks the budget
    # down to the largest-front floor, so the static raise cannot recur.
    itemsize = a_perm.dtype.itemsize
    plan_traversals(symb, memory_budget, itemsize=itemsize)
    floor = max((itemsize * f.order ** 2 for f in symb.fronts), default=0)

    budget = memory_budget
    store = region = failure = None
    n_chunks = 0
    for _round in range(_MAX_CHUNK_SHRINKS + 1):
        try:
            store, region, n_chunks = _attempt_factorization(
                device, a_perm, symb, budget, policy, engine)
            break
        except KernelLaunchError as exc:
            failure = exc       # already retried per level: persistent,
            break               # and a smaller budget cannot fix it
        except DeviceOutOfMemory as exc:
            failure = exc
            if _round >= _MAX_CHUNK_SHRINKS:
                break           # no retry follows: don't log a shrink
            prev = budget if budget is not None \
                else int(device.spec.memory_capacity)
            smaller = max(floor, prev // 2)
            if floor <= 0 or smaller >= prev:
                break           # already at the largest-front floor
            device.recovery_log.record(
                "chunk-shrink", site="gpu_factor",
                detail=f"traversal budget {prev} -> {smaller} bytes")
            if engine is not None:
                engine.clear_plan_caches()
            budget = smaller

    if store is None:
        recovery = device.recovery_log.since(mark)
        if host_fallback:
            device.recovery_log.record(
                "host-fallback", site="gpu_factor",
                detail=f"{type(failure).__name__}: {failure}")
            return _host_fallback_result(device, a_perm, symb, mark, policy)
        raise ResourceExhausted(
            f"device factorization failed after exhausting its recovery "
            f"options ({recovery.summary()})", log=recovery) from failure

    try:
        check_gathered(a_perm, sum(store.gathered.values()))
        # Unless kept, the fronts come back on the host now — broken
        # factors always do — before the report, so its recovery slice
        # holds the downloads' transfer retries.
        if not (keep_fronts and all(f.info == 0
                                    for f in store.factors.values())):
            spill_fronts(store.factors.values())
        return _package_result(device, symb, store.factors, region, mark,
                               policy, traversals=n_chunks)
    except BaseException:
        for front in store.factors.values():
            front.release()
        raise


def _flush_fronts(symb, fids, buffers, store: _FrontStore, *,
                  download: bool = True) -> None:
    """Hand finished fronts from ``buffers`` to ``store.factors``: their
    pivots and diagnostics (a front with no pivot block has none), and
    each front's device buffer, owned from then on by its
    :class:`FrontFactors`.  ``download`` streams them back to the host
    now — their factors, plus the Schur blocks a parent outside ``fids``
    still has to assemble — and frees the buffers."""
    fid_set = set(fids)
    for fid in fids:
        info = symb.fronts[fid]
        s = info.sep_size
        d_info, d_rep, d_minp, d_growth = \
            store.diags.get(fid) or (0, 0, np.inf, 1.0)
        front = FrontFactors(
            ipiv=store.pivots.get(fid), info=d_info, n_replaced=d_rep,
            min_pivot=d_minp, growth=d_growth,
            device_front=buffers[fid], sep_size=s)
        if download:
            data = front.download()
            if info.parent >= 0 and info.parent not in fid_set \
                    and info.upd_size:
                store.schur[fid] = data[s:, s:].copy()
            front.release()
        store.factors[fid] = front
        del buffers[fid]


def _factor_report(symb, fronts: list, policy: FactorPolicy,
                   recovery=None) -> MultifrontalFactors:
    """Assemble the host factors and their :class:`FactorReport`;
    ``breakdown="raise"`` raises on an unrecovered pivot breakdown."""
    out = MultifrontalFactors(symb=symb, fronts=fronts)
    out.report = FactorReport.from_factors(out, **policy.pivot_kw)
    out.report.recovery = recovery
    if policy.breakdown == "raise" and not out.report.ok:
        raise FactorizationError(out.report.summary(), out.report)
    return out


def _package_result(device, symb, host_factors, region, mark,
                    policy: FactorPolicy, *, traversals) -> GpuFactorResult:
    """The report tail of a single-device factorization."""
    out = _factor_report(
        symb, [host_factors[fid] for fid in range(len(symb.fronts))],
        policy, device.recovery_log.since(mark))
    counters = {k: region[k] for k in region if k != "elapsed"}
    counters["traversals"] = traversals
    return GpuFactorResult(factors=out, elapsed=region["elapsed"],
                           counters=counters,
                           breakdown=device.profiler.by_prefix(),
                           report=out.report)


def _attempt_factorization(device, a_perm, symb, memory_budget,
                           policy: FactorPolicy, engine) -> tuple:
    """One full traversal under a given budget; exception-safe accounting.

    Any failure releases every device allocation this attempt made (the
    uploaded A, live front buffers) before propagating, so a failed
    attempt leaves ``device.allocated_bytes`` exactly where it started.
    A single traversal leaves its fronts on the device, owned by
    ``store.factors``; the caller downloads or keeps them.
    """
    chunks = plan_traversals(symb, memory_budget,
                             itemsize=a_perm.dtype.itemsize)
    store = _FrontStore()
    a_dev_bytes = _csr_bytes(a_perm)
    # Upload the sparse matrix (outside the timed factorization region,
    # as a solver would hold A on the device already).
    device._claim(a_dev_bytes, site="gpu_factor:a_csr")
    try:
        device._account_transfer(a_dev_bytes)
        region = _traverse(device, a_perm, symb, chunks,
                           partial(_level_step, policy=policy,
                                   engine=engine), store, keep=True)
        return store, region, len(chunks)
    finally:
        device._release(a_dev_bytes)


def _csr_bytes(a: sp.csr_matrix) -> int:
    """Device bytes of an uploaded CSR matrix."""
    return a.data.nbytes + a.indices.nbytes + a.indptr.nbytes


def _traverse(device, a_perm, symb, chunks, step, store, *,
              keep: bool = False) -> dict:
    """Factor ``chunks`` (postorder front lists, one traversal each)
    level by level in one timed region, which it returns.  Each level is
    a :func:`_run_level` transaction: allocate, assemble, then
    ``step(device, symb, fids, buffers, store)``.  Several chunks
    (out-of-core) stream each finished chunk to ``store`` inside the
    region; a single chunk stays resident, as for a solve phase, and
    downloads after it — or, with ``keep``, stays on the device, its
    buffers handed to ``store.factors``.  Frees every live front buffer
    on any exit.
    """
    buffers: dict[int, DeviceArray] = {}
    streaming = len(chunks) > 1
    try:
        with device.timed_region() as region:
            for chunk in chunks:
                for level_fids in _chunk_levels(symb, chunk):
                    _run_level(device, a_perm, symb, level_fids, buffers,
                               store, step)
                if streaming:
                    _flush_fronts(symb, chunk, buffers, store)
        if not streaming:
            _flush_fronts(symb, chunks[0], buffers, store,
                          download=not keep)
        return region
    finally:
        for arr in buffers.values():
            arr.free()


def _host_fallback_result(device, a_perm, symb, mark,
                          policy: FactorPolicy) -> GpuFactorResult:
    """Terminal rung of the recovery ladder: factor on the host.

    The result carries the same report/recovery surface as a device run
    so callers see one shape either way; simulated device timings are
    zero (no device work succeeded).
    """
    from .cpu_factor import multifrontal_factor_cpu
    try:
        factors = multifrontal_factor_cpu(a_perm, symb, **policy.pivot_kw,
                                          breakdown=policy.breakdown)
    except FactorizationError as exc:
        if exc.report is not None:
            exc.report.recovery = device.recovery_log.since(mark)
        raise
    factors.report.recovery = device.recovery_log.since(mark)
    return GpuFactorResult(factors=factors, elapsed=0.0,
                           counters={"traversals": 0, "host_fallback": 1},
                           breakdown={}, report=factors.report)


def plan_traversals(symb: SymbolicFactorization,
                    memory_budget: int | None, *,
                    itemsize: int = 8) -> list[list[int]]:
    """Split the postorder front sequence into device-sized traversals.

    Greedy: accumulate fronts (postorder, so children precede parents)
    while the chunk working set — its front buffers plus the
    cross-traversal child Schur blocks it must re-upload — fits the
    budget.  With ``memory_budget=None`` everything is one traversal.
    ``itemsize`` is the working precision's bytes per element (8 for
    FP64; FP32 factorizations fit twice the fronts per traversal).
    """
    n = len(symb.fronts)
    if memory_budget is None or n == 0:
        return [list(range(n))]

    front_bytes = [itemsize * f.order ** 2 for f in symb.fronts]
    biggest = max(front_bytes)
    if biggest > memory_budget:
        raise DeviceOutOfMemory(
            f"largest front needs {biggest} bytes but the traversal "
            f"budget is {memory_budget} bytes")

    chunks: list[list[int]] = []
    current: list[int] = []
    current_set: set[int] = set()
    current_bytes = 0
    for fid in range(n):
        need = front_bytes[fid]
        # children factored in an earlier traversal: their Schur blocks
        # come back through the budget during assembly
        for c in symb.fronts[fid].children:
            if c not in current_set:
                need += itemsize * symb.fronts[c].upd_size ** 2
        if current and current_bytes + need > memory_budget:
            chunks.append(current)
            current, current_set, current_bytes = [], set(), 0
            need = front_bytes[fid] + sum(
                itemsize * symb.fronts[c].upd_size ** 2
                for c in symb.fronts[fid].children)
        current.append(fid)
        current_set.add(fid)
        current_bytes += need
    if current:
        chunks.append(current)
    return chunks


def _chunk_levels(symb: SymbolicFactorization,
                  chunk: list[int]) -> list[list[int]]:
    """Group a traversal's fronts by tree level (deepest first)."""
    by_level: dict[int, list[int]] = {}
    for fid in chunk:
        by_level.setdefault(symb.fronts[fid].level, []).append(fid)
    return [by_level[lev] for lev in sorted(by_level, reverse=True)]


# ----------------------------------------------------------------------
# level transactions
# ----------------------------------------------------------------------

def _run_level(device, a_perm, symb, fids, buffers, store: _FrontStore,
               step) -> None:
    """Run one level as a transaction: bounded retries, then batch split.

    Level inputs are immutable while the level runs — children buffers
    are only read by the extend-add, and a consumed host Schur block is
    deleted only after the level commits — so a retry re-runs the level
    from identical state and produces bitwise-identical factors.  A
    failed attempt rolls back everything the level allocated or wrote.

    On a transient allocation failure the level is retried once (the
    fault layer's per-operation counters mean a transient rule passes on
    the retry); a second OOM splits the front batch into halves, which
    halves the engine's transient packing footprint (per-front numerics
    are batch-composition independent, the engines' bitwise contract).
    Kernel-launch failures are retried up to :data:`_MAX_LEVEL_RETRIES`
    times, then treated as persistent.

    Silent-data-corruption escalation: a :class:`CorruptionDetected`
    reaching this level means the ABFT layer's own bounded re-execution
    already failed (the corruption is persistent at kernel scope).  The
    level re-runs once from its immutable inputs (a different launch
    composition after the sub-batching below can dodge positional
    rules), then the front batch is split in halves to *isolate* the
    corrupted front — per-front numerics are batch-composition
    independent, so the clean half commits bitwise-identical factors —
    and a single front that stays corrupted is **quarantined**: zeroed
    factors, identity pivots and the ``info = -2`` corruption sentinel,
    so the damage surfaces in the :class:`FactorReport` as a typed
    per-front failure rather than silently wrong numbers.
    """
    launch_failures = alloc_failures = corrupt_failures = 0
    while True:
        try:
            consumed = _factor_level(device, a_perm, symb, fids,
                                     buffers, store, step)
        except CorruptionDetected as exc:
            _rollback_level(fids, buffers, store)
            corrupt_failures += 1
            if corrupt_failures < 2:
                device.recovery_log.record(
                    "kernel-reexec", site=f"level[{len(fids)} fronts]",
                    attempt=corrupt_failures, detail=str(exc))
                continue
            if len(fids) > 1:
                half = (len(fids) + 1) // 2
                device.recovery_log.record(
                    "level-split", site=f"level[{len(fids)} fronts]",
                    detail=f"corruption isolation: sub-batches of "
                           f"{half} and {len(fids) - half}")
                break
            _quarantine_corrupt_front(device, a_perm, symb, fids[0],
                                      buffers, store, exc)
            return
        except (DeviceOutOfMemory, KernelLaunchError) as exc:
            _rollback_level(fids, buffers, store)
            if isinstance(exc, KernelLaunchError):
                launch_failures += 1
                if launch_failures >= _MAX_LEVEL_RETRIES:
                    raise
                device.recovery_log.record(
                    "launch-retry", site=exc.kernel,
                    attempt=launch_failures, detail=str(exc))
                continue
            alloc_failures += 1
            if alloc_failures < 2:
                device.recovery_log.record(
                    "alloc-retry", site=f"level[{len(fids)} fronts]",
                    attempt=alloc_failures, detail=str(exc))
                continue
            if len(fids) <= 1:
                raise               # cannot split a single front
            half = (len(fids) + 1) // 2
            device.recovery_log.record(
                "level-split", site=f"level[{len(fids)} fronts]",
                detail=f"sub-batches of {half} and {len(fids) - half}")
            break
        else:
            # Commit: only now do consumed cross-traversal Schur blocks
            # leave the host store (they were needed for any retry).
            for c in consumed:
                store.schur.pop(c, None)
            return
    _run_level(device, a_perm, symb, fids[:half], buffers, store, step)
    _run_level(device, a_perm, symb, fids[half:], buffers, store, step)


#: ``info`` sentinel for a front quarantined after persistent silent
#: data corruption (negative so it can never collide with LAPACK's
#: 1-based breakdown-column codes).
CORRUPT_FRONT_INFO = -2


def _quarantine_corrupt_front(device, a_perm, symb, fid, buffers,
                              store: _FrontStore, exc) -> None:
    """Terminal corruption rung for one front: zero it out and flag it.

    The front's buffer is replaced by zeros (its Schur block then
    extend-adds nothing into the parent, keeping ancestors finite and
    *their* factors identical to a run where this front contributed a
    zero update), pivots become the identity, and the diagnostics carry
    :data:`CORRUPT_FRONT_INFO` so the aggregated
    :class:`FactorReport` reports the front as failed — the caller sees
    a typed per-front failure, never silently wrong factors.
    """
    info = symb.fronts[fid]
    buffers[fid] = device.zeros((info.order, info.order),
                                dtype=a_perm.dtype)
    store.pivots[fid] = np.arange(info.sep_size, dtype=np.int64)
    store.diags[fid] = (CORRUPT_FRONT_INFO, 0, 0.0, 1.0)
    device.recovery_log.record(
        "front-quarantine", site=f"front[{fid}]",
        detail=f"persistent corruption: {exc}")


def _rollback_level(fids, buffers, store: _FrontStore) -> None:
    """Undo a failed level attempt: free its buffers, drop its outputs."""
    for fid in fids:
        arr = buffers.pop(fid, None)
        if arr is not None:
            arr.free()
        store.pivots.pop(fid, None)
        store.diags.pop(fid, None)


def _factor_level(device, a_perm, symb, fids, buffers, store: _FrontStore,
                  step) -> list[int]:
    """Allocate and assemble the level's fronts, then run ``step``;
    returns the consumed cross-traversal Schur blocks."""
    for fid in fids:
        info = symb.fronts[fid]
        buffers[fid] = device.zeros((info.order, info.order),
                                    dtype=a_perm.dtype)
    consumed = _assemble_level(device, a_perm, symb, fids, buffers, store)
    step(device, symb, fids, buffers, store)
    return consumed


def _assemble_level(device, a_perm, symb, fids, buffers,
                    store: _FrontStore) -> list[int]:
    """One kernel: gather A entries + extend-add children Schur blocks.

    Children factored in an earlier traversal (out-of-core mode) have
    their Schur complements in ``store.schur``; those are re-uploaded
    first (H2D transfers the multi-traversal mode pays for) and used
    once.  Returns the consumed child ids — the *caller* deletes them
    from ``store.schur`` once the level commits, so a retried level can
    re-stage them.  Staged uploads are freed on any exit path.  Each
    front's count of gathered nonzero A entries goes to
    ``store.gathered``.
    """
    infos = [symb.fronts[f] for f in fids]

    staged: dict[int, DeviceArray] = {}

    def kernel() -> KernelCost:
        nbytes_r = 0.0
        nbytes_w = 0.0
        blocks = 0
        for fid, info in zip(fids, infos):
            F = buffers[fid].data
            idx = info.indices
            if info.order == 0:
                continue
            store.gathered[fid] = gather_front(a_perm, info, F)
            nbytes_w += F.nbytes
            if info.children:
                pos = {int(g): l for l, g in enumerate(idx)}
                for c in info.children:
                    cinfo = symb.fronts[c]
                    cs = cinfo.sep_size
                    if cinfo.upd_size == 0:
                        continue
                    if c in staged:
                        schur = staged[c].data
                    else:
                        schur = buffers[c].data[cs:, cs:]
                    loc = np.array([pos[int(g)] for g in cinfo.upd],
                                   dtype=np.int64)
                    F[np.ix_(loc, loc)] += schur
                    nbytes_r += schur.nbytes
            blocks += 1
        return KernelCost(bytes_read=nbytes_r, bytes_written=nbytes_w,
                          blocks=max(blocks, 1), threads_per_block=256,
                          kernel_class="swap", memory_ramp=0.4)

    try:
        if store.schur:
            for info in infos:
                for c in info.children:
                    if c in store.schur and c not in staged:
                        staged[c] = device.from_host(store.schur[c])
        device.launch("assemble:extend_add", kernel)
    finally:
        for arr in staged.values():
            arr.free()
    return list(staged)


def _make_block_batches(device, symb, fids, buffers):
    """Per-level pointer setup: view batches of F11/F12/F21/F22."""
    s_vec, u_vec = [], []
    v11, v12, v21, v22 = [], [], [], []
    for fid in fids:
        info = symb.fronts[fid]
        s, u = info.sep_size, info.upd_size
        arr = buffers[fid]
        s_vec.append(s)
        u_vec.append(u)
        v11.append(arr[:s, :s])
        v12.append(arr[:s, s:])
        v21.append(arr[s:, :s])
        v22.append(arr[s:, s:])
    s_vec = np.array(s_vec, dtype=np.int64)
    u_vec = np.array(u_vec, dtype=np.int64)
    f11 = IrrBatch(device, v11, s_vec, s_vec)
    f12 = IrrBatch(device, v12, s_vec, u_vec)
    f21 = IrrBatch(device, v21, u_vec, s_vec)
    f22 = IrrBatch(device, v22, u_vec, u_vec)
    return s_vec, u_vec, f11, f12, f21, f22


# ----------------------------------------------------------------------
# the level step
# ----------------------------------------------------------------------

def _level_step(device, symb, fids, buffers, store: _FrontStore, *,
                policy: FactorPolicy, engine) -> None:
    """Factor one assembled level at ``policy.strategy``'s launch
    granularity (its :data:`_STRATEGIES` row): the batched fronts, then
    the per-front vendor path.
    """
    row = _STRATEGIES[policy.strategy]
    sync = device.synchronize if row.sync else (lambda: None)
    eng = engine if row.engine else None
    batch = [f for f in fids if symb.fronts[f].sep_size <= row.batch_limit]
    if batch:
        s_vec, u_vec, f11, f12, f21, f22 = _make_block_batches(
            device, symb, batch, buffers)
        getrf_kw = dict(row.getrf, engine=eng) if row.engine else row.getrf
        piv = irr_getrf(device, f11, **getrf_kw, **policy.pivot_kw)
        sync()
        for i, fid in enumerate(batch):
            store.pivots[fid] = piv.ipiv[i]
            store.diags[fid] = (int(piv.info[i]), int(piv.n_replaced[i]),
                                float(piv.min_pivot[i]),
                                float(piv.growth[i]))
        _batch_offdiag(device, row, row.schur or policy.gemm_mode, eng,
                       sync, piv, s_vec, u_vec, f11, f12, f21, f22)
    for fid in fids:
        if symb.fronts[fid].sep_size > row.batch_limit:
            _vendor_front(device, symb.fronts[fid], buffers[fid], fid, store)
            sync()


def _batch_offdiag(device, row, gemm_mode, eng, sync, piv, s_vec, u_vec,
                   f11, f12, f21, f22) -> None:
    """Everything after the batched LU: breakdown gating, pivot
    application to F12, the two TRSMs and the Schur update."""
    if not (s_vec.max() and u_vec.max()):
        return
    # Gate broken-down fronts out of the off-diagonal updates: zero their
    # blocks, then run TRSM/GEMM on the clean survivors only.  piv.info
    # is bitwise identical between engines, so the gating (and every
    # downstream launch) is too.
    bad = np.nonzero(piv.info != 0)[0]
    ipiv = piv.ipiv
    if len(bad):
        _quarantine_blocks(device, [(f12.matrix(int(i)), f21.matrix(int(i)),
                                     f22.matrix(int(i))) for i in bad])
        sync()
        good = np.setdiff1d(np.arange(len(s_vec), dtype=np.int64), bad)
        s_vec, u_vec = s_vec[good], u_vec[good]
        f11, f12, f21, f22 = (_sub_batch(device, b, good)
                              for b in (f11, f12, f21, f22))
        ipiv = [ipiv[int(i)] for i in good]
        if not (len(good) and s_vec.max() and u_vec.max()):
            return
    smax, umax = int(s_vec.max()), int(u_vec.max())

    _apply_pivots_to_f12(device, f12, ipiv, engine=eng)
    sync()
    irr_trsm(device, "L", "L", "N", "U", smax, umax, 1.0,
             f11, (0, 0), f12, (0, 0), base_nb=row.trsm_nb,
             name=row.trsm_names[0], engine=eng)
    sync()
    irr_trsm(device, "R", "U", "N", "N", umax, smax, 1.0,
             f11, (0, 0), f21, (0, 0), base_nb=row.trsm_nb,
             name=row.trsm_names[1], engine=eng)
    sync()

    # Schur update: irrGEMM over the fronts at or below the mode's
    # cutoff, the vendor GEMM loop over the rest (Fig 14's hybrid; the
    # cutoff is read here so patching HYBRID_GEMM_CUTOFF moves it).
    cutoff = {"irr": math.inf, "vendor": -1,
              "hybrid": HYBRID_GEMM_CUTOFF}[gemm_mode]
    width = np.maximum(s_vec, u_vec)
    small = np.nonzero(width <= cutoff)[0]
    if len(small):
        irr_gemm(device, "N", "N",
                 int(u_vec[small].max()), int(u_vec[small].max()),
                 int(s_vec[small].max()), -1.0,
                 _sub_batch(device, f21, small), (0, 0),
                 _sub_batch(device, f12, small), (0, 0), 1.0,
                 _sub_batch(device, f22, small), (0, 0),
                 name="irrgemm:schur", engine=eng)
    for i in np.nonzero(width > cutoff)[0]:
        s, u = f12.local_dims(i)
        if s and u:
            vendor_gemm(device, "N", "N", -1.0, f21.arrays[i].data,
                        f12.arrays[i].data, 1.0, f22.arrays[i].data,
                        name="cublas_gemm:schur")
    sync()


def _vendor_front(device, info, arr: DeviceArray, fid,
                  store: _FrontStore) -> None:
    """cuSOLVER/cuBLAS calls for one front.

    The vendor model has no static-pivot mode (cuSOLVER does not), but
    its ``devInfo`` status is checked: a broken-down front is
    quarantined (F12/F21/F22 zeroed, off-diagonal updates skipped) and
    reported through its diagnostics instead of feeding garbage onward.
    """
    s, u = info.sep_size, info.upd_size
    if s == 0:
        store.pivots[fid] = np.empty(0, dtype=np.int64)
        return
    F = arr.data
    status = np.zeros(1, dtype=np.int64)
    ipiv = vendor_getrf(device, arr[:s, :s], info_out=status)
    store.pivots[fid] = ipiv
    store.diags[fid] = (int(status[0]), 0, np.inf, 1.0)
    if int(status[0]) != 0:
        if u:
            _quarantine_blocks(device, [(F[:s, s:], F[s:, :s], F[s:, s:])])
        return
    if u == 0:
        return

    def laswp() -> KernelCost:
        b = F[:s, s:]
        for r in range(s):
            p = int(ipiv[r])
            if p != r:
                b[[r, p], :] = b[[p, r], :]
        return KernelCost(bytes_read=b.nbytes, bytes_written=b.nbytes,
                          blocks=1, kernel_class="swap", memory_ramp=0.3)

    device.launch("laswp:f12", laswp)
    vendor_trsm(device, "L", "L", "N", "U", 1.0, F[:s, :s], F[:s, s:],
                name="cusolver_trsm:f12")
    vendor_trsm(device, "R", "U", "N", "N", 1.0, F[:s, :s], F[s:, :s],
                name="cusolver_trsm:f21")
    vendor_gemm(device, "N", "N", -1.0, F[s:, :s], F[:s, s:], 1.0,
                F[s:, s:], name="cublas_gemm:schur")


def _apply_pivots_to_f12(device, f12: IrrBatch, pivots: list[np.ndarray],
                         engine=None) -> None:
    """One kernel: gather-apply each front's pivot swaps to its F12 rows."""

    def kernel() -> KernelCost:
        if engine is not None:
            return engine.exec_apply_pivots_f12(f12, pivots)
        nbytes = 0.0
        blocks = 0
        for i in range(len(f12)):
            s, u = f12.local_dims(i)
            if s == 0 or u == 0:
                continue
            b = f12.arrays[i].data
            for r in range(len(pivots[i])):
                p = int(pivots[i][r])
                if p != r:
                    b[[r, p], :] = b[[p, r], :]
            nbytes += 2 * s * u * f12.itemsize
            blocks += 1
        return KernelCost(bytes_read=nbytes / 2, bytes_written=nbytes / 2,
                          blocks=max(blocks, 1), kernel_class="swap",
                          memory_ramp=0.4)

    device.launch("irrlaswp:f12", kernel)


def _sub_batch(device, b: IrrBatch, sel: np.ndarray) -> IrrBatch:
    """View sub-batch over the selected member indices."""
    return IrrBatch(device, [b.arrays[i] for i in sel],
                    b.m_vec[sel], b.n_vec[sel])


def _quarantine_blocks(device, fronts: list[tuple]) -> None:
    """One kernel: zero the F12/F21/F22 blocks of broken-down fronts.

    A front whose pivot block reported an unrecovered breakdown holds
    garbage in the columns at and beyond the breakdown; zeroing its
    off-diagonal factors and Schur block keeps the extend-add (and any
    later solve attempt) finite.  Engine-independent, so both engines
    emit the identical launch.
    """

    def kernel() -> KernelCost:
        nbytes = 0.0
        for views in fronts:
            for view in views:
                view[...] = 0.0
                nbytes += view.nbytes
        return KernelCost(bytes_written=nbytes, blocks=max(len(fronts), 1),
                          threads_per_block=256, kernel_class="swap",
                          memory_ramp=0.4)

    device.launch("breakdown:quarantine", kernel)

"""GPU triangular solve through the assembly tree (phase 3, batched).

The solve mirrors the factorization's batching: all fronts of a level are
handled with one kernel sequence — a pivot/gather kernel, a batched
triangular solve (:func:`~repro.batched.trsm.irr_trsm`) on the pivot
blocks, and a scatter-update kernel — instead of per-front launches.
Because the permuted numbering gives every front's separator a
*contiguous* index range, the per-front right-hand-side blocks are plain
views into the global solution vector; only the update sets need
gather/scatter.

Two host execution paths produce bitwise-identical solutions and
identical simulated launch records:

* ``engine="naive"`` — the reference: factors are streamed level-by-level
  (upload, use, free), pivots applied row-by-row, updates scattered
  front-by-front.
* ``engine="bucketed"`` (default) — a :class:`SolvePlan` precomputes the
  per-level gather/scatter index structure once and a
  :class:`DeviceFactorCache` keeps factor blocks device-resident across
  repeated solves; pass ``plan=``/``cache=`` (built by
  :class:`~repro.sparse.solver.SparseLU` or by hand) to amortize them,
  or omit them for a self-contained one-shot solve (which streams, so it
  leaves no device allocations behind).

``rhs_block`` caps how many right-hand-side columns flow through the
sweeps per pass — many-RHS solves trade one pass over the factors for
bounded per-level scratch, like a blocked LAPACK ``getrs``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...batched.engine import resolve_engine
from ...batched.interface import IrrBatch
from ...batched.trsm import irr_trsm
from ...device.kernel import KernelCost
from ...device.memory import DeviceOutOfMemory
from ...device.simulator import Device
from ...errors import ResourceExhausted
from ...recovery import RecoveryLog
from .factors import MultifrontalFactors
from .report import check_factors_ok
from .solve_plan import DeviceFactorCache, SolvePlan

__all__ = ["multifrontal_solve_gpu", "GpuSolveResult"]


@dataclass
class GpuSolveResult:
    """Solution plus the simulated performance of the solve.

    ``recovery`` holds the resilience actions (transfer retries, cache
    evictions) taken during this solve — empty for a clean run.
    """

    x: np.ndarray
    elapsed: float
    counters: dict
    recovery: RecoveryLog | None = None


def _upload_level(device: Device, factors: MultifrontalFactors,
                  fids: list[int], which: str) -> IrrBatch:
    """Upload one factor block (f11/f12/f21) of a level as a batch.

    Zero-sized blocks (a front with no update rows) allocate an empty
    device array without crossing the bus — nothing to transfer, so no
    PCIE latency is charged for them.
    """
    arrays = []
    m_vec, n_vec = [], []
    for fid in fids:
        block = getattr(factors.fronts[fid], which)
        arrays.append(device.from_host(block) if block.size else
                      device.empty(block.shape, dtype=block.dtype))
        m_vec.append(block.shape[0])
        n_vec.append(block.shape[1])
    return IrrBatch(device, arrays,
                    np.array(m_vec, dtype=np.int64),
                    np.array(n_vec, dtype=np.int64))


def _promote_rhs(factors: MultifrontalFactors,
                 b: np.ndarray) -> tuple[np.ndarray, bool]:
    """Copy ``b`` promoted against the factor dtype; report 1-D squeeze."""
    bh = np.array(b, dtype=np.result_type(np.asarray(b).dtype,
                                          factors.dtype), copy=True)
    squeeze = bh.ndim == 1
    if squeeze:
        bh = bh[:, None]
    if bh.shape[0] != factors.symb.n:
        raise ValueError(f"right-hand side has {bh.shape[0]} rows, "
                         f"expected {factors.symb.n}")
    return bh, squeeze


def _solve_naive(device: Device, factors: MultifrontalFactors,
                 bh: np.ndarray, stream) -> tuple:
    """Reference path: streamed factors, per-front pivot/update loops."""
    x_dev = device.from_host(bh)
    x = x_dev.data
    levels = factors.symb.levels()
    live: list = []     # streamed factor batches of the level in flight

    def stream_level(fids, which_a, which_b) -> tuple:
        """Upload a level's two factor batches, tracked for cleanup."""
        a = _upload_level(device, factors, fids, which_a)
        live.append(a)
        b = _upload_level(device, factors, fids, which_b)
        live.append(b)
        return a, b

    try:
        return _naive_sweeps(device, factors, x_dev, x, levels,
                             stream_level, live, stream)
    finally:
        # DeviceArray/IrrBatch frees are idempotent, so unwinding after
        # a mid-sweep failure releases exactly the still-live uploads.
        for batch in live:
            batch.free()
        x_dev.free()


def _naive_sweeps(device, factors, x_dev, x, levels, stream_level, live,
                  stream) -> tuple:
    symb = factors.symb
    nrhs = x.shape[1]
    itemsize = x.dtype.itemsize

    with device.timed_region() as region:
        # ---- forward sweep: y = L^{-1} (block-P) b, leaves -> root -----
        for fids in levels:
            fids = [f for f in fids if symb.fronts[f].sep_size > 0]
            if not fids:
                continue
            f11, f21 = stream_level(fids, "f11", "f21")
            rhs_views = [x_dev[symb.fronts[f].sep_begin:
                               symb.fronts[f].sep_end, :] for f in fids]
            rhs = IrrBatch(device, rhs_views,
                           f11.m_vec, np.full(len(fids), nrhs,
                                              dtype=np.int64))

            def apply_pivots(fids=fids) -> KernelCost:
                nbytes = 0.0
                for f in fids:
                    info = symb.fronts[f]
                    fac = factors.fronts[f]
                    blk = x[info.sep_begin:info.sep_end, :]
                    for r in range(info.sep_size):
                        p = int(fac.ipiv[r])
                        if p != r:
                            blk[[r, p], :] = blk[[p, r], :]
                            nbytes += 4 * nrhs * itemsize
                return KernelCost(bytes_read=nbytes / 2,
                                  bytes_written=nbytes / 2,
                                  blocks=max(len(fids), 1),
                                  kernel_class="swap", memory_ramp=0.3)

            device.launch("solve:pivots", apply_pivots, stream=stream)
            irr_trsm(device, "L", "L", "N", "U", int(f11.max_m), nrhs, 1.0,
                     f11, (0, 0), rhs, (0, 0), stream=stream,
                     name="irrtrsm:fwd")

            def scatter_update(fids=fids) -> KernelCost:
                flops = 0.0
                nbytes = 0.0
                for li, f in enumerate(fids):
                    info = symb.fronts[f]
                    if info.upd_size == 0:
                        continue
                    y_sep = x[info.sep_begin:info.sep_end, :]
                    upd = f21.arrays[li].data @ y_sep
                    # scatter-subtract into the global vector
                    np.subtract.at(x, info.upd, upd)
                    flops += 2.0 * info.upd_size * info.sep_size * nrhs
                    nbytes += (info.upd_size * info.sep_size +
                               2 * info.upd_size * nrhs) * itemsize
                return KernelCost(flops=flops, bytes_read=nbytes * 0.7,
                                  bytes_written=nbytes * 0.3,
                                  blocks=max(len(fids), 1),
                                  kernel_class="gemm_irr", memory_ramp=0.5)

            device.launch("solve:scatter", scatter_update, stream=stream)
            f11.free()
            f21.free()
            live.clear()

        # ---- backward sweep: x = U^{-1} y, root -> leaves ---------------
        for fids in reversed(levels):
            fids = [f for f in fids if symb.fronts[f].sep_size > 0]
            if not fids:
                continue
            f11, f12 = stream_level(fids, "f11", "f12")
            rhs_views = [x_dev[symb.fronts[f].sep_begin:
                               symb.fronts[f].sep_end, :] for f in fids]
            rhs = IrrBatch(device, rhs_views,
                           f11.m_vec, np.full(len(fids), nrhs,
                                              dtype=np.int64))

            def gather_update(fids=fids) -> KernelCost:
                flops = 0.0
                nbytes = 0.0
                for li, f in enumerate(fids):
                    info = symb.fronts[f]
                    if info.upd_size == 0:
                        continue
                    x_upd = x[info.upd, :]
                    x[info.sep_begin:info.sep_end, :] -= \
                        f12.arrays[li].data @ x_upd
                    flops += 2.0 * info.sep_size * info.upd_size * nrhs
                    nbytes += (info.sep_size * info.upd_size +
                               2 * info.sep_size * nrhs) * itemsize
                return KernelCost(flops=flops, bytes_read=nbytes * 0.7,
                                  bytes_written=nbytes * 0.3,
                                  blocks=max(len(fids), 1),
                                  kernel_class="gemm_irr", memory_ramp=0.5)

            device.launch("solve:gather", gather_update, stream=stream)
            irr_trsm(device, "L", "U", "N", "N", int(f11.max_m), nrhs, 1.0,
                     f11, (0, 0), rhs, (0, 0), stream=stream,
                     name="irrtrsm:bwd")
            f11.free()
            f12.free()
            live.clear()

    return x_dev.to_host(), region


def _solve_planned(device: Device, factors: MultifrontalFactors,
                   bh: np.ndarray, stream, plan: SolvePlan,
                   cache: DeviceFactorCache, rhs_block: int | None) -> tuple:
    """Plan-driven path: cached factors, vectorized level kernels."""
    eng = plan.engine
    nrhs_total = bh.shape[1]
    itemsize = bh.dtype.itemsize
    block = nrhs_total if rhs_block is None else max(int(rhs_block), 1)

    x_dev = device.from_host(bh)
    levels = plan.levels
    streamed: list = []   # the owned (streamed) acquire in flight, if any

    def acquire(li: int, part: str):
        blocks, owned = cache.acquire(li, part)
        if owned:
            streamed.append(blocks)
        return blocks, owned

    def release(blocks, owned) -> None:
        if owned:
            blocks.free()
            streamed.clear()

    try:
        with device.timed_region() as region:
            for c0 in range(0, max(nrhs_total, 1), block):
                c1 = min(c0 + block, nrhs_total)
                nrhs = c1 - c0
                xb = x_dev.data[:, c0:c1]
                rhs_batches = [
                    IrrBatch(device,
                             [x_dev[int(s):int(s + m), c0:c1]
                              for s, m in zip(lp.sep_starts, lp.sep_m)],
                             lp.sep_m,
                             np.full(lp.nfronts, nrhs, dtype=np.int64))
                    for lp in levels]

                # ---- forward sweep: leaves -> root ---------------------
                for li, lp in enumerate(levels):
                    blocks, owned = acquire(li, "fwd")
                    device.launch(
                        "solve:pivots",
                        lambda lp=lp: eng.exec_solve_pivots(
                            xb, lp, nrhs, itemsize), stream=stream)
                    irr_trsm(device, "L", "L", "N", "U", lp.max_sep, nrhs,
                             1.0, blocks.f11, (0, 0), rhs_batches[li],
                             (0, 0), stream=stream, name="irrtrsm:fwd",
                             engine=eng)
                    device.launch(
                        "solve:scatter",
                        lambda lp=lp, st=blocks.f21_stacks:
                            eng.exec_solve_scatter(xb, lp, st, nrhs,
                                                   itemsize),
                        stream=stream)
                    release(blocks, owned)

                # ---- backward sweep: root -> leaves --------------------
                for li in range(len(levels) - 1, -1, -1):
                    lp = levels[li]
                    blocks, owned = acquire(li, "bwd")
                    device.launch(
                        "solve:gather",
                        lambda lp=lp, st=blocks.f12_stacks:
                            eng.exec_solve_gather(xb, lp, st, nrhs,
                                                  itemsize),
                        stream=stream)
                    irr_trsm(device, "L", "U", "N", "N", lp.max_sep, nrhs,
                             1.0, blocks.f11, (0, 0), rhs_batches[li],
                             (0, 0), stream=stream, name="irrtrsm:bwd",
                             engine=eng)
                    release(blocks, owned)

        return x_dev.to_host(), region
    finally:
        for blocks in streamed:
            blocks.free()
        x_dev.free()


def multifrontal_solve_gpu(device: Device, factors: MultifrontalFactors,
                           b: np.ndarray, *, stream=None,
                           engine="bucketed",
                           plan: SolvePlan | None = None,
                           cache: DeviceFactorCache | None = None,
                           rhs_block: int | None = None) -> GpuSolveResult:
    """Solve the permuted system on the device with per-level batching.

    ``engine="naive"`` (or ``None``) runs the streamed per-front
    reference path; the default bucketed engine runs the plan-driven
    path.  A ``plan`` must come from :class:`SolvePlan` over these
    ``factors``; a ``cache`` must wrap that plan (its engine is used for
    the TRSM calls, so plan-cache state persists across solves).  With no
    ``cache``, a one-shot streaming cache is used and freed — repeated
    callers should hold both and pass them in (``SparseLU.solve`` does).

    Factors whose :class:`FactorReport` records an unrecovered pivot
    breakdown are refused with a :class:`~repro.errors.FactorizationError`
    (substituting through them would return garbage).

    Resource exhaustion: a device OOM the cache could not relieve by
    LRU-spilling resident levels is re-raised as a typed
    :class:`~repro.errors.ResourceExhausted` carrying the recovery log
    of the actions already taken; a failed solve never strands device
    allocations (``device.allocated_bytes`` returns to its pre-call
    value).
    """
    check_factors_ok(factors, "solve on the device")
    bh, squeeze = _promote_rhs(factors, b)
    eng = resolve_engine(engine if plan is None else plan.engine)
    mark = device.recovery_log.mark()
    try:
        if eng is None:
            out, region = _solve_naive(device, factors, bh, stream)
        else:
            if plan is None:
                plan = SolvePlan(factors, engine=eng)
            one_shot = cache is None
            if one_shot:
                cache = DeviceFactorCache(device, factors, plan,
                                          _stream_all=True)
            try:
                out, region = _solve_planned(device, factors, bh, stream,
                                             plan, cache, rhs_block)
            finally:
                if one_shot:
                    cache.free()
    except DeviceOutOfMemory as exc:
        recovery = device.recovery_log.since(mark)
        raise ResourceExhausted(
            f"device solve ran out of memory with nothing left to evict "
            f"({recovery.summary()})", log=recovery) from exc
    counters = {k: region[k] for k in region if k != "elapsed"}
    return GpuSolveResult(x=out[:, 0] if squeeze else out,
                          elapsed=region["elapsed"], counters=counters,
                          recovery=device.recovery_log.since(mark))

"""Shape-bucketed vectorized execution engine + DCWI plan cache.

The ``irr_*`` kernels are semantically "one launch for the whole batch",
but the simulator executes each launch with a per-matrix Python loop that
re-runs DCWI inference for every matrix at every blocked step — so host
wall-clock scales as O(batch × panels) in interpreter overhead.  This
module removes that overhead without changing a single bit of output:

* **DCWI plan cache** (:class:`PlanCache`): workload inference is a pure
  function of ``(required dims, local dims, offsets, trans/side flags)``.
  ``irr_getrf``'s offset schedule is fixed, so each signature's inference
  — vectorized over the whole batch by the ``*_batch`` functions in
  :mod:`repro.batched.dcwi` — is computed once per factorization and
  reused, keyed by :attr:`IrrBatch.dims_key` (so batches with identical
  local dims, e.g. successive levels of a multifrontal traversal, share
  plans too).

* **Shape-bucketed dispatch** (:class:`BatchEngine`): matrices whose
  inferred workload shapes match are stacked into one contiguous
  ``(bucket, m, n)`` array and executed with a single vectorized NumPy
  call — one ``np.matmul`` per GEMM bucket, one vectorized elimination
  per panel group.  Uniform small panel groups (every dimension ≤
  ``INTERLEAVED_MAX_N``) route through the interleaved-layout elimination
  core (:func:`~repro.batched.interleaved.interleaved_lu_core`), the fast
  path the paper's §II credits to Kokkos/MKL-style interleaved kernels.
  Singleton buckets fall back to the existing per-matrix path.

Bitwise-identity contract
-------------------------
``engine="bucketed"`` must produce factors, pivots **and** simulated
``KernelCost`` totals bitwise identical to ``engine="naive"``:

* stacked 3-D ``np.matmul`` equals the per-matrix 2-D product (same
  elementwise FMA sequence per output element);
* the padded/interleaved eliminations use only elementwise ops (argmax,
  row swap, divide, rank-1 subtract), so each matrix's factors match the
  scalar loop exactly;
* TRSM base-case solves stay **per matrix** in both engines: LAPACK's
  blocked ``trsm`` accumulation order cannot be reproduced bitwise by a
  stacked substitution, so bucketing only amortizes the inference and
  accounting, never the solve itself;
* integer-valued cost sums (flops, bytes, blocks) are order-independent
  in IEEE double below 2^53; the one non-integer accumulator (the
  flop-weighted GEMM ramp) is summed sequentially in ascending matrix
  order, matching the naive loop's ``+=`` order.
"""

from __future__ import annotations

import threading

import numpy as np

from ..device.kernel import KernelCost, gemm_compute_ramp
from .dcwi import WORKLOAD_NONE, infer_gemm_batch, infer_trsm_batch
from .interleaved import INTERLEAVED_MAX_N, interleaved_lu_core
from .panel import factor_panel_block

__all__ = ["BatchEngine", "PlanCache", "resolve_engine",
           "MIN_BUCKET", "PAD_BYTES_LIMIT", "GEMM_TILE",
           "INTERLEAVED_MIN_BS"]

#: logical tile edge used for GEMM block-count accounting (shared with
#: the naive loop in :mod:`repro.batched.gemm`).
GEMM_TILE = 32

#: buckets smaller than this run the per-matrix fallback path — stacking
#: a single matrix costs a copy and buys nothing.
MIN_BUCKET = 2

#: ceiling on the scratch a padded panel super-bucket may allocate; above
#: it the engine falls back to the scalar per-matrix elimination.
PAD_BYTES_LIMIT = 1 << 28  # 256 MiB

#: row-class granularity of the padded panel groups: matrices are padded
#: to the next multiple of this many rows, bounding padding waste while
#: keeping the group count (and per-group dispatch overhead) small.
ROW_CLASS = 32

#: element count of one padded-panel batch chunk (~4 MiB of doubles).
#: Each right-looking step streams the chunk's trailing slab through one
#: 3-D rank-1 update; a chunk this size keeps the slab and its product
#: scratch near cache while bounding both buffers' host memory.
_PANEL_CHUNK_ELEMS = 1 << 19

#: minimum members before a uniform small panel shape is routed through
#: the interleaved core; below this the padded row-class group absorbs it
#: (a near-empty interleaved call is pure dispatch overhead).
INTERLEAVED_MIN_BS = 8


class PlanCache:
    """Memoized DCWI inference plans, keyed by workload signature.

    Keys are ``(kind, flags..., required dims, offsets, dims_key...)``
    tuples; values are the immutable plan objects built by
    :class:`BatchEngine`.  ``hits``/``misses`` expose the reuse rate (a
    blocked factorization should miss once per distinct offset signature
    and hit every later panel iteration).

    The cache is bounded: with ``capacity=k`` it keeps the ``k`` most
    recently used plans and evicts least-recently-used entries beyond
    that (``evictions`` counts them), so a long-lived service facing
    unbounded shape diversity cannot grow plans without limit.
    ``capacity=None`` disables the bound.  All operations are
    thread-safe; concurrent ``get_or_build`` calls for the same key may
    both build, but they return equal plans (builds are pure functions
    of the key) and the counters stay coherent.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, "
                             f"got {capacity}")
        from collections import OrderedDict
        self.capacity = capacity
        self._plans: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def get_or_build(self, key, build):
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                return plan
            self.misses += 1
        # Build outside the lock: plans are pure functions of the key,
        # so a racing duplicate build is wasted work, never wrong.
        plan = build()
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            if self.capacity is not None:
                while len(self._plans) > self.capacity:
                    self._plans.popitem(last=False)
                    self.evictions += 1
        return plan


def resolve_engine(engine) -> "BatchEngine | None":
    """Normalize an ``engine=`` argument to a :class:`BatchEngine` or None.

    ``None`` / ``"naive"`` → None (per-matrix reference path);
    ``"bucketed"`` → a fresh bucketed engine; a :class:`BatchEngine`
    instance is passed through (or mapped to None when its mode is
    ``"naive"``), so drivers can share one plan cache across many
    kernel calls.
    """
    if engine is None or engine == "naive":
        return None
    if isinstance(engine, BatchEngine):
        return engine if engine.bucketed else None
    if engine == "bucketed":
        return BatchEngine()
    raise ValueError(f"unknown engine {engine!r}")


def _ceil_div(x: np.ndarray, d: int) -> np.ndarray:
    return -(-x // d)


class _GemmPlan:
    __slots__ = ("mi", "ni", "ki", "buckets", "singles", "scales",
                 "flops_mult", "ramp_weighted", "ab_read_elems",
                 "c_mult_elems", "c_scale_elems", "blocks")


class _TrsmPlan:
    __slots__ = ("idx", "order", "mi", "ni", "flops", "ord2_sum",
                 "b_elems", "blocks")


class _PanelPlan:
    __slots__ = ("inter_buckets", "pad_groups", "scalar_idx", "scalar_rows",
                 "scalar_width", "scalar_npiv", "nbytes_elems", "blocks")


class _LaswpPlan:
    __slots__ = ("length", "npiv", "c0", "c1", "lmax", "init_elems",
                 "rehearse_elems")


class BatchEngine:
    """Plan-cached, shape-bucketed executor for the irregular kernels.

    One engine instance carries one :class:`PlanCache`; drivers create a
    single engine per factorization (or share one across a multifrontal
    traversal) so every panel iteration after the first reuses its plans.
    ``mode="naive"`` makes :func:`resolve_engine` discard the engine,
    forcing the per-matrix reference path everywhere.
    """

    def __init__(self, mode: str = "bucketed", *,
                 min_bucket: int = MIN_BUCKET,
                 pad_bytes_limit: int = PAD_BYTES_LIMIT,
                 cache: PlanCache | None = None) -> None:
        if mode not in ("bucketed", "naive"):
            raise ValueError(f"unknown engine mode {mode!r}")
        self.mode = mode
        self.min_bucket = int(min_bucket)
        self.pad_bytes_limit = int(pad_bytes_limit)
        self.cache = PlanCache() if cache is None else cache
        self._bufs: dict = {}
        self._lapack: dict = {}

    def clear_plan_caches(self) -> None:
        """Drop cached plans and scratch buffers (host-side backpressure).

        Called by the recovery ladder before restarting a factorization
        under a smaller traversal budget: the new chunking changes the
        level compositions, so the old plans' keys would mostly go cold
        while their buffers pin host memory.
        """
        self.cache.clear()
        self._bufs.clear()

    def _scratch(self, name: str, n: int, dtype) -> np.ndarray:
        """Reusable flat scratch buffer (grown geometrically, never shrunk).

        Reuse keeps the hot panel loop free of large allocations and the
        page faults that come with touching fresh memory every launch.
        """
        buf = self._bufs.get(name)
        if buf is None or buf.size < n or buf.dtype != dtype:
            buf = np.empty(max(n, 2 * (buf.size if buf is not None else 0)),
                           dtype=dtype)
            self._bufs[name] = buf
        return buf[:n]

    @property
    def bucketed(self) -> bool:
        return self.mode == "bucketed"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"BatchEngine(mode={self.mode!r}, plans={len(self.cache)}, "
                f"hits={self.cache.hits}, misses={self.cache.misses})")

    # ------------------------------------------------------------------
    # GEMM
    # ------------------------------------------------------------------
    def _gemm_plan(self, transa, transb, m, n, k, A, a_off, B, b_off,
                   C, c_off) -> _GemmPlan:
        key = ("gemm", transa, transb, m, n, k, a_off, b_off, c_off,
               A.dims_key, B.dims_key, C.dims_key)

        def build() -> _GemmPlan:
            mi, ni, ki, cls = infer_gemm_batch(
                transa, transb, m, n, k,
                A.m_vec, A.n_vec, a_off, B.m_vec, B.n_vec, b_off,
                C.m_vec, C.n_vec, c_off)
            active = cls != WORKLOAD_NONE
            mult = active & (ki > 0)
            mult_idx = np.nonzero(mult)[0]
            scale_idx = np.nonzero(active & (ki == 0))[0]

            p = _GemmPlan()
            p.mi, p.ni, p.ki = mi, ni, ki
            p.flops_mult = float(
                2 * np.sum(mi[mult_idx] * ni[mult_idx] * ki[mult_idx]))
            p.ab_read_elems = int(np.sum(
                mi[mult_idx] * ki[mult_idx] + ki[mult_idx] * ni[mult_idx]))
            p.c_mult_elems = int(np.sum(mi[mult_idx] * ni[mult_idx]))
            p.c_scale_elems = int(np.sum(mi[scale_idx] * ni[scale_idx]))
            p.blocks = int(np.sum(
                np.maximum(1, _ceil_div(mi[active], GEMM_TILE)) *
                np.maximum(1, _ceil_div(ni[active], GEMM_TILE))))

            buckets: list = []
            single_parts: list = []
            ramp_of = np.empty(0)
            inv = np.empty(0, dtype=np.int64)
            if len(mult_idx):
                shapes = np.stack(
                    [mi[mult_idx], ni[mult_idx], ki[mult_idx]], axis=1)
                uniq, inv = np.unique(shapes, axis=0, return_inverse=True)
                inv = inv.ravel()
                for u in range(len(uniq)):
                    members = mult_idx[inv == u]
                    shape = (int(uniq[u, 0]), int(uniq[u, 1]),
                             int(uniq[u, 2]))
                    # m=n=1 is the inner-product shape: NumPy's 2-D path
                    # takes a strided-dot route whose summation order
                    # differs from the stacked 3-D dgemm, so bucketing it
                    # would break bitwise identity with the naive loop.
                    if len(members) >= self.min_bucket and \
                            not (shape[0] == 1 and shape[1] == 1):
                        buckets.append((shape, members))
                    else:
                        single_parts.append(members)
                ramp_of = np.array(
                    [gemm_compute_ramp(int(u[0]), int(u[1]), int(u[2]))
                     for u in uniq])
            p.buckets = [(shape, members.tolist()) for shape, members
                         in buckets]
            singles = (np.sort(np.concatenate(single_parts))
                       if single_parts else np.empty(0, dtype=np.int64))
            # Pre-resolved python tuples: the exec loop pays no per-launch
            # numpy-scalar conversion cost (plans are cached across panels).
            p.singles = [(int(i), int(mi[i]), int(ni[i]), int(ki[i]))
                         for i in singles]
            p.scales = [(int(i), int(mi[i]), int(ni[i]))
                        for i in scale_idx]

            # The flop-weighted efficiency ramp is the one non-integer
            # accumulator; replicate the naive loop's ascending-index
            # sequential addition exactly.
            rw = 0.0
            if len(mult_idx):
                flops_each = 2.0 * (mi[mult_idx] * ni[mult_idx]
                                    * ki[mult_idx]).astype(np.float64)
                for v in (flops_each * ramp_of[inv]).tolist():
                    rw += v
            p.ramp_weighted = rw
            return p

        return self.cache.get_or_build(key, build)

    def exec_gemm(self, device, transa, transb, m, n, k, alpha,
                  A, a_off, B, b_off, beta, C, c_off,
                  kernel_class: str) -> KernelCost:
        """Bucketed body of one ``irr_gemm`` launch (numerics + cost)."""
        plan = self._gemm_plan(transa, transb, m, n, k, A, a_off, B, b_off,
                               C, c_off)
        itemsize = C.itemsize
        a_sub, b_sub, c_sub = A.sub, B.sub, C.sub
        ao0, ao1 = a_off
        bo0, bo1 = b_off
        co0, co1 = c_off

        # In-place ``multiply``/``add`` below compute the same values as
        # the naive loop's ``alpha*prod + beta*c`` expression (elementwise
        # ops, identical operand order; ``1.0*x`` is bitwise ``x``) while
        # skipping its three temporaries.
        for (bm, bn, bk), idx in plan.buckets:
            ar, ac = (bm, bk) if transa == "N" else (bk, bm)
            br, bc = (bk, bn) if transb == "N" else (bn, bk)
            bs = len(idx)
            a_stack = self._scratch("gemm_a", bs * ar * ac,
                                    C.dtype).reshape(bs, ar, ac)
            b_stack = self._scratch("gemm_b", bs * br * bc,
                                    C.dtype).reshape(bs, br, bc)
            for t, i in enumerate(idx):
                a_stack[t] = a_sub(i, ao0, ao1, ar, ac)
                b_stack[t] = b_sub(i, bo0, bo1, br, bc)
            prod = self._scratch("gemm_p", bs * bm * bn,
                                 C.dtype).reshape(bs, bm, bn)
            np.matmul(_apply_op3(a_stack, transa),
                      _apply_op3(b_stack, transb), out=prod)
            if alpha != 1.0:
                np.multiply(prod, alpha, out=prod)
            if beta == 0.0:
                for t, i in enumerate(idx):
                    c_sub(i, co0, co1, bm, bn)[...] = prod[t]
            elif beta == 1.0:
                for t, i in enumerate(idx):
                    cs = c_sub(i, co0, co1, bm, bn)
                    np.add(prod[t], cs, out=cs)
            else:
                for t, i in enumerate(idx):
                    cs = c_sub(i, co0, co1, bm, bn)
                    np.add(prod[t], beta * cs, out=cs)

        for i, mi, ni, ki in plan.singles:
            ar, ac = (mi, ki) if transa == "N" else (ki, mi)
            br, bc = (ki, ni) if transb == "N" else (ni, ki)
            prod = _apply_op2(a_sub(i, ao0, ao1, ar, ac), transa) @ \
                _apply_op2(b_sub(i, bo0, bo1, br, bc), transb)
            if alpha != 1.0:
                np.multiply(prod, alpha, out=prod)
            cs = c_sub(i, co0, co1, mi, ni)
            if beta == 0.0:
                cs[...] = prod
            elif beta == 1.0:
                np.add(prod, cs, out=cs)
            else:
                np.add(prod, beta * cs, out=cs)

        if beta != 1.0:
            for i, mi, ni in plan.scales:
                cs = c_sub(i, co0, co1, mi, ni)
                if beta == 0.0:
                    cs[...] = 0.0
                else:
                    cs *= beta

        flops = plan.flops_mult
        bytes_r = float(plan.ab_read_elems) * itemsize
        bytes_w = float(plan.c_mult_elems) * itemsize
        if beta != 0.0:
            bytes_r += float(plan.c_mult_elems) * itemsize
        if beta == 0.0:
            bytes_w += float(plan.c_scale_elems) * itemsize
        elif beta != 1.0:
            flops += float(plan.c_scale_elems)
            bytes_r += float(plan.c_scale_elems) * itemsize
            bytes_w += float(plan.c_scale_elems) * itemsize
        ramp = plan.ramp_weighted / flops if flops > 0 else 1.0
        smem = min(2 * GEMM_TILE * GEMM_TILE * itemsize,
                   device.spec.max_shared_per_block)
        return KernelCost(
            flops=flops, bytes_read=bytes_r, bytes_written=bytes_w,
            blocks=max(plan.blocks, 1), threads_per_block=256,
            shared_mem_per_block=smem, kernel_class=kernel_class,
            compute_ramp=ramp, peak_scale=C.peak_scale)

    # ------------------------------------------------------------------
    # TRSM base case
    # ------------------------------------------------------------------
    def _trsm_plan(self, side, m, n, T, t_off, B, b_off) -> _TrsmPlan:
        key = ("trsm", side, m, n, t_off, b_off, T.dims_key, B.dims_key)

        def build() -> _TrsmPlan:
            mi, ni, cls = infer_trsm_batch(side, m, n, T.m_vec, T.n_vec,
                                           t_off, B.m_vec, B.n_vec, b_off)
            idx = np.nonzero(cls != WORKLOAD_NONE)[0]
            order = (mi if side == "L" else ni)[idx]
            rhs = (ni if side == "L" else mi)[idx]
            p = _TrsmPlan()
            p.idx = idx
            p.order = order
            p.mi, p.ni = mi[idx], ni[idx]
            p.flops = float(np.sum(order * order * rhs))
            p.ord2_sum = int(np.sum(order * order))
            p.b_elems = int(np.sum(mi[idx] * ni[idx]))
            p.blocks = int(np.sum(np.maximum(1, _ceil_div(rhs, 32))))
            return p

        return self.cache.get_or_build(key, build)

    def _solve_fast(self, t, b, side, uplo, trans, diag, alpha,
                    solve) -> None:
        """Low-overhead equivalent of :func:`~repro.batched.trsm._solve_small`.

        Calls the same LAPACK ``?trtrs`` routine the scipy wrapper resolves
        to, with the identical contiguity-dependent argument mapping scipy
        uses, so the solution is bitwise that of the reference path — only
        the Python-level validation layers are skipped.  Any nonzero
        ``info`` falls back to the reference ``solve`` so singular
        triangles raise the exact scipy error.
        """
        unit = diag == "U"
        lower = (uplo == "L") != (trans == "T")
        tt = t.T if trans == "T" else t
        ab = b if alpha == 1.0 else alpha * b
        if side == "L":
            a1, b1 = tt, ab
        else:
            a1, b1 = tt.T, ab.T
            lower = not lower
        key = (a1.dtype.char, b1.dtype.char)
        trtrs = self._lapack.get(key)
        if trtrs is None:
            from scipy.linalg.lapack import get_lapack_funcs
            trtrs, = get_lapack_funcs(("trtrs",), (a1, b1))
            self._lapack[key] = trtrs
        if a1.flags.f_contiguous:
            x, info = trtrs(a1, b1, overwrite_b=True, lower=lower,
                            trans=0, unitdiag=unit)
        else:
            # trtrs wants Fortran order: solve the transposed system on
            # the C-ordered view instead of copying (scipy does the same).
            x, info = trtrs(a1.T, b1, overwrite_b=True, lower=not lower,
                            trans=1, unitdiag=unit)
        if info != 0:
            solve(t, b, side, uplo, trans, diag, alpha)
            return
        if side == "L":
            b[...] = x
        else:
            b[...] = x.T

    def exec_trsm_base(self, device, side, uplo, trans, diag, m, n, alpha,
                       T, t_off, B, b_off, kernel_class: str,
                       solve) -> KernelCost:
        """Plan-cached body of one ``irr_trsm`` base-case launch.

        The solves stay per matrix in both engines — see the
        bitwise-identity contract above — so the engine removes the
        inference/accounting overhead and routes each solve through
        :meth:`_solve_fast` (same LAPACK call, no wrapper layers).
        """
        plan = self._trsm_plan(side, m, n, T, t_off, B, b_off)
        itemsize = B.itemsize
        order_req = m if side == "L" else n
        for b in range(len(plan.idx)):
            i = int(plan.idx[b])
            order = int(plan.order[b])
            mi, ni = int(plan.mi[b]), int(plan.ni[b])
            t_sub = T.sub(i, t_off[0], t_off[1], order, order)
            b_sub = B.sub(i, b_off[0], b_off[1], mi, ni)
            self._solve_fast(t_sub, b_sub, side, uplo, trans, diag, alpha,
                             solve)
        bytes_r = plan.ord2_sum * itemsize / 2 + \
            float(plan.b_elems) * itemsize
        smem = min(order_req * order_req * itemsize,
                   device.spec.max_shared_per_block)
        return KernelCost(
            flops=plan.flops, bytes_read=bytes_r,
            bytes_written=float(plan.b_elems) * itemsize,
            blocks=max(plan.blocks, 1), threads_per_block=128,
            shared_mem_per_block=smem, kernel_class=kernel_class,
            compute_ramp=gemm_compute_ramp(order_req, order_req, order_req,
                                           halfsize=32.0),
            peak_scale=B.peak_scale)

    # ------------------------------------------------------------------
    # fused panel factorization
    # ------------------------------------------------------------------
    def _panel_plan(self, batch, j: int, ib: int) -> _PanelPlan:
        key = ("panel", j, ib, batch.dims_key)

        def build() -> _PanelPlan:
            m_vec, n_vec = batch.m_vec, batch.n_vec
            rows = np.maximum(m_vec - j, 0)
            width = np.maximum(np.minimum(j + ib, n_vec) - j, 0)
            npiv = np.maximum(
                np.minimum(ib, np.minimum(m_vec, n_vec) - j), 0)
            active = np.nonzero(npiv > 0)[0]

            p = _PanelPlan()
            p.nbytes_elems = int(np.sum(rows[active] * width[active]))
            p.blocks = len(active)
            p.inter_buckets = []
            p.pad_groups = []
            rest_parts: list = []
            if len(active):
                shapes = np.stack(
                    [rows[active], width[active], npiv[active]], axis=1)
                uniq, inv = np.unique(shapes, axis=0, return_inverse=True)
                inv = inv.ravel()
                for u in range(len(uniq)):
                    r, w, np_ = int(uniq[u, 0]), int(uniq[u, 1]), \
                        int(uniq[u, 2])
                    members = active[inv == u]
                    if len(members) >= INTERLEAVED_MIN_BS and \
                            max(r, w) <= INTERLEAVED_MAX_N:
                        p.inter_buckets.append((r, w, np_, members))
                    else:
                        rest_parts.append(members)
            scalar_parts: list = []
            if rest_parts:
                rest = np.sort(np.concatenate(rest_parts))
                # Row-class groups: pad each matrix only up to the next
                # multiple of ROW_CLASS rows, so one huge matrix cannot
                # force every small one to its height and the padding
                # waste per matrix stays below one class step.
                cls = _ceil_div(np.maximum(rows[rest], 1),
                                ROW_CLASS) * ROW_CLASS
                cls = np.maximum(cls, INTERLEAVED_MAX_N)
                for c in np.unique(cls):
                    members = rest[cls == c]
                    r_g, w_g, p_g = rows[members], width[members], \
                        npiv[members]
                    pad_bytes = int(r_g.max()) * int(w_g.max()) * \
                        len(members) * batch.itemsize
                    if len(members) >= self.min_bucket and \
                            pad_bytes <= self.pad_bytes_limit:
                        p.pad_groups.append(
                            (int(r_g.max()), int(w_g.max()),
                             int(p_g.max()), members, r_g, w_g, p_g))
                    else:
                        scalar_parts.append(members)
            scal = (np.sort(np.concatenate(scalar_parts)) if scalar_parts
                    else np.empty(0, dtype=np.int64))
            p.scalar_idx = scal
            p.scalar_rows = rows[scal]
            p.scalar_width = width[scal]
            p.scalar_npiv = npiv[scal]
            return p

        return self.cache.get_or_build(key, build)

    def exec_panel(self, device, batch, pivots, j: int, ib: int,
                   smem: int) -> KernelCost:
        """Bucketed body of one fused-``irrGETF2`` launch."""
        plan = self._panel_plan(batch, j, ib)
        flops = 0.0
        for (rows, width, npiv, idx) in plan.inter_buckets:
            flops += self._panel_interleaved(batch, pivots, j, rows, width,
                                             npiv, idx)
        for (R, W, P, idx, rows, width, npiv) in plan.pad_groups:
            flops += self._panel_padded(batch, pivots, j, idx,
                                        rows, width, npiv, R, W, P)
        for b in range(len(plan.scalar_idx)):
            i = int(plan.scalar_idx[b])
            a = batch.sub(i, j, j, int(plan.scalar_rows[b]),
                          int(plan.scalar_width[b]))
            flops += factor_panel_block(
                a, int(plan.scalar_npiv[b]), pivots.ipiv[i],
                pivots.info, i, j, ctrl=pivots.ctrl)
        nbytes = float(plan.nbytes_elems) * batch.itemsize
        return KernelCost(
            flops=float(flops), bytes_read=nbytes, bytes_written=nbytes,
            blocks=max(plan.blocks, 1), threads_per_block=256,
            shared_mem_per_block=smem, kernel_class="getf2",
            compute_ramp=min(1.0, ib / 16.0),
            peak_scale=batch.peak_scale)

    def _panel_interleaved(self, batch, pivots, j: int, rows: int,
                           width: int, npiv: int, idx: np.ndarray) -> int:
        """Route one uniform small bucket through the interleaved core."""
        bs = len(idx)
        ctrl = pivots.ctrl
        data = np.empty((rows, width, bs), dtype=batch.dtype)
        for b in range(bs):
            data[:, :, b] = batch.sub(int(idx[b]), j, j, rows, width)
        ipiv, nz_counts, first_bad, n_rep, min_p = interleaved_lu_core(
            data, npiv, thresh=ctrl.thresh[idx], repl=ctrl.repl[idx])
        for b in range(bs):
            i = int(idx[b])
            batch.sub(i, j, j, rows, width)[...] = data[:, :, b]
            pivots.ipiv[i][j:j + npiv] = j + ipiv[:, b]
            if first_bad[b] and pivots.info[i] == 0:
                pivots.info[i] = j + int(first_bad[b])
        ctrl.n_replaced[idx] += n_rep
        ctrl.min_pivot[idx] = np.minimum(ctrl.min_pivot[idx], min_p)
        # Exact flop accounting: an unrecovered pivot breakdown skips its
        # column's scaling and rank-1 update, exactly as in the scalar
        # elimination (a replaced pivot proceeds and counts in full).
        flops = 0
        for c in range(npiv):
            cnt = int(nz_counts[c])
            if cnt and c + 1 < rows:
                flops += cnt * (rows - c - 1)
                if c + 1 < width:
                    flops += 2 * cnt * (rows - c - 1) * (width - c - 1)
        return flops

    def _panel_padded(self, batch, pivots, j: int, idx: np.ndarray,
                      rows: np.ndarray, width: np.ndarray,
                      npiv: np.ndarray, R: int, W: int, P: int) -> int:
        """Mixed-shape row-class group: zero-padded vectorized LU.

        The group lives in one batch-last ``(W, R, bs)`` scratch array
        (the interleaved layout, so every cross-batch operation streams
        over a contiguous axis).  Zero padding is self-protecting: pad
        rows/columns contribute zero to every pivot search, scaling and
        rank-1 update, so each matrix's factors are bitwise those of the
        scalar elimination.  The elimination is right-looking: each step
        pivots, swaps and scales its column, then applies its rank-1
        update to every later column and every member in one 3-D
        multiply/subtract, so each element receives the scalar
        elimination's subtractions in the same step order.

        The group is processed in batch-axis chunks of bounded size
        (matrices are independent, so chunking cannot change any value).
        """
        flops = 0
        chunk = max(self.min_bucket, _PANEL_CHUNK_ELEMS // max(R * W, 1))
        for s0 in range(0, len(idx), chunk):
            s1 = min(s0 + chunk, len(idx))
            flops += self._panel_padded_chunk(
                batch, pivots, j, idx[s0:s1], rows[s0:s1], width[s0:s1],
                npiv[s0:s1], R, W, P)
        return flops

    def _panel_padded_chunk(self, batch, pivots, j: int, idx: np.ndarray,
                            rows: np.ndarray, width: np.ndarray,
                            npiv: np.ndarray, R: int, W: int,
                            P: int) -> int:
        bs = len(idx)
        # Column-major group layout (W, R, bs): every per-column slice —
        # pivot search, scaling and the low operand of each update — is
        # contiguous.
        data = self._scratch("pad", W * R * bs,
                             batch.dtype).reshape(W, R, bs)
        data.fill(0.0)
        for b in range(bs):
            data[:width[b], :rows[b], b] = batch.sub(
                int(idx[b]), j, j, int(rows[b]), int(width[b])).T
        binx = np.arange(bs)
        piv_store = np.empty((P, bs), dtype=np.int64)
        # Local gathers of the breakdown state (threshold, replacement
        # value, info, diagnostics); scattered back after the chunk.
        ctrl = pivots.ctrl
        brk = (ctrl.thresh[idx], ctrl.repl[idx], pivots.info[idx],
               ctrl.n_replaced[idx], ctrl.min_pivot[idx])
        # Per-column flop totals for the common all-pivots-nonzero case,
        # computed in one vectorized shot; the loop falls back to the
        # masked per-column sums only when a zero pivot appears.
        cols = np.arange(P)[:, None]
        r1m = rows[None, :] - cols - 1
        w1m = width[None, :] - cols - 1
        actm = (npiv[None, :] > cols) & (r1m > 0)
        flops_tab = np.where(actm, r1m, 0).sum(axis=1) + \
            2 * np.where(actm & (w1m > 0), r1m * w1m, 0).sum(axis=1)
        flops = 0
        for c in range(P):
            nz = self._panel_pivot_step(j, c, R, npiv, data, binx,
                                        piv_store, brk)
            if c + 1 < R and c + 1 < W:
                # Rank-1 update of step c on every later column at once.
                # Each element receives the subtractions of the scalar
                # elimination in the same step order, so the factors are
                # bitwise those of the per-matrix loop.
                low = data[c, c + 1:, :]                 # (R-c-1, bs)
                u = data[c + 1:, c, :]                   # (W-c-1, bs)
                if nz is not None:
                    low = np.where(nz, low, 0.0)
                    u = np.where(nz, u, 0.0)
                trail = data[c + 1:, c + 1:, :]
                pv = self._scratch(
                    "pad_prod", trail.size,
                    batch.dtype).reshape(trail.shape)
                np.multiply(low[None], u[:, None], out=pv)
                np.subtract(trail, pv, out=trail)
            if nz is None:
                flops += int(flops_tab[c])
            else:
                r1v = rows - c - 1
                m1 = nz & (r1v > 0)
                if m1.any():
                    flops += int(np.sum(r1v[m1]))
                    w1 = width - c - 1
                    m2 = m1 & (w1 > 0)
                    if m2.any():
                        flops += int(2 * np.sum(r1v[m2] * w1[m2]))
        for b in range(bs):
            i = int(idx[b])
            batch.sub(i, j, j, int(rows[b]), int(width[b]))[...] = \
                data[:width[b], :rows[b], b].T
            np_b = int(npiv[b])
            pivots.ipiv[i][j:j + np_b] = piv_store[:np_b, b]
        pivots.info[idx] = brk[2]
        ctrl.n_replaced[idx] = brk[3]
        ctrl.min_pivot[idx] = brk[4]
        return flops

    def _panel_pivot_step(self, j, c, R, npiv, data, binx, piv_store,
                          brk) -> "np.ndarray | None":
        """Pivot, swap and scale column ``c`` (already up to date).

        Returns the mask of members whose step-``c`` rank-1 update
        applies (active, with a usable pivot), or ``None`` when every
        member's does and the update needs no mask.
        """
        thresh_loc, repl_loc, info_loc, nrep_loc, minp_loc = brk
        colv = data[c]
        act = npiv > c
        act_all = bool(act.all())
        p = np.argmax(np.abs(colv[c:]), axis=0)
        if not act_all:
            p = np.where(act, p, 0)
        pr = c + p
        piv_store[c] = j + pr
        row_c = data[:, c, :].copy()                 # (W, bs)
        row_p = data[:, pr, binx]                    # (W, bs) gather
        if act_all:
            data[:, c, :] = row_p
            data[:, pr, binx] = row_c
        else:
            data[:, c, :] = np.where(act, row_p, row_c)
            data[:, pr, binx] = np.where(act, row_c, row_p)
        piv = colv[c]
        apiv = np.abs(piv)
        if act_all:
            np.minimum(minp_loc, apiv, out=minp_loc)
        else:
            np.minimum(minp_loc, np.where(act, apiv, np.inf), out=minp_loc)
        bad = (apiv < thresh_loc) & act
        if bad.any():
            rep = bad & (repl_loc > 0.0)
            if rep.any():
                # static pivoting: replace, keeping the sign/phase; the
                # product is rounded in the working precision, as in the
                # scalar elimination
                scale = np.where(apiv > 0.0, apiv, 1.0)
                sgn = np.where(apiv > 0.0, piv / scale, 1.0)
                piv = np.where(rep, sgn * repl_loc.astype(apiv.dtype), piv)
                colv[c] = piv
                nrep_loc += rep
            unrec = bad & ~rep
            newly = unrec & (info_loc == 0)
            if newly.any():
                info_loc[newly] = j + c + 1
            nz = act & ~unrec
        else:
            nz = act
        nz_all = bool(nz.all())
        if R - c - 1 > 0:
            # An unrecovered-breakdown column is either all zero below
            # the diagonal (an exactly-zero pivot chosen by magnitude) or
            # excluded from the division by the masked 1.0, so no select
            # temporary is needed and nothing overflows.
            inv = piv if nz_all else np.where(nz, piv, 1.0)
            low = colv[c + 1:]
            np.divide(low, inv, out=low)
        return None if nz_all else nz

    # ------------------------------------------------------------------
    # rehearsed LASWP
    # ------------------------------------------------------------------
    def _laswp_plan(self, batch, j: int, ib: int, part) -> _LaswpPlan:
        key = ("laswp", j, ib,
               part if isinstance(part, str) else ("win",) + tuple(part),
               batch.dims_key)

        def build() -> _LaswpPlan:
            m_vec, n_vec = batch.m_vec, batch.n_vec
            p = _LaswpPlan()
            p.length = np.maximum(m_vec - j, 0)
            p.npiv = np.maximum(
                np.minimum(ib, np.minimum(m_vec, n_vec) - j), 0)
            if part == "left":
                p.c0 = np.zeros(len(batch), dtype=np.int64)
                p.c1 = np.minimum(j, n_vec)
            elif part == "right":
                p.c0 = np.minimum(j + ib, n_vec)
                p.c1 = n_vec.copy()
            elif isinstance(part, tuple) and len(part) == 2:
                p.c0 = np.minimum(int(part[0]), n_vec)
                p.c1 = np.minimum(int(part[1]), n_vec)
            else:
                raise ValueError(f"invalid part {part!r}")
            p.lmax = int(p.length.max()) if len(batch) else 0
            p.init_elems = int(np.sum(p.length))
            p.rehearse_elems = int(np.sum(p.npiv))
            return p

        return self.cache.get_or_build(key, build)

    def laswp_session(self, batch, pivots, j: int, ib: int, part,
                      chunk_rows: int = 32) -> "_LaswpSession":
        return _LaswpSession(self, batch, pivots, j, ib, part, chunk_rows)

    # ------------------------------------------------------------------
    # pivot application (getrs / multifrontal F12)
    # ------------------------------------------------------------------
    @staticmethod
    def _rehearse_permutation(pivots_list, nrows: int
                              ) -> tuple[np.ndarray, np.ndarray]:
        """Replay every matrix's swap sequence on an index matrix.

        Returns ``(perm, swaps)``: ``perm[i, r]`` is the source row that
        ends up at row ``r`` of matrix ``i`` after its swaps, and
        ``swaps[i]`` the number of off-diagonal pivots (the count the
        naive loop's traffic accounting depends on).
        """
        bs = len(pivots_list)
        klen = np.array([len(pv) for pv in pivots_list], dtype=np.int64)
        kmax = int(klen.max()) if bs else 0
        ip_pad = np.zeros((bs, max(kmax, 1)), dtype=np.int64)
        for i, pv in enumerate(pivots_list):
            ip_pad[i, :len(pv)] = pv
        perm = np.broadcast_to(np.arange(max(nrows, 1), dtype=np.int64),
                               (bs, max(nrows, 1))).copy()
        binx = np.arange(bs)
        for r in range(kmax):
            if r >= perm.shape[1]:
                break
            act = klen > r
            if not act.any():
                continue
            p = np.where(act, ip_pad[:, r], r)
            col_r = perm[:, r].copy()
            col_p = perm[binx, p]
            perm[binx, p] = np.where(act, col_r, col_p)
            perm[:, r] = np.where(act, col_p, col_r)
        valid = np.arange(max(kmax, 1))[None, :] < klen[:, None]
        swaps = np.sum(
            (ip_pad != np.arange(max(kmax, 1))[None, :]) & valid, axis=1)
        return perm, swaps

    def exec_apply_pivots(self, rhs, pivots) -> KernelCost:
        """Bucketed body of the ``irrgetrs:pivots`` launch.

        The rehearsed permutation depends only on the pivot sequences
        and the row count, so it is memoized on the pivots object —
        repeated solves against one set of factors (the getrs analogue
        of the solve plan) rehearse once and replay the gather.
        """
        memo = getattr(pivots, "_rehearsal", None)
        if memo is not None and memo[0] == rhs.max_m:
            _m, perm, swaps = memo
        else:
            perm, swaps = self._rehearse_permutation(pivots.ipiv, rhs.max_m)
            pivots._rehearsal = (rhs.max_m, perm, swaps)
        itemsize = rhs.itemsize
        nbytes = 0
        blocks = 0
        for i in range(len(rhs)):
            n, k = rhs.local_dims(i)
            if n == 0 or k == 0:
                continue
            b = rhs.matrix(i)
            b[...] = b[perm[i, :n], :]
            nbytes += 4 * k * itemsize * int(swaps[i])
            blocks += 1
        return KernelCost(bytes_read=nbytes / 2, bytes_written=nbytes / 2,
                          blocks=max(blocks, 1), kernel_class="swap",
                          memory_ramp=0.3)

    def exec_apply_pivots_f12(self, f12, pivots_list) -> KernelCost:
        """Bucketed body of the multifrontal ``irrlaswp:f12`` launch."""
        perm, _swaps = self._rehearse_permutation(pivots_list, f12.max_m)
        itemsize = f12.itemsize
        nbytes = 0
        blocks = 0
        for i in range(len(f12)):
            s, u = f12.local_dims(i)
            if s == 0 or u == 0:
                continue
            b = f12.arrays[i].data
            b[:s, :] = b[perm[i, :s], :]
            nbytes += 2 * s * u * itemsize
            blocks += 1
        return KernelCost(bytes_read=nbytes / 2, bytes_written=nbytes / 2,
                          blocks=max(blocks, 1), kernel_class="swap",
                          memory_ramp=0.4)

    # ------------------------------------------------------------------
    # multifrontal solve phase (plan-driven level kernels)
    # ------------------------------------------------------------------
    # ``lp`` below is a LevelSolvePlan from repro.sparse.numeric.solve_plan
    # (duck-typed here to keep the dependency one-directional);
    # ``stacks`` the per-bucket factor blocks: a ``.data`` that is a 3-D
    # stack, or a list of 2-D views into adopted fronts.  Costs
    # reproduce the reference closures in gpu_solve bit-for-bit: the
    # accumulators are integer-valued, so the precomputed sums equal the
    # naive loop's sequential ``+=`` in IEEE double.

    def exec_solve_pivots(self, x, lp, nrhs: int,
                          itemsize: int) -> KernelCost:
        """Planned body of the ``solve:pivots`` launch.

        The per-front swap loops were rehearsed at plan-build time into
        one global ``(dst, src)`` row gather; the fancy-index read
        completes before any write, so permutation cycles resolve to the
        same rows as the sequential swaps they replay.
        """
        if len(lp.piv_dst):
            x[lp.piv_dst, :] = x[lp.piv_src, :]
        nbytes = 4.0 * nrhs * itemsize * lp.swaps_total
        return KernelCost(bytes_read=nbytes / 2, bytes_written=nbytes / 2,
                          blocks=max(lp.nfronts, 1),
                          kernel_class="swap", memory_ramp=0.3)

    def exec_solve_scatter(self, x, lp, stacks, nrhs: int,
                           itemsize: int) -> KernelCost:
        """Planned body of the ``solve:scatter`` launch (forward updates).

        Every bucket's ``f21 @ y`` products are computed stacked into a
        contiguous delta buffer first — safe, because same-level
        separators never appear in same-level update sets, so no product
        reads a row the subtraction writes.  The conflict-free rounds
        then drain the buffer with one vectorized subtract each, hitting
        every row in the reference's per-front order.
        """
        total = len(lp.upd_rows)
        delta = self._scratch("solve_delta", total * nrhs,
                              x.dtype).reshape(total, nrhs)
        for b, stack in zip(lp.buckets, stacks):
            bs = len(b.fids)
            blocks3 = stack.data
            # The (u=1, nrhs=1) product is the inner-product shape whose
            # 2-D summation order differs from stacked matmul (the GEMM
            # bucketing rule); it, sub-MIN_BUCKET buckets and per-front
            # views (a list, not a stack) stay 2-D.
            if isinstance(blocks3, np.ndarray) and bs >= self.min_bucket \
                    and not (b.u == 1 and nrhs == 1):
                y = x[b.sep_mat, :]
                prod = np.matmul(blocks3, y)
                delta[b.out_pos, :] = prod.reshape(bs * b.u, nrhs)
            else:
                for j in range(bs):
                    s0 = int(b.sep_start[j])
                    g0 = int(b.seg_start[j])
                    delta[g0:g0 + b.u, :] = \
                        blocks3[j] @ x[s0:s0 + b.s, :]
        for rows, pos in lp.rounds:
            x[rows, :] -= delta[pos, :]
        flops = 2.0 * lp.sum_us * nrhs
        nbytes = float(lp.sum_us + 2 * lp.sum_u * nrhs) * itemsize
        return KernelCost(flops=flops, bytes_read=nbytes * 0.7,
                          bytes_written=nbytes * 0.3,
                          blocks=max(lp.nfronts, 1),
                          kernel_class="gemm_irr", memory_ramp=0.5)

    def exec_solve_gather(self, x, lp, stacks, nrhs: int,
                          itemsize: int) -> KernelCost:
        """Planned body of the ``solve:gather`` launch (backward updates).

        Reads ancestor rows (finished by earlier backward levels) and
        writes this level's disjoint separator ranges, so the bucket
        subtracts are conflict-free by construction.
        """
        for b, stack in zip(lp.buckets, stacks):
            bs = len(b.fids)
            blocks3 = stack.data
            if isinstance(blocks3, np.ndarray) and bs >= self.min_bucket \
                    and not (b.s == 1 and nrhs == 1):
                xu = x[b.upd_mat, :]
                prod = np.matmul(blocks3, xu)
                x[b.sep_flat, :] -= prod.reshape(bs * b.s, nrhs)
            else:
                for j in range(bs):
                    s0 = int(b.sep_start[j])
                    g0 = int(b.seg_start[j])
                    xu = x[lp.upd_rows[g0:g0 + b.u], :]
                    x[s0:s0 + b.s, :] -= blocks3[j] @ xu
        flops = 2.0 * lp.sum_us * nrhs
        nbytes = float(lp.sum_us + 2 * lp.sum_s_active * nrhs) * itemsize
        return KernelCost(flops=flops, bytes_read=nbytes * 0.7,
                          bytes_written=nbytes * 0.3,
                          blocks=max(lp.nfronts, 1),
                          kernel_class="gemm_irr", memory_ramp=0.5)


class _LaswpSession:
    """Shared state of one rehearsed-LASWP call's three launches.

    The auxiliary index columns of every matrix live in one padded
    ``(batch, Lmax)`` matrix so the rehearsal — the naive path's
    O(batch × npiv) Python hotspot — becomes ``ib`` vectorized row-swap
    steps across the whole batch.
    """

    def __init__(self, engine: BatchEngine, batch, pivots, j: int, ib: int,
                 part, chunk_rows: int = 32) -> None:
        self.plan = engine._laswp_plan(batch, j, ib, part)
        self.batch = batch
        self.pivots = pivots
        self.j = j
        self.ib = ib
        self.chunk_rows = chunk_rows
        self.aux: np.ndarray | None = None

    def init(self) -> KernelCost:
        plan = self.plan
        self.aux = self.j + np.broadcast_to(
            np.arange(max(plan.lmax, 1), dtype=np.int64),
            (len(self.batch), max(plan.lmax, 1))).copy()
        return KernelCost(bytes_written=float(plan.init_elems) * 8,
                          blocks=max(len(self.batch), 1),
                          threads_per_block=256, kernel_class="swap")

    def rehearse(self) -> KernelCost:
        plan = self.plan
        bs = len(self.batch)
        aux = self.aux
        npiv = plan.npiv
        ip_pad = np.zeros((bs, max(self.ib, 1)), dtype=np.int64)
        for i in range(bs):
            np_i = int(npiv[i])
            if np_i:
                ip_pad[i, :np_i] = self.pivots.ipiv[i][self.j:self.j + np_i]
        binx = np.arange(bs)
        for r in range(self.ib):
            if r >= plan.lmax:
                break
            act = npiv > r
            if not act.any():
                continue
            p = np.where(act, ip_pad[:, r] - self.j, r)
            col_r = aux[:, r].copy()
            col_p = aux[binx, p]
            aux[binx, p] = np.where(act, col_r, col_p)
            aux[:, r] = np.where(act, col_p, col_r)
        return KernelCost(bytes_read=float(plan.rehearse_elems) * 16,
                          bytes_written=float(plan.rehearse_elems) * 16,
                          blocks=max(bs, 1), threads_per_block=64,
                          kernel_class="swap")

    def gather(self) -> KernelCost:
        plan = self.plan
        batch = self.batch
        aux = self.aux
        itemsize = batch.itemsize
        j = self.j
        lmax = max(plan.lmax, 1)
        ident = j + np.arange(lmax, dtype=np.int64)
        valid = np.arange(lmax)[None, :] < plan.length[:, None]
        touch = ((np.arange(lmax)[None, :] < plan.npiv[:, None]) |
                 ((aux != ident[None, :]) & valid))
        nbytes = 0
        blocks = 0
        for i in range(len(batch)):
            np_i = int(plan.npiv[i])
            if np_i == 0:
                continue
            c0, c1 = int(plan.c0[i]), int(plan.c1[i])
            width = c1 - c0
            if width <= 0:
                continue
            a = batch.arrays[i].data
            rel = np.nonzero(touch[i, :int(plan.length[i])])[0]
            a[rel + j, c0:c1] = a[aux[i, rel], c0:c1]
            nbytes += 2 * len(rel) * width * itemsize
            blocks += max(1, -(-width // 32))
        return KernelCost(bytes_read=float(nbytes), bytes_written=float(nbytes),
                          blocks=max(blocks, 1), threads_per_block=256,
                          shared_mem_per_block=min(
                              self.chunk_rows * 32 * 8,
                              batch.device.spec.max_shared_per_block),
                          kernel_class="swap", memory_ramp=0.85)


def _apply_op2(a: np.ndarray, trans: str) -> np.ndarray:
    if trans == "N":
        return a
    return a.conj().T if trans == "C" else a.T


def _apply_op3(a: np.ndarray, trans: str) -> np.ndarray:
    """Per-matrix ``op`` on a stacked ``(bucket, rows, cols)`` array."""
    if trans == "N":
        return a
    swapped = a.transpose(0, 2, 1)
    return swapped.conj() if trans == "C" else swapped

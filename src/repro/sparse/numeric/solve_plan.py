"""Solve plan + device-resident factor cache (fast repeated solves).

A production sparse direct solver factors once and solves *many* times
(§V-B amortizes the factorization over repeated right-hand sides,
Fig 12).  The seed solve path re-did all per-solve setup on every call:
it re-uploaded every factor level, re-applied pivots row-by-row in
Python, and scatter-updated front-by-front with ``np.subtract.at``.
This module precomputes everything that depends only on the factors:

* :class:`SolvePlan` — built once per factorization.  Per level it
  stores the *rehearsed* pivot permutation (the row-by-row swap loop
  becomes one fancy-index gather, reusing the rehearsal machinery of
  :class:`~repro.batched.engine.BatchEngine`), the concatenated
  update-index arrays with segment boundaries, the conflict-free scatter
  *rounds* (see below) and the shape buckets for the ``f21 @ y`` /
  ``f12 @ x`` update GEMMs.

* :class:`DeviceFactorCache` — keeps the factor blocks device-resident
  across solves: per level, the ``f11`` pivot blocks as an
  :class:`~repro.batched.interface.IrrBatch` (for irrTRSM) and the
  ``f21``/``f12`` blocks packed into contiguous per-bucket stacks, each
  uploaded in **one** H2D transfer.  Factors a device factorization left
  on this device are *adopted* instead: the blocks are views into the
  traversal's own front buffers, with no transfer and no copy.  A
  ``memory_budget`` keeps only the levels that fit resident; the rest
  fall back to the seed's streaming uploads (upload, use, free) —
  mirroring the out-of-core factorization mode.

Bitwise-identity contract
-------------------------
The planned path must produce solutions bitwise identical to the naive
per-front reference in :mod:`repro.sparse.numeric.gpu_solve`:

* the rehearsed permutation replays the exact swap sequence, so the
  single gather equals the row-by-row swaps;
* stacked 3-D ``np.matmul`` equals the per-matrix 2-D product (the
  engine's contract), so packed stacks and adopted per-front views give
  the same bits; the inner-product shape (``m = nrhs = 1``) stays
  per-matrix;
* the forward scatter's ``np.subtract.at`` is order-sensitive when two
  same-level fronts update the same ancestor row.  The plan partitions
  the concatenated update positions into *rounds*: round ``r`` holds the
  ``r``-th occurrence of every row, so within a round the rows are
  unique (plain vectorized subtract) and across rounds each row receives
  its contributions in front order — the exact sequence of the
  per-front ``np.subtract.at`` loop.  Almost all levels need one round.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ...batched.engine import BatchEngine
from ...batched.interface import IrrBatch
from ...device.memory import DeviceOutOfMemory, pack_to_device, \
    validate_memory_budget
from ...device.simulator import Device
from .factors import MultifrontalFactors, spill_fronts
from .report import check_factors_ok

__all__ = ["SolvePlan", "DeviceFactorCache", "LevelSolvePlan",
           "SolveBucket", "LevelFactorBlocks"]


@dataclass
class SolveBucket:
    """One (upd_size, sep_size) shape class of a level's active fronts.

    All member fronts share the update-GEMM shapes, so their ``f21`` /
    ``f12`` blocks stack into contiguous ``(bs, u, s)`` / ``(bs, s, u)``
    arrays and their gathers/scatters become single fancy-index
    operations through the precomputed global row matrices.
    """

    u: int
    s: int
    fids: np.ndarray          #: member front ids (front order)
    sep_start: np.ndarray     #: per member, first global sep row
    seg_start: np.ndarray     #: per member, start into the level's
    #: concatenated update positions
    sep_mat: np.ndarray       #: (bs, s) global sep rows
    sep_flat: np.ndarray      #: (bs*s,) flattened ``sep_mat``
    upd_mat: np.ndarray       #: (bs, u) global update rows
    out_pos: np.ndarray       #: (bs*u,) positions into the delta buffer

    @property
    def batch_size(self) -> int:
        return len(self.fids)


@dataclass
class LevelSolvePlan:
    """Precomputed execution structure of one assembly-tree level."""

    fids: list[int]           #: fronts with ``sep_size > 0``, front order
    sep_m: np.ndarray         #: per-front separator sizes (int64)
    sep_starts: np.ndarray    #: per-front first global sep row
    max_sep: int
    # rehearsed pivot application: one gather replaces the swap loops
    piv_dst: np.ndarray       #: global rows that move (destinations)
    piv_src: np.ndarray       #: their source rows after all swaps
    swaps_total: int          #: off-diagonal pivot count (cost parity)
    # update structure (fronts with ``upd_size > 0`` only)
    upd_rows: np.ndarray      #: concatenated global update rows
    rounds: list[tuple[np.ndarray, np.ndarray]]  #: (rows, positions)
    buckets: list[SolveBucket] = field(default_factory=list)
    # order-independent cost sums matching the naive loop's accumulators
    sum_us: int = 0           #: Σ upd·sep over active fronts
    sum_u: int = 0            #: Σ upd over active fronts
    sum_s_active: int = 0     #: Σ sep over active fronts

    @property
    def nfronts(self) -> int:
        return len(self.fids)


def _build_rounds(upd_rows: np.ndarray
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition concatenated update positions into conflict-free rounds.

    Position ``i`` lands in round ``occ(i)`` = how many earlier positions
    target the same global row.  A stable sort keeps equal rows in front
    order, so round ``r`` holds every row's ``r``-th contribution and the
    per-row application order matches the sequential reference exactly.
    """
    n = len(upd_rows)
    if n == 0:
        return []
    order = np.argsort(upd_rows, kind="stable")
    sorted_rows = upd_rows[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_rows[1:] != sorted_rows[:-1]
    idx = np.arange(n, dtype=np.int64)
    group_start = idx[new_group][np.cumsum(new_group) - 1]
    occ = np.empty(n, dtype=np.int64)
    occ[order] = idx - group_start
    n_rounds = int(occ.max()) + 1
    return [(upd_rows[occ == r], np.nonzero(occ == r)[0])
            for r in range(n_rounds)]


class SolvePlan:
    """Per-level execution plan built once from the numeric factors.

    Owns a :class:`~repro.batched.engine.BatchEngine` so the TRSM/DCWI
    plans cached during the first solve are reused by every later solve
    (including the refinement passes of one ``SparseLU.solve`` call).
    """

    def __init__(self, factors: MultifrontalFactors, *,
                 engine: BatchEngine | None = None):
        check_factors_ok(factors, "build a solve plan")
        self.factors = factors
        self.symb = factors.symb
        self.engine = engine if isinstance(engine, BatchEngine) \
            else BatchEngine()
        self.dtype = factors.dtype
        self.levels: list[LevelSolvePlan] = []
        for fids in self.symb.levels():
            fids = [f for f in fids if self.symb.fronts[f].sep_size > 0]
            if fids:
                self.levels.append(self._build_level(fids))

    # ------------------------------------------------------------------
    def _build_level(self, fids: list[int]) -> LevelSolvePlan:
        symb, factors = self.symb, self.factors
        infos = [symb.fronts[f] for f in fids]
        sep_m = np.array([i.sep_size for i in infos], dtype=np.int64)
        sep_starts = np.array([i.sep_begin for i in infos], dtype=np.int64)

        # Rehearse every front's swap sequence into one permutation.
        perm, swaps = BatchEngine._rehearse_permutation(
            [factors.fronts[f].ipiv for f in fids], int(sep_m.max()))
        dst_parts, src_parts = [], []
        for i, info in enumerate(infos):
            s = info.sep_size
            moved = np.nonzero(perm[i, :s] != np.arange(s))[0]
            if len(moved):
                dst_parts.append(info.sep_begin + moved)
                src_parts.append(info.sep_begin + perm[i, moved])
        cat = lambda parts: (np.concatenate(parts) if parts  # noqa: E731
                             else np.empty(0, dtype=np.int64))

        # Active fronts (upd_size > 0): concatenated update rows, the
        # scatter rounds, and the (u, s) shape buckets.
        act = [(i, info) for i, info in enumerate(infos) if info.upd_size]
        upd_rows = cat([info.upd for _i, info in act])
        seg_starts = np.zeros(len(act), dtype=np.int64)
        if act:
            sizes = np.array([info.upd_size for _i, info in act],
                             dtype=np.int64)
            seg_starts[1:] = np.cumsum(sizes)[:-1]

        lp = LevelSolvePlan(
            fids=fids, sep_m=sep_m, sep_starts=sep_starts,
            max_sep=int(sep_m.max()),
            piv_dst=cat(dst_parts), piv_src=cat(src_parts),
            swaps_total=int(swaps.sum()),
            upd_rows=upd_rows, rounds=_build_rounds(upd_rows))
        if act:
            shapes = np.array([[info.upd_size, info.sep_size]
                               for _i, info in act], dtype=np.int64)
            uniq, inv = np.unique(shapes, axis=0, return_inverse=True)
            inv = inv.ravel()
            for g in range(len(uniq)):
                members = np.nonzero(inv == g)[0]
                u, s = int(uniq[g, 0]), int(uniq[g, 1])
                b_sep = sep_starts[[act[m][0] for m in members]]
                b_seg = seg_starts[members]
                sep_mat = b_sep[:, None] + np.arange(s, dtype=np.int64)
                upd_pos = b_seg[:, None] + np.arange(u, dtype=np.int64)
                lp.buckets.append(SolveBucket(
                    u=u, s=s,
                    fids=np.array([fids[act[m][0]] for m in members],
                                  dtype=np.int64),
                    sep_start=b_sep, seg_start=b_seg,
                    sep_mat=sep_mat, sep_flat=sep_mat.reshape(-1),
                    upd_mat=upd_rows[upd_pos],
                    out_pos=upd_pos.reshape(-1)))
            lp.sum_us = int(np.sum(shapes[:, 0] * shapes[:, 1]))
            lp.sum_u = int(np.sum(shapes[:, 0]))
            lp.sum_s_active = int(np.sum(shapes[:, 1]))
        return lp

    # ------------------------------------------------------------------
    def level_nbytes(self, lp: LevelSolvePlan) -> int:
        """Device bytes a resident level holds (f11 + stacked f21/f12)."""
        itemsize = np.dtype(self.dtype).itemsize
        return int(itemsize * (np.sum(lp.sep_m * lp.sep_m)
                               + 2 * lp.sum_us))

    def total_nbytes(self) -> int:
        return sum(self.level_nbytes(lp) for lp in self.levels)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SolvePlan(levels={len(self.levels)}, "
                f"bytes={self.total_nbytes()})")


class _FrontViews:
    """One bucket's f21 or f12 blocks as views into adopted fronts.

    Indexed like a packed stack (``data[j]`` is member ``j``'s block), so
    the solve kernels take either; it owns no device memory.
    """

    __slots__ = ("data",)

    def __init__(self, views: list) -> None:
        self.data = views

    def free(self) -> None:
        pass


class LevelFactorBlocks:
    """One level's factor blocks on the device.

    ``f11`` is an :class:`IrrBatch` (consumed by irrTRSM); ``f21_stacks``
    / ``f12_stacks`` are per-bucket contiguous 3-D stacks, parallel to
    ``LevelSolvePlan.buckets`` (for an adopted level, per-bucket views
    into the fronts).  Parts are uploaded lazily: a streamed forward pass
    needs only ``f11`` + ``f21``.
    """

    def __init__(self) -> None:
        self.f11: IrrBatch | None = None
        self.f21_stacks: list | None = None
        self.f12_stacks: list | None = None

    def free(self) -> None:
        """Release the level's device memory (idempotent)."""
        if self.f11 is not None:
            self.f11.free()
            self.f11 = None
        for stacks in (self.f21_stacks, self.f12_stacks):
            if stacks is not None:
                for arr in stacks:
                    arr.free()
        self.f21_stacks = None
        self.f12_stacks = None

    def __enter__(self) -> "LevelFactorBlocks":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.free()


class DeviceFactorCache:
    """Device-resident factor storage shared across repeated solves.

    ``memory_budget=None`` keeps every level resident (the first solve
    uploads each level once; later solves — including iterative
    refinement — perform **zero** factor uploads).  A positive integer
    budget keeps only the levels that fit (chosen smallest-first, which
    maximizes the resident level count and hence the per-solve transfer
    round-trips saved); other budgets raise :class:`ValueError`.
    Non-resident levels are streamed per use exactly like the seed path
    (the internal ``_stream_all`` flag forces that mode for one-shot
    solves).

    Adoption: a level whose fronts are all still held on ``device`` by
    the factorization that made them (``FrontFactors.device_front``) is
    *adopted* — its blocks are views into those front buffers, so it
    costs no transfer and no device copy, and it counts the bytes it
    really holds (its whole fronts) against the budget and in
    :attr:`resident_nbytes`.  Device-held fronts the budget does not
    keep are downloaded once and freed at construction, then stream like
    host factors.  The fronts stay owned by their ``FrontFactors``; one
    cache adopts a factorization at a time.

    Under memory pressure the cache *spills*: when an upload hits a
    :class:`~repro.device.memory.DeviceOutOfMemory`, the least recently
    used resident level is evicted (an adopted level downloads its
    fronts first, so the host factors stay authoritative and nothing is
    lost) and the upload retried; each eviction is recorded as a
    ``cache-evict`` in ``device.recovery_log``.  Evicted levels drop
    back to streaming for later acquires.

    Ownership: the cache is a *shared* resource — one
    :class:`~repro.sparse.solver.SparseLU` handle may be solved from
    several threads (a serving layer multiplexes many sessions onto one
    device).  Every mutating entry point (:meth:`acquire`,
    :meth:`evict_lru`, :meth:`free`) takes the cache's re-entrant lock,
    and a whole solve brackets itself with :meth:`exclusive` so a
    concurrent solve on the same handle cannot interleave its uploads
    with this solve's evictions (the interleaving that used to corrupt
    residency bookkeeping).  The lock serializes solves per handle;
    distinct handles (distinct caches) proceed independently.
    """

    def __init__(self, device: Device, factors: MultifrontalFactors,
                 plan: SolvePlan, *, memory_budget: int | None = None,
                 _stream_all: bool = False):
        check_factors_ok(factors, "cache factors on the device")
        self.device = device
        self.factors = factors
        self.plan = plan
        self.memory_budget = validate_memory_budget(memory_budget)
        self._stream_all = bool(_stream_all)
        self.uploads = 0          #: level-part upload events
        self.hits = 0             #: resident re-uses
        self.evictions = 0        #: OOM-pressure spills
        self._resident: dict[int, LevelFactorBlocks] = {}
        self._tick = 0
        self._last_use: dict[int, int] = {}
        self._lock = threading.RLock()
        self._adopted = self._adoptable()
        self._resident_set = self._choose_resident()
        if self._adopted:
            self._settle()

    @contextmanager
    def exclusive(self):
        """Hold the cache for one logical operation (e.g. a full solve).

        Re-entrant: the per-call locking inside :meth:`acquire` /
        :meth:`evict_lru` / :meth:`free` nests freely under it.
        """
        with self._lock:
            yield self

    # ------------------------------------------------------------------
    def _held(self, fid: int) -> bool:
        """Front ``fid`` is still held on this cache's device."""
        front = self.factors.fronts[fid].device_front
        return front is not None and front.device is self.device

    def _adoptable(self) -> set[int]:
        if self._stream_all:
            return set()
        return {li for li, lp in enumerate(self.plan.levels)
                if all(self._held(f) for f in lp.fids)}

    def _level_bytes(self, li: int) -> int:
        """Device bytes level ``li`` holds while resident."""
        lp = self.plan.levels[li]
        if li in self._adopted:
            return sum(self.factors.fronts[f].device_front.nbytes
                       for f in lp.fids)
        return self.plan.level_nbytes(lp)

    def _spill(self, fids) -> None:
        """Download fronts ``fids`` and free their device buffers."""
        spill_fronts(self.factors.fronts[f] for f in fids)

    def _settle(self) -> None:
        """Adopt the resident adoptable levels; spill every other front
        still held on this device."""
        keep = set()
        for li in self._adopted & self._resident_set:
            keep.update(self.plan.levels[li].fids)
        self._spill([f for f in range(len(self.factors.fronts))
                     if f not in keep and self._held(f)])
        self._adopted &= self._resident_set
        for li in self._adopted:
            self._resident[li] = self._adopt(self.plan.levels[li])

    def _adopt(self, lp: LevelSolvePlan) -> LevelFactorBlocks:
        """Level blocks as views into the adopted front buffers."""
        held = {f: self.factors.fronts[f].device_front for f in lp.fids}
        blocks = LevelFactorBlocks()
        blocks.f11 = IrrBatch(self.device, [held[f][:s, :s] for f, s in
                                            zip(lp.fids, lp.sep_m)],
                              lp.sep_m, lp.sep_m)
        blocks.f21_stacks = [_FrontViews([held[f].data[b.s:, :b.s]
                                          for f in b.fids])
                             for b in lp.buckets]
        blocks.f12_stacks = [_FrontViews([held[f].data[:b.s, b.s:]
                                          for f in b.fids])
                             for b in lp.buckets]
        return blocks

    def _choose_resident(self) -> set[int]:
        if self._stream_all:
            return set()
        sizes = [(self._level_bytes(li), li)
                 for li in range(len(self.plan.levels))]
        if self.memory_budget is None:
            return {li for _nb, li in sizes}
        chosen: set[int] = set()
        used = 0
        for nb, li in sorted(sizes):
            if used + nb <= self.memory_budget:
                chosen.add(li)
                used += nb
        return chosen

    def evict_lru(self, *, exclude: int | None = None) -> int | None:
        """Spill the least recently used resident level; return its index.

        The level's device blocks are freed — an adopted level downloads
        its fronts first, so the host copy is authoritative — and the
        level drops out of the resident set, so later acquires stream
        it.  Returns ``None`` when nothing is resident to evict.
        """
        with self._lock:
            candidates = [li for li in self._resident if li != exclude]
            if not candidates:
                return None
            li = min(candidates, key=lambda li: self._last_use.get(li, -1))
            nbytes = self._level_bytes(li)
            if li in self._adopted:
                self._spill(self.plan.levels[li].fids)
                self._adopted.discard(li)
            self._resident.pop(li).free()
            self._resident_set.discard(li)
            self._last_use.pop(li, None)
            self.evictions += 1
        self.device.recovery_log.record(
            "cache-evict", site="DeviceFactorCache",
            detail=f"level {li} ({nbytes} bytes)")
        return li

    @property
    def resident_levels(self) -> set[int]:
        return set(self._resident_set)

    @property
    def resident_nbytes(self) -> int:
        with self._lock:
            return sum(self._level_bytes(li) for li in self._resident_set)

    # ------------------------------------------------------------------
    def _upload_f11(self, lp: LevelSolvePlan) -> IrrBatch:
        arrays = []
        try:
            for f in lp.fids:
                arrays.append(
                    self.device.from_host(self.factors.fronts[f].f11))
        except BaseException:
            for a in arrays:
                a.free()
            raise
        return IrrBatch(self.device, arrays, lp.sep_m, lp.sep_m)

    def _upload_stacks(self, lp: LevelSolvePlan, which: str) -> list:
        """Pack one bucket's f21/f12 blocks and upload in one transfer."""
        stacks = []
        try:
            for b in lp.buckets:
                blocks = [getattr(self.factors.fronts[f], which)
                          for f in b.fids]
                stacks.append(pack_to_device(self.device, blocks,
                                             dtype=self.plan.dtype))
        except BaseException:
            for s in stacks:
                s.free()
            raise
        return stacks

    def _acquire_once(self, li: int,
                      part: str) -> tuple[LevelFactorBlocks, bool]:
        lp = self.plan.levels[li]
        if li in self._resident_set:
            blocks = self._resident.get(li)
            if blocks is None and li in self._adopted:
                blocks = self._resident[li] = self._adopt(lp)
            elif blocks is None:
                blocks = LevelFactorBlocks()
                try:
                    blocks.f11 = self._upload_f11(lp)
                    blocks.f21_stacks = self._upload_stacks(lp, "f21")
                    blocks.f12_stacks = self._upload_stacks(lp, "f12")
                except BaseException:
                    blocks.free()
                    raise
                self._resident[li] = blocks
                self.uploads += 1
            else:
                self.hits += 1
            self._tick += 1
            self._last_use[li] = self._tick
            return blocks, False
        blocks = LevelFactorBlocks()
        try:
            blocks.f11 = self._upload_f11(lp)
            if part == "fwd":
                blocks.f21_stacks = self._upload_stacks(lp, "f21")
            else:
                blocks.f12_stacks = self._upload_stacks(lp, "f12")
        except BaseException:
            blocks.free()
            raise
        self.uploads += 1
        return blocks, True

    def acquire(self, li: int, part: str) -> tuple[LevelFactorBlocks, bool]:
        """Get level ``li``'s blocks for one sweep direction.

        ``part`` is ``"fwd"`` (needs f11 + f21) or ``"bwd"`` (f11 + f12).
        Returns ``(blocks, owned)``; an *owned* result is streamed and
        must be freed by the caller after use (it supports the context
        manager protocol for that).  An upload that hits device OOM
        spills resident levels LRU-first and retries; the OOM propagates
        only once nothing is left to evict.  A failed acquire never
        leaves a partial upload behind.
        """
        if part not in ("fwd", "bwd"):
            raise ValueError(f"invalid part {part!r}")
        with self._lock:
            while True:
                try:
                    return self._acquire_once(li, part)
                except DeviceOutOfMemory:
                    if self.evict_lru(exclude=li) is None:
                        raise

    def free(self, *, spill: bool = True) -> None:
        """Release all resident device memory (the cache stays usable).

        Adopted levels download their fronts first, so the factors stay
        valid and later acquires upload them like host factors.
        ``spill=False`` only drops this cache's views of adopted fronts
        (those levels stream from then on), leaving the fronts held for
        a successor cache on the same device or for their owner to
        release.
        """
        with self._lock:
            for blocks in self._resident.values():
                blocks.free()
            self._resident.clear()
            self._last_use.clear()
            if self._adopted:
                if spill:
                    self._spill([f for li in self._adopted
                                 for f in self.plan.levels[li].fids])
                else:
                    self._resident_set -= self._adopted
                self._adopted.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"DeviceFactorCache(levels={len(self.plan.levels)}, "
                f"resident={len(self._resident_set)}, "
                f"uploads={self.uploads}, hits={self.hits}, "
                f"evictions={self.evictions})")

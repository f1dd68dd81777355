"""Sparse sessions: SparseLU handles multiplexed on one device.

A :class:`ServeSession` wraps one factored
:class:`~repro.sparse.solver.SparseLU` for service-mediated solves.  Each
session keeps its own :class:`~repro.sparse.numeric.solve_plan.DeviceFactorCache`
device residency — from factorization on, when the cache adopts the
fronts a device factorization left there — but all sessions of a
service draw from *one* shared ``memory_budget``: the
:class:`MemoryArbiter` splits the service budget evenly across the
sessions currently open, and every open/close re-budgets the survivors.
A new session applies its share when it opens (fronts that do not fit
are downloaded and freed); a session whose share shrank later simply
rebuilds its cache on the next solve (``SparseLU`` frees the old
residency when the budget changes), so device bytes follow the session
population without any explicit rebalancing pass.
"""

from __future__ import annotations

import itertools
import threading

from ..device.memory import validate_memory_budget

__all__ = ["MemoryArbiter", "ServeSession"]


class MemoryArbiter:
    """Splits one device-byte budget across the active sparse sessions.

    ``total=None`` means unbudgeted: every session keeps all its factor
    levels resident (the cache's own default).  Otherwise each active
    session is entitled to ``max(1, total // n_active)`` bytes.  The
    split is deliberately even — sessions are peers; a proportional
    policy can subclass :meth:`share`.
    """

    def __init__(self, total: int | None, *, stats=None):
        self.total = validate_memory_budget(total, name="sparse memory"
                                            " budget")
        self._active: set[int] = set()
        self._lock = threading.Lock()
        self._stats = stats

    @property
    def n_active(self) -> int:
        with self._lock:
            return len(self._active)

    def register(self, sid: int) -> None:
        with self._lock:
            self._active.add(sid)
        if self._stats is not None:
            self._stats.on_rebudget()

    def unregister(self, sid: int) -> None:
        with self._lock:
            self._active.discard(sid)
        if self._stats is not None:
            self._stats.on_rebudget()

    def share(self) -> int | None:
        """Current per-session budget in bytes (``None`` = unbudgeted)."""
        if self.total is None:
            return None
        with self._lock:
            n = max(1, len(self._active))
        return max(1, self.total // n)


class ServeSession:
    """A factored sparse system held open for repeated served solves.

    Returned by ``SolverService.factor(A)`` for sparse ``A`` — the
    sparse analogue of the dense ``FactorHandle``.  Solves submitted
    against it run on the service's dispatcher thread under the
    session's *current* arbiter share; the underlying ``SparseLU``
    already serializes cache use per handle, so a session is safe to
    solve from any thread through the service.

    Diagnostics ride on the session: :attr:`factor_report` is the
    factorization's :class:`~repro.sparse.numeric.report.FactorReport`
    (or ``None`` for report-less backends).
    """

    _ids = itertools.count(1)

    def __init__(self, solver, device, arbiter: MemoryArbiter):
        self.sid = next(self._ids)
        self.solver = solver
        self.device = device
        self._arbiter = arbiter
        self._closed = False
        arbiter.register(self.sid)
        # the fronts a device factorization left resident fit the share
        # from the start, not only from the first solve on
        solver.rebudget(device, self.budget)

    # -- inspection ----------------------------------------------------
    @property
    def n(self) -> int:
        return self.solver.n

    @property
    def factor_report(self):
        return self.solver.factor_report

    @property
    def precision(self) -> str:
        """Working precision of the session's factors (``"fp64"`` or
        ``"fp32"``; solves always refine back to FP64 accuracy)."""
        return self.solver.precision

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def budget(self) -> int | None:
        """This session's current share of the service's sparse budget."""
        return self._arbiter.share()

    # -- dispatcher-side execution --------------------------------------
    def solve_on_device(self, b, **solve_kwargs):
        """Run one solve under the current arbiter share (dispatcher
        thread).  Budget churn between calls is handled by ``SparseLU``:
        a changed budget frees the old cache and builds a new one."""
        if self._closed:
            raise RuntimeError(f"session {self.sid} is closed")
        return self.solver.solve(b, device=self.device,
                                 memory_budget=self.budget, **solve_kwargs)

    def close(self) -> None:
        """Release the session's device residency and its budget share.

        The handle's factors go with it (:meth:`SparseLU.release`); the
        factor report stays readable.  Idempotent.  The remaining
        sessions' shares grow on their next solve (the arbiter re-splits
        on unregister).
        """
        if self._closed:
            return
        self._closed = True
        self._arbiter.unregister(self.sid)
        self.solver.release()

    def __enter__(self) -> "ServeSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return f"ServeSession(sid={self.sid}, n={self.n}, {state})"

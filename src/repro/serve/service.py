"""Multi-tenant async solver service: cross-request coalescing front end.

The blocked multi-RHS pipeline (PR 1/2) makes ``k`` matvecs against one
operator cost one pad / batched-FFT / Phase-3 / IFFT / unpad pass.  This
module turns that into a *serving* win: an asyncio
:class:`SolverService` accepts per-tenant ``matvec`` / ``rmatvec`` /
``solve`` requests, groups in-flight requests that share an operator
fingerprint (plus kind, precision config and resolved determinism
mode), and flushes each group as
one blocked apply — on ``max_block_k`` queued columns or a micro-batch
window timeout, whichever first — then scatters per-request result
columns back to their futures.

**Determinism.**  Coalescing must not change anyone's answer: by
default flushes run the engines' ``deterministic=True`` blocked path,
whose column ``j`` is *bitwise* what a sequential ``matvec`` of request
``j`` returns (see :meth:`repro.core.matvec.FFTMatvec.matmat`).  A
request therefore cannot observe whether it shared a batch.  Requests
may override the mode per call (``deterministic=False`` buys the fast
blocked GEMM); the resolved mode is part of the coalescing key, so a
deterministic request can never be flushed through a fast-mode pass —
the same separation the engines' ``geometry_key`` enforces for
``reduction="pairwise"`` engine instances in the
:class:`~repro.serve.cache.EngineCache`.  ``solve``
requests coalesce at the CG level — each iteration applies the
Gauss-Newton Hessian to all k systems in one blocked pass — and are
tolerance-equivalent (same stopping rule per column), not bitwise.

**Backpressure and fairness.**  The queue is bounded: past
``max_pending`` in-flight requests new submissions are load-shed with
:class:`ServiceOverloadedError`; a per-tenant inflight cap rejects
monopolizing tenants with :class:`TenantThrottledError`.  When a flush
has more candidates than ``max_block_k``, columns are picked by
weighted fair queuing — the tenant with the smallest
``served / weight`` virtual time goes first, FIFO within a tenant — so
a weight-2 tenant gets twice the columns of a weight-1 tenant under
contention and nobody starves.

**Engine residency.**  Engines are built lazily through an
:class:`~repro.serve.cache.EngineCache` under a device byte budget;
every flush trues up the engine's footprint (arenas and spectrum caches
grow lazily) so LRU eviction sees honest numbers.  All engine work runs
on one executor thread, which serializes applies per arena — the
:class:`~repro.util.workspace.Workspace` re-entrancy guard would raise
otherwise — while the event loop stays free to accept requests.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.matvec import FFTMatvec
from repro.comm.fault import RankFailure, SilentCorruption
from repro.core.operator import ForwardOperator, GaussNewtonHessian, IdentityOperator
from repro.core.precision import PrecisionConfig
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.serve.cache import EngineCache, operator_fingerprint
from repro.util.validation import ReproError

__all__ = [
    "ServeError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "TenantThrottledError",
    "DeadlineExpiredError",
    "UnknownOperatorError",
    "SolveOptions",
    "LatencyHistogram",
    "ServiceStats",
    "SolverService",
]


class ServeError(ReproError):
    """Base class for serving-layer failures."""


class ServiceClosedError(ServeError):
    """Submission after :meth:`SolverService.close`."""


class ServiceOverloadedError(ServeError):
    """Load shed: the bounded request queue is full."""


class TenantThrottledError(ServeError):
    """A tenant exceeded its per-tenant max-inflight cap."""


class DeadlineExpiredError(ServeError):
    """A request's ``deadline_s`` elapsed before its flush ran."""


class UnknownOperatorError(ServeError):
    """A request referenced an operator handle that was never registered."""


@dataclass(frozen=True)
class SolveOptions:
    """Parameters of a ``solve`` request (part of its coalescing group).

    A solve minimizes ``||F m - d||^2 / noise_std^2 + ridge * ||m||^2``
    by CG on the regularized Gauss-Newton normal equations.  Requests
    only coalesce when *all* of these match — mixing tolerances inside
    one block CG would change stopping behaviour.
    """

    noise_std: float = 1.0
    ridge: float = 1e-8
    tol: float = 1e-8
    maxiter: int = 200


class LatencyHistogram:
    """Latencies in a fixed number of log-spaced buckets: count, sum,
    min, max and any percentile to within one bucket (9 % of the value),
    at the same size after a hundred samples or a hundred million."""

    PER_OCTAVE, FLOOR_S, BUCKETS = 8, 1e-6, 256  # 1 us ... 1.2 h, then clamped
    WIDTH = 2.0 ** (1.0 / PER_OCTAVE) - 1.0  # relative width of one bucket

    def __init__(self) -> None:
        self.counts = [0] * self.BUCKETS
        self.count, self.sum, self.min, self.max = 0, 0.0, math.inf, 0.0

    def add(self, seconds: float) -> None:
        """Count one latency."""
        octaves = math.log2(max(seconds, self.FLOOR_S) / self.FLOOR_S)
        self.counts[min(self.BUCKETS - 1, int(octaves * self.PER_OCTAVE))] += 1
        self.count, self.sum = self.count + 1, self.sum + seconds
        self.min, self.max = min(self.min, seconds), max(self.max, seconds)

    def percentile(self, q: float) -> float:
        """Upper edge of the bucket holding the ``q``-th percentile
        sample, clipped to the observed range (NaN when empty)."""
        seen, rank = 0, q / 100.0 * self.count
        for i, n in enumerate(self.counts):
            seen += n
            if n and seen >= rank:
                last = i + 1 == self.BUCKETS  # open-ended: everything slower
                edge = math.inf if last else self.FLOOR_S * 2.0 ** ((i + 1) / self.PER_OCTAVE)
                return min(self.max, max(self.min, edge))
        return math.nan


@dataclass
class ServiceStats:
    """Cumulative service counters (see :meth:`SolverService.stats`)."""

    submitted: int = 0  # accepted requests
    completed: int = 0  # futures resolved with a result
    failed: int = 0  # futures resolved with an exception
    rejected_overload: int = 0  # load-shed at the bounded queue
    rejected_tenant: int = 0  # per-tenant inflight cap hits
    flushes: int = 0  # blocked applies issued (engine passes)
    coalesced_requests: int = 0  # requests that shared a flush (batch >= 2)
    max_batch: int = 0  # widest flush seen
    batched_columns: int = 0  # total request columns across flushes
    rank_failures: int = 0  # flushes whose engine died mid-pass
    flush_retries: int = 0  # retry passes issued after an engine death
    budget_exhausted: int = 0  # requests failed by the tenant failure budget
    deadline_expired: int = 0  # requests dropped because their deadline passed
    sdc_detections: int = 0  # flushes that tripped a silent-corruption check
    sdc_rebuilds: int = 0  # engine evictions forced by repeat-offender tenants
    # Submit-to-result latency per request kind, plus "all" over every kind.
    latency: Dict[str, LatencyHistogram] = field(default_factory=dict)

    @property
    def mean_batch(self) -> float:
        """Average flush width (request columns per engine pass)."""
        return self.batched_columns / self.flushes if self.flushes else 0.0


@dataclass
class _Request:
    """One queued request: payload plus its completion future."""

    tenant: str
    payload: np.ndarray
    future: "asyncio.Future[np.ndarray]"
    t_submit: float
    seq: int
    deadline: Optional[float] = None  # absolute perf_counter time, or None


# A coalescing group: requests here may share one blocked apply.  The
# resolved determinism mode is part of the key: a request that asked for
# the bitwise path must never ride a fast-mode flush (and vice versa),
# whatever the service default is.
_GroupKey = Tuple[str, str, str, bool, Optional[SolveOptions]]


class SolverService:
    """Asyncio front end coalescing tenant requests into blocked applies.

    Parameters
    ----------
    cache:
        The :class:`EngineCache` engines are built into (and evicted
        from, under its byte budget).
    max_block_k:
        Flush a group as soon as this many columns are queued; also the
        widest blocked apply ever issued.  ``1`` disables coalescing —
        the serve-one baseline with identical asyncio overhead.
    window:
        Micro-batch window in seconds: a group flushes at most this long
        after its oldest queued request arrived, full or not.
    max_pending:
        Bound on queued-but-unflushed requests across all groups; past
        it submissions raise :class:`ServiceOverloadedError`.
    max_inflight_per_tenant:
        Per-tenant cap on submitted-but-unfinished requests (None = no
        cap); past it submissions raise :class:`TenantThrottledError`.
    tenant_weights:
        Weighted-fair-queuing weights (default 1.0).  Under contention a
        tenant's share of flush columns is proportional to its weight.
    deterministic:
        Default flush mode: run through the engines' bitwise per-column
        Phase 3 (default ``True``).  ``False`` uses the faster blocked
        GEMM whose columns match sequential applies only to rounding.
        Every request can override per call; requests only coalesce
        with requests that *resolved* to the same mode.
    sdc_escalation_threshold:
        A tenant whose flushes trip this many silent-corruption
        detections is treated as a repeat offender: the flush's engine
        is evicted so the retry rebuilds it from scratch (counted in
        ``sdc_rebuilds``).  Below the threshold a detection just retries
        on the same engine — the corrupted buffer was transient.
    """

    def __init__(
        self,
        cache: EngineCache,
        max_block_k: int = 16,
        window: float = 0.002,
        max_pending: int = 256,
        max_inflight_per_tenant: Optional[int] = None,
        tenant_weights: Optional[Dict[str, float]] = None,
        deterministic: bool = True,
        max_flush_retries: int = 2,
        retry_backoff_s: float = 0.0,
        tenant_failure_budget: Optional[int] = None,
        sdc_escalation_threshold: int = 2,
    ) -> None:
        if max_block_k < 1:
            raise ReproError(f"max_block_k must be >= 1, got {max_block_k}")
        if window < 0:
            raise ReproError(f"window must be >= 0, got {window}")
        if max_pending < 1:
            raise ReproError(f"max_pending must be >= 1, got {max_pending}")
        if max_flush_retries < 0:
            raise ReproError(
                f"max_flush_retries must be >= 0, got {max_flush_retries}"
            )
        if retry_backoff_s < 0:
            raise ReproError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}"
            )
        if tenant_failure_budget is not None and tenant_failure_budget < 0:
            raise ReproError(
                "tenant_failure_budget must be >= 0, got "
                f"{tenant_failure_budget}"
            )
        if sdc_escalation_threshold < 1:
            raise ReproError(
                "sdc_escalation_threshold must be >= 1, got "
                f"{sdc_escalation_threshold}"
            )
        for tenant, w in (tenant_weights or {}).items():
            if w <= 0:
                raise ReproError(f"tenant {tenant!r} weight must be > 0, got {w}")
        self.cache = cache
        self.max_block_k = int(max_block_k)
        self.window = float(window)
        self.max_pending = int(max_pending)
        self.max_inflight_per_tenant = max_inflight_per_tenant
        self.tenant_weights = dict(tenant_weights or {})
        self.deterministic = bool(deterministic)
        self.max_flush_retries = int(max_flush_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.tenant_failure_budget = tenant_failure_budget
        self.sdc_escalation_threshold = int(sdc_escalation_threshold)
        self._tenant_failures: Dict[str, int] = {}
        self._tenant_sdc: Dict[str, int] = {}

        self._builders: Dict[str, Callable[[], Any]] = {}
        self._shapes: Dict[str, Tuple[int, int, int]] = {}
        self._groups: Dict[_GroupKey, Deque[_Request]] = {}
        self._timers: Dict[_GroupKey, "asyncio.TimerHandle"] = {}
        self._pending_total = 0
        self._tenant_inflight: Dict[str, int] = {}
        self._served: Dict[str, float] = {}  # WFQ virtual time per tenant
        self._seq = 0
        self._closed = False
        self._flushing: "set[_GroupKey]" = set()
        self._flush_tasks: "set[asyncio.Task]" = set()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="solver-service"
        )
        self._stats = ServiceStats()

    # -- registration ---------------------------------------------------------
    def register(
        self,
        matrix: Union[BlockTriangularToeplitz, np.ndarray],
        builder: Optional[Callable[[], Any]] = None,
        name: Optional[str] = None,
    ) -> str:
        """Register an operator; returns its handle (the coalescing key).

        ``matrix`` is fingerprinted (content + shape) so re-registering
        the same operator — any tenant, any time — yields the same
        handle and its requests coalesce.  ``builder`` constructs the
        engine on first use (cache miss); the default builds a
        single-device :class:`FFTMatvec` with a private workspace arena.
        Builders **must** enable a workspace per engine — the arena is
        what the cache budget meters and what keeps concurrent tenants'
        applies from sharing buffers.  ``name`` prefixes the handle for
        readable logs; it does not affect grouping semantics beyond
        being part of the handle string.
        """
        mat = (
            matrix
            if isinstance(matrix, BlockTriangularToeplitz)
            else BlockTriangularToeplitz(np.asarray(matrix))
        )
        digest = operator_fingerprint(mat)
        prefix = name if name is not None else "op"
        handle = f"{prefix}-{mat.nt}x{mat.nd}x{mat.nm}-{digest}"
        if builder is None:
            def builder(m=mat):  # noqa: E306 - default engine builder
                return FFTMatvec(m, workspace=True)

        self._builders[handle] = builder
        self._shapes[handle] = (mat.nt, mat.nd, mat.nm)
        return handle

    # -- public request API ---------------------------------------------------
    async def matvec(
        self,
        handle: str,
        m: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        tenant: str = "default",
        deterministic: Optional[bool] = None,
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        """``d = F m`` for one tenant; may share a blocked pass with
        concurrent requests on the same handle/config and resolved
        determinism mode (bitwise-identical to an uncoalesced apply in
        deterministic mode).  ``deterministic`` overrides the service
        default for this request only.  ``deadline_s`` is a per-request
        latency budget: a request still queued (or awaiting a retry)
        when it expires is dropped from its coalescing group and fails
        with :class:`DeadlineExpiredError` instead of riding a flush
        whose result nobody wants."""
        nt, nd, nm = self._shape(handle)
        payload = self._as_block(m, (nt, nm), "matvec input")
        return await self._submit(
            "matvec", handle, payload, config, tenant, None, deterministic,
            deadline_s,
        )

    async def rmatvec(
        self,
        handle: str,
        d: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        tenant: str = "default",
        deterministic: Optional[bool] = None,
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        """``m = F* d`` for one tenant (adjoint of :meth:`matvec`, same
        coalescing, bitwise guarantees and per-request ``deterministic``
        / ``deadline_s`` semantics)."""
        nt, nd, nm = self._shape(handle)
        payload = self._as_block(d, (nt, nd), "rmatvec input")
        return await self._submit(
            "rmatvec", handle, payload, config, tenant, None, deterministic,
            deadline_s,
        )

    async def solve(
        self,
        handle: str,
        d: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        tenant: str = "default",
        options: Optional[SolveOptions] = None,
        deterministic: Optional[bool] = None,
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        """Regularized least-squares solve for one tenant.

        Returns the CG solution of ``(F* F / s^2 + ridge I) m = F* d /
        s^2`` with ``s = options.noise_std``.  Concurrent solves sharing
        handle, config and options run as one *block* CG — every
        iteration costs one blocked Hessian pass for all k systems
        instead of k — with per-column stopping, so results match a solo
        solve to tolerance (not bitwise; see the module docstring).
        """
        nt, nd, nm = self._shape(handle)
        payload = self._as_block(d, (nt, nd), "solve input")
        opts = options if options is not None else SolveOptions()
        return await self._submit(
            "solve", handle, payload, config, tenant, opts, deterministic,
            deadline_s,
        )

    # -- lifecycle ------------------------------------------------------------
    async def drain(self) -> None:
        """Flush every queued group now and wait for in-flight work."""
        for gkey in list(self._groups.keys()):
            self._cancel_timer(gkey)
            self._spawn_flush(gkey)
        while self._flush_tasks:
            await asyncio.gather(*list(self._flush_tasks), return_exceptions=True)

    async def close(self) -> None:
        """Drain outstanding requests, then refuse new ones and shut
        down the executor.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        await self.drain()
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "SolverService":
        """``async with SolverService(...)`` support."""
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        """Close on context exit."""
        await self.close()

    def stats(self) -> ServiceStats:
        """The live cumulative counters (not a copy)."""
        return self._stats

    def tenant_failures(self) -> Dict[str, int]:
        """Rank failures charged to each tenant so far (a copy)."""
        return dict(self._tenant_failures)

    def tenant_sdc_detections(self) -> Dict[str, int]:
        """Silent-corruption detections charged per tenant (a copy)."""
        return dict(self._tenant_sdc)

    # -- submission internals -------------------------------------------------
    def _shape(self, handle: str) -> Tuple[int, int, int]:
        if handle not in self._shapes:
            raise UnknownOperatorError(f"operator handle {handle!r} not registered")
        return self._shapes[handle]

    @staticmethod
    def _as_block(v: np.ndarray, shape: Tuple[int, int], what: str) -> np.ndarray:
        a = np.asarray(v, dtype=np.float64)
        if a.ndim == 1 and a.size == shape[0] * shape[1]:
            a = a.reshape(shape)
        if a.shape != shape:
            raise ReproError(f"{what} must be shaped {shape}, got {a.shape}")
        return np.ascontiguousarray(a)

    async def _submit(
        self,
        kind: str,
        handle: str,
        payload: np.ndarray,
        config: Union[str, PrecisionConfig],
        tenant: str,
        options: Optional[SolveOptions],
        deterministic: Optional[bool] = None,
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        if deadline_s is not None and deadline_s <= 0:
            raise ReproError(f"deadline_s must be > 0, got {deadline_s}")
        if self._closed:
            raise ServiceClosedError("service is closed")
        if handle not in self._builders:
            raise UnknownOperatorError(f"operator handle {handle!r} not registered")
        if self._pending_total >= self.max_pending:
            self._stats.rejected_overload += 1
            raise ServiceOverloadedError(
                f"queue full ({self._pending_total} pending >= "
                f"max_pending={self.max_pending})"
            )
        cap = self.max_inflight_per_tenant
        if cap is not None and self._tenant_inflight.get(tenant, 0) >= cap:
            self._stats.rejected_tenant += 1
            raise TenantThrottledError(
                f"tenant {tenant!r} has {self._tenant_inflight[tenant]} requests "
                f"in flight (cap {cap})"
            )

        loop = asyncio.get_running_loop()
        fut: "asyncio.Future[np.ndarray]" = loop.create_future()
        self._seq += 1
        t_submit = time.perf_counter()
        req = _Request(
            tenant=tenant,
            payload=payload,
            future=fut,
            t_submit=t_submit,
            seq=self._seq,
            deadline=None if deadline_s is None else t_submit + deadline_s,
        )
        det = self.deterministic if deterministic is None else bool(deterministic)
        gkey: _GroupKey = (
            handle, kind, str(PrecisionConfig.parse(config)), det, options
        )
        group = self._groups.setdefault(gkey, deque())
        group.append(req)
        self._pending_total += 1
        self._tenant_inflight[tenant] = self._tenant_inflight.get(tenant, 0) + 1
        self._stats.submitted += 1

        if gkey in self._flushing:
            # A pass is already on the engine for this group: let the
            # batch keep forming — the completing flush re-dispatches
            # immediately, so width adapts to the backlog under load.
            pass
        elif len(group) >= self.max_block_k:
            self._cancel_timer(gkey)
            self._spawn_flush(gkey)
        elif gkey not in self._timers:
            self._timers[gkey] = loop.call_later(
                self.window, self._on_window, gkey
            )
        try:
            return await fut
        finally:
            self._tenant_inflight[tenant] -= 1
            if self._tenant_inflight[tenant] <= 0:
                del self._tenant_inflight[tenant]

    def _on_window(self, gkey: _GroupKey) -> None:
        """Window-timeout callback: flush whatever the group holds."""
        self._timers.pop(gkey, None)
        self._spawn_flush(gkey)

    def _cancel_timer(self, gkey: _GroupKey) -> None:
        timer = self._timers.pop(gkey, None)
        if timer is not None:
            timer.cancel()

    def _spawn_flush(self, gkey: _GroupKey) -> None:
        task = asyncio.get_running_loop().create_task(self._flush(gkey))
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_tasks.discard)

    # -- fair selection -------------------------------------------------------
    def _weight(self, tenant: str) -> float:
        return float(self.tenant_weights.get(tenant, 1.0))

    def _select(self, group: Deque[_Request]) -> List[_Request]:
        """Pick up to ``max_block_k`` requests by weighted fair queuing.

        Tenants are charged virtual time ``1 / weight`` per selected
        column; the tenant with the least virtual time picks next (FIFO
        within a tenant, submit order breaking ties).  Uncontended
        groups take everything that fits, oldest first.
        """
        take: List[_Request] = []
        if len(group) <= self.max_block_k:
            take.extend(group)
            group.clear()
            for req in take:
                self._served[req.tenant] = (
                    self._served.get(req.tenant, 0.0) + 1.0 / self._weight(req.tenant)
                )
            return take
        by_tenant: Dict[str, Deque[_Request]] = {}
        for req in group:
            by_tenant.setdefault(req.tenant, deque()).append(req)
        while len(take) < self.max_block_k and by_tenant:
            tenant = min(
                by_tenant,
                key=lambda t: (self._served.get(t, 0.0), by_tenant[t][0].seq),
            )
            req = by_tenant[tenant].popleft()
            if not by_tenant[tenant]:
                del by_tenant[tenant]
            self._served[tenant] = (
                self._served.get(tenant, 0.0) + 1.0 / self._weight(tenant)
            )
            take.append(req)
        taken = {id(r) for r in take}
        remaining = [r for r in group if id(r) not in taken]
        group.clear()
        group.extend(remaining)
        return take

    # -- flushing -------------------------------------------------------------
    def _drop_expired(self, batch: List[_Request]) -> List[_Request]:
        """Fail requests whose deadline passed; return the live rest.

        Runs right before the engine pass (and before every retry pass)
        so an expired request never occupies a flush column — its
        tenant already stopped waiting for the answer.
        """
        now = time.perf_counter()
        live: List[_Request] = []
        for req in batch:
            if req.deadline is not None and now > req.deadline:
                self._stats.deadline_expired += 1
                self._stats.failed += 1
                if not req.future.done():
                    req.future.set_exception(
                        DeadlineExpiredError(
                            f"request from tenant {req.tenant!r} exceeded its "
                            f"{req.deadline - req.t_submit:.3g}s deadline "
                            "before its flush ran"
                        )
                    )
            else:
                live.append(req)
        return live

    async def _flush(self, gkey: _GroupKey) -> None:
        if gkey in self._flushing:
            return  # the in-flight pass re-dispatches on completion
        group = self._groups.get(gkey)
        if not group:
            self._groups.pop(gkey, None)
            return
        self._cancel_timer(gkey)
        batch = self._select(group)
        if not group:
            del self._groups[gkey]
        self._pending_total -= len(batch)
        self._flushing.add(gkey)
        loop = asyncio.get_running_loop()
        attempt = 0
        try:
            while batch:
                batch = self._drop_expired(batch)
                if not batch:
                    break
                try:
                    columns = await loop.run_in_executor(
                        self._executor, self._execute, gkey, batch
                    )
                except RankFailure as exc:
                    # A rank died under this batch's engine.  The engine's
                    # grid is gone — evict it so the retry rebuilds a fresh
                    # (possibly reshaped) one through the builder, then
                    # charge each tenant's failure budget and retry the
                    # survivors with exponential backoff.
                    self._stats.rank_failures += 1
                    self.cache.evict(gkey[0])
                    attempt += 1
                    survivors: List[_Request] = []
                    for req in batch:
                        n = self._tenant_failures.get(req.tenant, 0) + 1
                        self._tenant_failures[req.tenant] = n
                        if (
                            self.tenant_failure_budget is not None
                            and n > self.tenant_failure_budget
                        ):
                            self._stats.budget_exhausted += 1
                            self._stats.failed += 1
                            if not req.future.done():
                                req.future.set_exception(exc)
                        else:
                            survivors.append(req)
                    batch = survivors
                    if not batch:
                        break
                    if attempt > self.max_flush_retries:
                        for req in batch:
                            if not req.future.done():
                                req.future.set_exception(exc)
                        self._stats.failed += len(batch)
                        break
                    self._stats.flush_retries += 1
                    if self.retry_backoff_s > 0:
                        await asyncio.sleep(
                            self.retry_backoff_s * (2 ** (attempt - 1))
                        )
                    continue
                except SilentCorruption as exc:
                    # A checksum tripped under this batch.  The engine
                    # itself is fine — the flip lived in a transient
                    # buffer — so by default just retry the pass on the
                    # same engine.  Tenants whose flushes keep tripping
                    # checks are escalated: past the threshold the
                    # engine is evicted and rebuilt from scratch, in
                    # case the corruption is resident (spectra, arenas).
                    self._stats.sdc_detections += 1
                    attempt += 1
                    escalate = False
                    for req in batch:
                        n = self._tenant_sdc.get(req.tenant, 0) + 1
                        self._tenant_sdc[req.tenant] = n
                        if n >= self.sdc_escalation_threshold:
                            escalate = True
                    if escalate and gkey[0] in self.cache:
                        self.cache.evict(gkey[0])
                        self._stats.sdc_rebuilds += 1
                    if attempt > self.max_flush_retries:
                        for req in batch:
                            if not req.future.done():
                                req.future.set_exception(exc)
                        self._stats.failed += len(batch)
                        break
                    self._stats.flush_retries += 1
                    if self.retry_backoff_s > 0:
                        await asyncio.sleep(
                            self.retry_backoff_s * (2 ** (attempt - 1))
                        )
                    continue
                except Exception as exc:  # noqa: BLE001 - fan the failure out
                    for req in batch:
                        if not req.future.done():
                            req.future.set_exception(exc)
                    self._stats.failed += len(batch)
                    break
                else:
                    t_done = time.perf_counter()
                    k = len(batch)
                    self._stats.flushes += 1
                    self._stats.batched_columns += k
                    self._stats.max_batch = max(self._stats.max_batch, k)
                    if k >= 2:
                        self._stats.coalesced_requests += k
                    for req, col in zip(batch, columns):
                        for name in (gkey[1], "all"):
                            hist = self._stats.latency.setdefault(name, LatencyHistogram())
                            hist.add(t_done - req.t_submit)
                        self._stats.completed += 1
                        if not req.future.done():
                            req.future.set_result(col)
                    break
        finally:
            self._flushing.discard(gkey)
            if self._groups.get(gkey):
                # Requests accumulated while the pass ran (or past
                # max_block_k): dispatch again without waiting for a
                # window — adaptive batching under load.
                self._spawn_flush(gkey)

    # -- engine execution (runs on the executor thread) -----------------------
    def _execute(
        self, gkey: _GroupKey, batch: List[_Request]
    ) -> List[np.ndarray]:
        handle, kind, config, deterministic, options = gkey
        engine = self.cache.get(handle, builder=self._builders[handle])
        try:
            if kind == "solve":
                assert options is not None
                results = self._execute_solve(
                    engine, batch, config, options, deterministic
                )
            else:
                results = self._execute_apply(
                    engine, kind, batch, config, deterministic
                )
        finally:
            # Arenas and spectrum caches grow lazily; keep the budget
            # charge honest after every pass.
            if handle in self.cache:
                self.cache.update_footprint(handle)
        return results

    def _execute_apply(
        self,
        engine,
        kind: str,
        batch: List[_Request],
        config: str,
        deterministic: bool,
    ) -> List[np.ndarray]:
        """Run one (possibly coalesced) matvec/rmatvec flush in the
        group's resolved determinism mode."""
        k = len(batch)
        apply_one = engine.matvec if kind == "matvec" else engine.rmatvec
        if k == 1:
            return [apply_one(batch[0].payload, config=config)]
        nt = engine.nt
        nx = batch[0].payload.shape[1]
        block = np.empty((nt, nx, k))
        for j, req in enumerate(batch):
            block[:, :, j] = req.payload
        apply_block = engine.matmat if kind == "matvec" else engine.rmatmat
        out = apply_block(block, config=config, deterministic=deterministic)
        return [np.ascontiguousarray(out[:, :, j]) for j in range(k)]

    def _execute_solve(
        self,
        engine,
        batch: List[_Request],
        config: str,
        options: SolveOptions,
        deterministic: bool,
    ) -> List[np.ndarray]:
        """Run one (possibly block-)CG solve flush."""
        from repro.inverse.cg import block_conjugate_gradient, conjugate_gradient

        forward = ForwardOperator(engine, config=config)
        reg = (
            options.ridge * IdentityOperator(forward.in_shape)
            if options.ridge > 0
            else None
        )
        hess = GaussNewtonHessian(forward, noise_std=options.noise_std, reg=reg)
        inv_var = 1.0 / options.noise_std**2
        if len(batch) == 1:
            rhs = engine.rmatvec(batch[0].payload, config=config) * inv_var
            res = conjugate_gradient(
                hess.apply, rhs, tol=options.tol, maxiter=options.maxiter
            )
            return [res.x]
        k = len(batch)
        nt, nd = batch[0].payload.shape
        d_block = np.empty((nt, nd, k))
        for j, req in enumerate(batch):
            d_block[:, :, j] = req.payload
        rhs = (
            engine.rmatmat(d_block, config=config, deterministic=deterministic)
            * inv_var
        )
        res = block_conjugate_gradient(
            hess.apply_block, rhs, tol=options.tol, maxiter=options.maxiter
        )
        return [np.ascontiguousarray(res.X[:, :, j]) for j in range(k)]

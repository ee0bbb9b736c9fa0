"""Multi-tenant async solver service: cross-request coalescing front end.

The blocked multi-RHS pipeline (PR 1/2) makes ``k`` matvecs against one
operator cost one pad / batched-FFT / Phase-3 / IFFT / unpad pass.  This
module turns that into a *serving* win: an asyncio
:class:`SolverService` accepts per-tenant ``matvec`` / ``rmatvec`` /
``solve`` requests, groups queued requests that share an operator
fingerprint (plus kind and precision config), runs each batch as one
blocked apply and scatters per-request result columns back to their
futures.

**Dispatch.**  One dispatcher feeds the one executor thread, by three
rules.  *Never idle with work queued*: a request waits for the engine,
never for a timer.  *Bind late*: the batch is chosen when the engine
frees — up to ``max_block_k`` columns of the group whose head request
is oldest — so what arrived during one pass rides the next, and batches
widen with load, not with a delay.  *One tick of grace*: a submission
to an idle service dispatches on the next event-loop tick, so requests
submitted together (an ``asyncio.gather``, the clients a finished pass
wakes) still share a pass.

**Determinism.**  Coalescing must not change anyone's answer: flushes
run the engines' ``deterministic=True`` blocked path, whose column ``j``
is *bitwise* what a sequential ``matvec`` of request ``j`` returns (see
:meth:`repro.core.matvec.FFTMatvec.matmat`).  A request therefore cannot
observe whether it shared a batch.  ``solve`` requests coalesce at the CG level — each iteration applies the
Gauss-Newton Hessian to all k systems in one blocked pass, and the
columns share one search space — and are tolerance-equivalent (same
stopping rule per column), not bitwise: a solve's iterate depends on
the right-hand sides it shared a flush with.

**Backpressure and fairness.**  The queue is bounded: past
``max_pending`` queued requests new submissions are load-shed with
:class:`ServiceOverloadedError`; a per-tenant inflight cap rejects
monopolizing tenants with :class:`TenantThrottledError`.  When a group
holds more candidates than ``max_block_k``, columns are picked by
weighted fair queuing — the tenant with the smallest
``served / weight`` virtual time goes first, FIFO within a tenant — so
a weight-2 tenant gets twice the columns of a weight-1 tenant under
contention and nobody starves.  A payload holding a NaN/Inf is refused
at submit with :class:`~repro.comm.fault.NumericalHealthError`: in a
coalesced flush it would fail every request it shared the pass with.  A
finite payload can still go non-finite where a phase's cast overflows;
a coalesced flush that raises ``NumericalHealthError`` is re-run as
solo passes of its requests, so only the owner's request fails.

**Engine residency.**  Engines are built lazily through an
:class:`~repro.serve.cache.EngineCache` under a device byte budget;
every flush trues up the engine's footprint (arenas and spectrum caches
grow lazily) so LRU eviction sees honest numbers.  All engine work runs
on one executor thread, which serializes applies per arena — the
:class:`~repro.util.workspace.Workspace` re-entrancy guard would raise
otherwise — while the event loop stays free to accept requests.

Kept by ``bench/wl_serve.py``: the ``serve_applies`` workload, the one
serving load generator, drives this service end to end.
"""

from __future__ import annotations

import asyncio
import math
import time
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.matvec import FFTMatvec
from repro.comm.fault import NumericalHealthError, RankFailure, SilentCorruption
from repro.core.operator import ForwardOperator, GaussNewtonHessian, IdentityOperator
from repro.core.precision import PrecisionConfig
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.serve.cache import EngineCache, operator_fingerprint
from repro.util.checksum import ensure_finite
from repro.util.validation import ReproError

__all__ = [
    "ServeError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "TenantThrottledError",
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
    cancelled: int = 0  # requests dropped because their client stopped waiting
    sdc_detections: int = 0  # flushes that tripped a silent-corruption check
    sdc_rebuilds: int = 0  # engine evictions forced by repeat-offender tenants
    # Per request kind, plus "all": submit-to-result latency of each served
    # request, and its two parts — submit to the start of the pass that
    # served it (per request) and that pass, hop to scatter (per flush).
    latency: Dict[str, LatencyHistogram] = field(default_factory=dict)
    queue_wait: Dict[str, LatencyHistogram] = field(default_factory=dict)
    exec: Dict[str, LatencyHistogram] = field(default_factory=dict)

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
    attempt: int = 0  # engine passes that died under this request
    not_before: float = 0.0  # retry backoff: perf_counter time of its next pass


# A coalescing group: requests here may share one blocked apply.
_GroupKey = Tuple[str, str, str, Optional[SolveOptions]]


class SolverService:
    """Asyncio front end coalescing tenant requests into blocked applies.

    Parameters
    ----------
    cache:
        The :class:`EngineCache` engines are built into (and evicted
        from, under its byte budget).
    max_block_k:
        The widest blocked apply ever issued: a pass takes at most this
        many of its group's queued columns.  ``1`` disables coalescing —
        the serve-one baseline with identical asyncio overhead.
    window:
        Deprecated, ignored, gone next release: no batching timer is
        left (module docstring, *Dispatch*).  A value warns.
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
        Accepted for one release, and only as ``True`` (anything else
        raises): flushes always run the engines' bitwise per-column
        Phase 3 (module docstring, *Determinism*).
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
        window: Optional[float] = None,
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
        if window is not None:
            if window < 0:
                raise ReproError(f"window must be >= 0, got {window}")
            warnings.warn(
                "SolverService(window=...) is deprecated and ignored: a request "
                "waits for the engine, never for a timer",
                DeprecationWarning, stacklevel=2,
            )
        if deterministic is not True:
            raise ReproError(f"deterministic must be True, got {deterministic!r}")
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
        self.max_pending = int(max_pending)
        self.max_inflight_per_tenant = max_inflight_per_tenant
        self.tenant_weights = dict(tenant_weights or {})
        self.max_flush_retries = int(max_flush_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.tenant_failure_budget = tenant_failure_budget
        self.sdc_escalation_threshold = int(sdc_escalation_threshold)
        self._tenant_failures: Dict[str, int] = {}
        self._tenant_sdc: Dict[str, int] = {}

        self._builders: Dict[str, Callable[[], Any]] = {}
        self._shapes: Dict[str, Tuple[int, int, int]] = {}
        self._groups: Dict[_GroupKey, Deque[_Request]] = {}
        self._pending_total = 0
        self._tenant_inflight: Dict[str, int] = {}
        self._served: Dict[str, float] = {}  # WFQ virtual time per tenant
        self._seq = 0
        self._closed = False
        self._pass: Optional["asyncio.Future[Any]"] = None  # the engine pass in flight
        self._idle = asyncio.Event()  # nothing queued and no pass in flight
        self._idle.set()
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
        single-device :class:`FFTMatvec`.  Every engine owns its
        workspace arena — what the cache budget meters and what keeps
        concurrent tenants' applies from sharing buffers — so a builder
        must not hand two engines one arena.  ``name`` prefixes the
        handle for readable logs; it does not affect grouping semantics
        beyond being part of the handle string.
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
                return FFTMatvec(m)

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
    ) -> np.ndarray:
        """``d = F m`` for one tenant; may share a blocked pass with
        concurrent requests on the same handle and config
        (bitwise-identical to an uncoalesced apply)."""
        nt, nd, nm = self._shape(handle)
        payload = self._as_block(m, (nt, nm), "matvec input")
        return await self._submit("matvec", handle, payload, config, tenant, None)

    async def rmatvec(
        self,
        handle: str,
        d: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        tenant: str = "default",
    ) -> np.ndarray:
        """``m = F* d`` for one tenant (adjoint of :meth:`matvec`, same
        coalescing and bitwise guarantees)."""
        nt, nd, nm = self._shape(handle)
        payload = self._as_block(d, (nt, nd), "rmatvec input")
        return await self._submit("rmatvec", handle, payload, config, tenant, None)

    async def solve(
        self,
        handle: str,
        d: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        tenant: str = "default",
        options: Optional[SolveOptions] = None,
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
        return await self._submit("solve", handle, payload, config, tenant, opts)

    # -- lifecycle ------------------------------------------------------------
    async def drain(self) -> None:
        """Wait until no request is queued and no pass is in flight.
        There is nothing to flush: the dispatcher never idles with work
        queued (a retry backoff is waited out, not skipped)."""
        await self._idle.wait()

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
        """Rank failures charged to each tenant so far (a copy).

        Kept by ``docs/FAULT_TOLERANCE.md``: the operator's view of the
        per-tenant failure budget.
        """
        return dict(self._tenant_failures)

    def tenant_sdc_detections(self) -> Dict[str, int]:
        """Silent-corruption detections charged per tenant (a copy).

        Kept by ``docs/FAULT_TOLERANCE.md``: the operator's view of the
        per-tenant escalation count.
        """
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
        # Refused here, a bad column never reaches a coalesced flush,
        # where it would fail its batch-mates too.
        ensure_finite(a, phase="submit", what=what)
        return np.ascontiguousarray(a)

    async def _submit(
        self,
        kind: str,
        handle: str,
        payload: np.ndarray,
        config: Union[str, PrecisionConfig],
        tenant: str,
        options: Optional[SolveOptions],
    ) -> np.ndarray:
        if self._closed:
            raise ServiceClosedError("service is closed")
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
        req = _Request(
            tenant=tenant,
            payload=payload,
            future=fut,
            t_submit=time.perf_counter(),
            seq=self._seq,
        )
        gkey: _GroupKey = (handle, kind, str(PrecisionConfig.parse(config)), options)
        self._groups.setdefault(gkey, deque()).append(req)
        self._pending_total += 1
        self._tenant_inflight[tenant] = self._tenant_inflight.get(tenant, 0) + 1
        self._stats.submitted += 1

        self._idle.clear()
        if self._pass is None:
            # Next tick, not now: everything submitted in this tick rides
            # one pass (the first such call binds it, the rest find it bound).
            loop.call_soon(self._dispatch)
        try:
            return await fut
        finally:
            self._tenant_inflight[tenant] -= 1
            if self._tenant_inflight[tenant] <= 0:
                del self._tenant_inflight[tenant]

    # -- dispatch -------------------------------------------------------------
    def _dispatch(self) -> None:
        """Bind the next batch to the free engine — the one way into it.
        Runs one tick after a submission to an idle service and the
        moment a pass ends.  The group whose head is oldest (of those not
        in retry backoff) goes first and its batch is selected *now*: it
        holds whatever arrived while the last pass ran.  A batch the
        pre-pass filter empties costs no pass."""
        if self._pass is not None:
            return
        loop = asyncio.get_running_loop()

        def turn(gkey: _GroupKey) -> Tuple[float, int]:
            head = self._groups[gkey][0]
            return max(head.not_before, now), head.seq

        while self._groups:
            now = time.perf_counter()
            gkey = min(self._groups, key=turn)
            group = self._groups[gkey]
            if group[0].not_before > now:
                # Everything queued is backing off after an engine failure:
                # come back when the first may run (a submission meanwhile
                # dispatches as usual; this call then finds that done).
                loop.call_at(loop.time() + group[0].not_before - now, self._dispatch)
                return
            batch = self._select(group)
            if not group:
                del self._groups[gkey]
            self._pending_total -= len(batch)
            batch = self._drop_cancelled(batch)
            if not batch:
                continue
            self._pass = loop.run_in_executor(self._executor, self._execute, gkey, batch)
            self._pass.add_done_callback(lambda f: self._flushed(gkey, batch, now, f))
            return
        self._idle.set()

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
    def _fail(self, batch: List[_Request], exc: BaseException) -> None:
        """Resolve every request of ``batch`` with ``exc``."""
        self._stats.failed += len(batch)
        for req in batch:
            if not req.future.done():
                req.future.set_exception(exc)

    def _drop_cancelled(self, batch: List[_Request]) -> List[_Request]:
        """The one pre-pass filter, run on every batch (a retried one
        again) right before its pass.  A request whose future is already
        done — its client cancelled or timed out — is dropped: it occupies
        no flush column, and its group-mates are served."""
        live: List[_Request] = []
        for req in batch:
            if req.future.done():
                self._stats.cancelled += 1
            else:
                live.append(req)
        return live

    def _retry(self, gkey: _GroupKey, batch: List[_Request], exc: BaseException) -> None:
        """Send the survivors of a failed pass back through the
        dispatcher: to the *head* of their group, each with its attempt
        count and the time its exponential backoff ends.  Until then the
        dispatcher serves the other groups, so a backoff never holds the
        engine.  A request out of retries fails with ``exc``."""
        for req in batch:
            req.attempt += 1
        self._fail([r for r in batch if r.attempt > self.max_flush_retries], exc)
        again = [r for r in batch if r.attempt <= self.max_flush_retries]
        if not again:
            return
        self._stats.flush_retries += 1
        now = time.perf_counter()
        for req in again:
            req.not_before = now + self.retry_backoff_s * 2 ** (req.attempt - 1)
        self._groups.setdefault(gkey, deque()).extendleft(reversed(again))
        self._pending_total += len(again)

    def _flushed(
        self, gkey: _GroupKey, batch: List[_Request], t_start: float, done: asyncio.Future
    ) -> None:
        """``batch``'s engine pass, bound at ``t_start``, is ``done``:
        scatter its columns, or fail / re-queue its requests.  Whatever
        happened, the engine is released and the dispatcher runs again."""
        t_done = time.perf_counter()
        columns = None
        try:
            columns = done.result()
        except RankFailure as exc:
            # A rank died under this batch's engine and took its grid
            # along: evict, so the retry rebuilds a fresh (possibly reshaped)
            # engine; charge each tenant's failure budget, retry the survivors.
            self._stats.rank_failures += 1
            self.cache.evict(gkey[0])
            budget = self.tenant_failure_budget
            survivors: List[_Request] = []
            for req in batch:
                n = self._tenant_failures.get(req.tenant, 0) + 1
                self._tenant_failures[req.tenant] = n
                if budget is not None and n > budget:
                    self._stats.budget_exhausted += 1
                    self._fail([req], exc)
                else:
                    survivors.append(req)
            self._retry(gkey, survivors, exc)
        except SilentCorruption as exc:
            # A checksum tripped under this batch.  The engine itself is
            # fine — the flip lived in a transient buffer — so by default just
            # retry the pass on the same engine.  Tenants whose flushes keep
            # tripping checks are escalated: past the threshold the engine is
            # rebuilt from scratch, in case the corruption is resident.
            self._stats.sdc_detections += 1
            escalate = False
            for req in batch:
                n = self._tenant_sdc.get(req.tenant, 0) + 1
                self._tenant_sdc[req.tenant] = n
                if n >= self.sdc_escalation_threshold:
                    escalate = True
            if escalate and gkey[0] in self.cache:
                self.cache.evict(gkey[0])
                self._stats.sdc_rebuilds += 1
            self._retry(gkey, batch, exc)
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            self._fail(batch, exc)
        finally:
            # Bind the next batch before scattering this one: the engine
            # works while the loop wakes this pass's clients.
            self._pass = None
            self._dispatch()
        if columns is None:
            return
        served: List[_Request] = []
        for req, col in zip(batch, columns):
            if isinstance(col, NumericalHealthError):
                self._fail([req], col)
                continue
            served.append(req)
            if not req.future.done():
                req.future.set_result(col)
        k = len(batch)
        self._stats.flushes += 1
        self._stats.completed += len(served)
        self._stats.batched_columns += k
        self._stats.max_batch = max(self._stats.max_batch, k)
        if k >= 2:
            self._stats.coalesced_requests += k
        for name in (gkey[1], "all"):
            self._stats.exec.setdefault(name, LatencyHistogram()).add(t_done - t_start)
            wait = self._stats.queue_wait.setdefault(name, LatencyHistogram())
            latency = self._stats.latency.setdefault(name, LatencyHistogram())
            for req in served:
                wait.add(t_start - req.t_submit)
                latency.add(t_done - req.t_submit)

    # -- engine execution (runs on the executor thread) -----------------------
    def _execute(
        self, gkey: _GroupKey, batch: List[_Request]
    ) -> List[Union[np.ndarray, NumericalHealthError]]:
        """One flush's pass: a column per request, or the
        ``NumericalHealthError`` of a request whose own solo pass raised
        it (a coalesced flush that raises one is split into solo passes,
        each bitwise what the request alone would get)."""
        handle, kind, config, options = gkey
        engine = self.cache.get(handle, builder=self._builders[handle])

        def run(reqs: List[_Request]) -> List[np.ndarray]:
            if kind == "solve":
                assert options is not None
                return self._execute_solve(engine, reqs, config, options)
            return self._execute_apply(engine, kind, reqs, config)

        try:
            try:
                return run(batch)
            except NumericalHealthError:
                if len(batch) == 1:
                    raise
            results: List[Union[np.ndarray, NumericalHealthError]] = []
            for req in batch:
                try:
                    results.extend(run([req]))
                except NumericalHealthError as exc:
                    results.append(exc)
            return results
        finally:
            # Arenas and spectrum caches grow lazily; keep the budget
            # charge honest after every pass.
            if handle in self.cache:
                self.cache.update_footprint(handle)

    def _execute_apply(
        self,
        engine,
        kind: str,
        batch: List[_Request],
        config: str,
    ) -> List[np.ndarray]:
        """Run one (possibly coalesced) matvec/rmatvec flush, each column
        bitwise its solo apply."""
        k = len(batch)
        apply_one = engine.matvec if kind == "matvec" else engine.rmatvec
        if k == 1:
            return [apply_one(batch[0].payload, config=config)]
        nt = engine.nt
        nx = batch[0].payload.shape[1]
        block = np.empty((nt, nx, k))
        for j, req in enumerate(batch):
            block[:, :, j] = req.payload
        if kind == "matvec":
            out = engine.matmat(block, config=config, deterministic=True)
        else:
            out = engine.rmatmat(block, config=config, deterministic=True)
        return [np.ascontiguousarray(out[:, :, j]) for j in range(k)]

    def _execute_solve(
        self,
        engine,
        batch: List[_Request],
        config: str,
        options: SolveOptions,
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
            engine.rmatmat(d_block, config=config, deterministic=True)
            * inv_var
        )
        res = block_conjugate_gradient(
            hess.apply_block, rhs, tol=options.tol, maxiter=options.maxiter
        )
        return [np.ascontiguousarray(res.X[:, :, j]) for j in range(k)]

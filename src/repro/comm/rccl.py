"""RCCL/NCCL-flavored collective API over the SPMD simulator.

The hipified FFTMatvec calls NCCL functions (RCCL keeps the ``nccl``
names, only the headers change — see :mod:`repro.hip.mappings`).  This
module provides that C-style surface over :class:`SimCommunicator`:
communicators are created from a unique id with ``comm_init_rank``,
collectives take (send, recv, count, datatype, op) style arguments, and
``group_start``/``group_end`` batch calls the way NCCL group semantics
do.  Because all ranks live in one process, each rank's handle records
its contribution and the collective resolves when every rank has
arrived — which also means the tests can verify NCCL's actual contract
(a collective completes only when all ranks call it).

Kept by ``src/repro/hip/mappings.py``: the NCCL -> RCCL call surface of the
paper's CUDA -> HIP port (Sec. 3); no engine imports it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.comm.netmodel import NetworkModel, SIMPLE_NETWORK
from repro.comm.simcomm import SimCommunicator
from repro.util.dtypes import Precision
from repro.util.timing import SimClock
from repro.util.validation import ReproError

__all__ = [
    "NcclDataType",
    "NcclOp",
    "NcclUniqueId",
    "NcclComm",
    "get_unique_id",
    "comm_init_rank",
]


class NcclDataType(enum.Enum):
    """The subset of ncclDataType_t FFTMatvec uses."""

    ncclFloat = np.float32
    ncclDouble = np.float64

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.value)

    @property
    def precision(self) -> Precision:
        return (
            Precision.SINGLE if self is NcclDataType.ncclFloat else Precision.DOUBLE
        )


class NcclOp(enum.Enum):
    ncclSum = "sum"
    ncclMax = "max"
    ncclMin = "min"


@dataclass
class NcclUniqueId:
    """Opaque identifier binding ranks into one communicator."""

    nranks: int
    net: NetworkModel = SIMPLE_NETWORK
    clock: Optional[SimClock] = None
    _pending: Dict[str, dict] = field(default_factory=dict)
    _comm: Optional[SimCommunicator] = None
    _ranks: Dict[int, "NcclComm"] = field(default_factory=dict)


def get_unique_id(
    nranks: int,
    net: NetworkModel = SIMPLE_NETWORK,
    clock: Optional[SimClock] = None,
) -> NcclUniqueId:
    """ncclGetUniqueId: create the id the root shares with all ranks."""
    if nranks < 1:
        raise ReproError(f"nranks must be >= 1, got {nranks}")
    return NcclUniqueId(nranks=nranks, net=net, clock=clock)


def comm_init_rank(uid: NcclUniqueId, rank: int) -> "NcclComm":
    """ncclCommInitRank: join the communicator as ``rank``."""
    if not (0 <= rank < uid.nranks):
        raise ReproError(f"rank {rank} out of range for nranks {uid.nranks}")
    if rank in uid._ranks:
        raise ReproError(f"rank {rank} already initialized")
    if uid._comm is None:
        uid._comm = SimCommunicator(
            uid.nranks, net=uid.net, clock=uid.clock, name="nccl"
        )
    comm = NcclComm(uid=uid, rank=rank)
    uid._ranks[rank] = comm
    return comm


class NcclComm:
    """Per-rank communicator handle (ncclComm_t)."""

    def __init__(self, uid: NcclUniqueId, rank: int) -> None:
        self._uid = uid
        self.rank = rank
        self.destroyed = False
        self._group_depth = 0
        self._group_queue: List[tuple] = []

    @property
    def nranks(self) -> int:
        return self._uid.nranks

    def destroy(self) -> None:
        """ncclCommDestroy."""
        if self.destroyed:
            raise ReproError("communicator already destroyed")
        self.destroyed = True
        del self._uid._ranks[self.rank]

    # -- group semantics ------------------------------------------------------
    def group_start(self) -> None:
        """ncclGroupStart: defer collectives until the matching end."""
        self._check_alive()
        self._group_depth += 1

    def group_end(self) -> None:
        """ncclGroupEnd: issue the collectives deferred in this group."""
        self._check_alive()
        if self._group_depth == 0:
            raise ReproError("ncclGroupEnd without ncclGroupStart")
        self._group_depth -= 1
        if self._group_depth == 0:
            queue, self._group_queue = self._group_queue, []
            for op_name, args in queue:
                getattr(self, op_name)(*args)

    def _maybe_defer(self, op_name: str, *args) -> bool:
        if self._group_depth > 0:
            self._group_queue.append((op_name, args))
            return True
        return False

    # -- collectives -----------------------------------------------------------
    def _check_alive(self) -> None:
        if self.destroyed:
            raise ReproError("operation on destroyed communicator")

    def _rendezvous(self, kind: str, payload) -> Optional[list]:
        """Record this rank's arrival; the last rank runs the collective.

        Returns the per-rank payload list when this call completes the
        collective, else None (the results were stored for each rank by
        the completing call).
        """
        slot = self._uid._pending.setdefault(kind, {"contrib": {}, "result": {}})
        if self.rank in slot["contrib"]:
            raise ReproError(
                f"rank {self.rank} called {kind} twice before completion"
            )
        slot["contrib"][self.rank] = payload
        if len(slot["contrib"]) < self.nranks:
            return None
        contributions = [slot["contrib"][r] for r in range(self.nranks)]
        del self._uid._pending[kind]
        return contributions

    def all_reduce(
        self,
        sendbuf: np.ndarray,
        datatype: NcclDataType,
        op: NcclOp = NcclOp.ncclSum,
    ) -> Optional[np.ndarray]:
        """ncclAllReduce.  Returns the reduced array once all ranks have
        called (None for the ranks that arrived early; fetch with
        :meth:`fetch_result`)."""
        self._check_alive()
        if self._maybe_defer("all_reduce", sendbuf, datatype, op):
            return None
        buf = np.ascontiguousarray(sendbuf, dtype=datatype.dtype)
        contributions = self._rendezvous("all_reduce", buf)
        if contributions is None:
            return None
        comm = self._uid._comm
        assert comm is not None
        if op is NcclOp.ncclSum:
            outs = comm.allreduce(contributions, precision=datatype.precision)
        else:
            reducer = np.maximum if op is NcclOp.ncclMax else np.minimum
            total = contributions[0]
            for c in contributions[1:]:
                total = reducer(total, c)
            comm.allreduce(contributions, precision=datatype.precision)  # timing
            outs = [total.copy() for _ in range(self.nranks)]
        for r, handle in self._uid._ranks.items():
            handle._last_result = outs[r]
        return self._uid._ranks[self.rank]._last_result

    def broadcast(
        self, buf: np.ndarray, root: int, datatype: NcclDataType
    ) -> Optional[np.ndarray]:
        """ncclBroadcast."""
        self._check_alive()
        if self._maybe_defer("broadcast", buf, root, datatype):
            return None
        payload = np.ascontiguousarray(buf, dtype=datatype.dtype)
        contributions = self._rendezvous("broadcast", (payload, root))
        if contributions is None:
            return None
        comm = self._uid._comm
        assert comm is not None
        roots = {r for _, r in contributions}
        if len(roots) != 1:
            raise ReproError(f"ranks disagree on broadcast root: {sorted(roots)}")
        root_val = contributions[next(iter(roots))][0]
        outs = comm.bcast(root_val, root=next(iter(roots)))
        for r, handle in self._uid._ranks.items():
            handle._last_result = outs[r]
        return self._uid._ranks[self.rank]._last_result

    def fetch_result(self) -> np.ndarray:
        """Result of the last completed collective for this rank."""
        self._check_alive()
        if not hasattr(self, "_last_result"):
            raise ReproError("no completed collective result available")
        return self._last_result

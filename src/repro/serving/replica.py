"""Replica pool: N perception workers with auto-respawn.

Each replica is a :class:`~repro.runtime.parallel.ForkedWorker` — the same
forked child on a private duplex pipe that runs
:func:`~repro.runtime.parallel.parallel_map`'s grid cells — but the pool
serves *requests* instead of draining a batch: the broker addresses a
specific slot, ships one payload, and waits for that slot's answer under a
wall-clock timeout.

Failure taxonomy seen by the broker (:class:`ReplicaReply.status`):

* ``ok``      — the handler returned a value,
* ``raised``  — the handler raised; the replica is still alive,
* ``crashed`` — the replica process died mid-request (EOF on its pipe);
  the pool respawns the slot immediately,
* ``hung``    — no answer within the wall timeout; the replica is killed
  and respawned.

Chaos hooks: inside each replica, :meth:`RuntimeFaultPlan.maybe_inject`
fires for scopes ``serve.replica`` (all slots) and ``serve.replica.<slot>``
(one slot) with the broker's global request sequence number as the attempt
— so ``REPRO_FAULT_PLAN="crash@serve.replica.0:attempt=0+"`` produces a
persistently crashing replica 0.  On platforms without ``fork`` (or with
``forked=False`` for fast deterministic tests) the pool runs in-process
and *synthesizes* the planned crash/hang outcomes instead of executing
them, so serve runs produce bit-identical outcome streams in both modes.

The wall timeout is real time (hang detection cannot work otherwise) but
never enters results: request *latencies* are virtual, drawn by the
broker's :class:`~repro.serving.policy.LatencyModel`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from ..faults.runtime import RuntimeFaultPlan
from ..runtime.parallel import ForkedWorker, close_workers, fork_available

logger = logging.getLogger(__name__)

#: scope consulted for faults hitting any replica.
REPLICA_SCOPE = "serve.replica"


def slot_scope(slot: int) -> str:
    """Fault-plan scope targeting one replica slot."""
    return f"{REPLICA_SCOPE}.{slot}"


@dataclass(frozen=True)
class ReplicaReply:
    status: str            # "ok" | "raised" | "crashed" | "hung"
    value: Any = None
    detail: str = ""


@dataclass(frozen=True)
class PoolEvent:
    """One pool-level incident (respawn), kept for journaling/tests."""

    slot: int
    kind: str              # "crashed" | "hung"
    seq: int               # request sequence that exposed it


def _targets(slot: int) -> Tuple[str, str]:
    """Fault-plan scopes a request to ``slot`` fires, most specific first."""
    return (slot_scope(slot), REPLICA_SCOPE)


class ReplicaPool:
    """N replicas answering one request at a time per slot.

    ``handler(payload) -> value`` runs inside each replica; it is shipped
    by fork, so closures over live models are fine.  ``forked=None``
    auto-selects: forked when ``fork`` exists, in-process otherwise.
    """

    def __init__(self, handler: Callable[[Any], Any], n_replicas: int = 3,
                 wall_timeout: float = 10.0,
                 forked: Optional[bool] = None):
        self.handler = handler
        self.n_replicas = int(n_replicas)
        self.wall_timeout = float(wall_timeout)
        self.forked = fork_available() if forked is None else bool(forked)
        self.events: List[PoolEvent] = []
        self.respawns = 0
        self._plan = RuntimeFaultPlan.from_env()
        self._replicas: List[ForkedWorker] = (
            [self._spawn(slot) for slot in range(self.n_replicas)]
            if self.forked else [])

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        close_workers(self._replicas)

    def _spawn(self, slot: int) -> ForkedWorker:
        return ForkedWorker(self.handler, lambda seq: _targets(slot),
                            self._plan)

    def _respawn(self, slot: int, kind: str, seq: int) -> None:
        self.respawns += 1
        self.events.append(PoolEvent(slot=slot, kind=kind, seq=seq))
        if self.forked:  # in-process, the outcome is only synthesized
            self._replicas[slot].kill()
            self._replicas[slot] = self._spawn(slot)
            logger.warning("replica %d %s on request %d; respawned", slot,
                           kind, seq)

    # -- requests -------------------------------------------------------
    def call(self, slot: int, seq: int, payload: Any) -> ReplicaReply:
        """Send ``payload`` to ``slot`` as request ``seq``; wait for it.

        Never raises for replica-side trouble — every failure mode comes
        back as a :class:`ReplicaReply` so the broker owns the policy
        (retry, hedge, trip the breaker).
        """
        if not 0 <= slot < self.n_replicas:
            raise IndexError(f"no replica slot {slot}")
        if self.forked:
            return self._call_forked(slot, seq, payload)
        return self._call_serial(slot, seq, payload)

    def _call_forked(self, slot: int, seq: int, payload: Any) -> ReplicaReply:
        replica = self._replicas[slot]
        try:
            replica.send(seq, seq, payload)
        except (BrokenPipeError, OSError):
            self._respawn(slot, "crashed", seq)
            return ReplicaReply("crashed", detail="pipe closed on send")
        if not replica.conn.poll(self.wall_timeout):
            self._respawn(slot, "hung", seq)
            return ReplicaReply(
                "hung", detail=f"no answer within {self.wall_timeout:.1f}s")
        try:
            got_seq, _, ok, value = replica.conn.recv()
        except (EOFError, OSError):
            exitcode = replica.process.exitcode
            self._respawn(slot, "crashed", seq)
            return ReplicaReply("crashed",
                                detail=f"replica died (exit {exitcode})")
        if got_seq != seq:  # stale answer from a pre-respawn request
            return ReplicaReply("raised", detail="stale reply sequence")
        if ok:
            return ReplicaReply("ok", value=value)
        return ReplicaReply("raised", detail=value[0])

    def _call_serial(self, slot: int, seq: int, payload: Any) -> ReplicaReply:
        """In-process fallback: planned crash/hang outcomes are synthesized.

        ``os._exit`` / a one-hour sleep cannot be recovered in-process, so
        the planned fault's *observable outcome* is produced instead —
        keeping serve runs bit-identical to the forked path.
        """
        try:
            # the forked child's order: each target in turn, then the handler
            for scope in _targets(slot):
                fault = self._plan.lookup(scope, seq)
                if fault is not None and fault.kind in ("crash", "hang"):
                    status = "crashed" if fault.kind == "crash" else "hung"
                    self._respawn(slot, status, seq)
                    return ReplicaReply(
                        status, detail=f"injected {fault.kind}@{scope}")
                self._plan.maybe_inject(scope, seq)
            value = self.handler(payload)
        except Exception as error:
            return ReplicaReply("raised",
                                detail=f"{type(error).__name__}: {error}")
        return ReplicaReply("ok", value=value)

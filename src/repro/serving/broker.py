"""Request broker: deadlines, retries, hedging, breakers, load shedding.

The broker sits between the tick loop and the :class:`ReplicaPool` and
owns every availability policy:

* **Deadlines** — each request carries a virtual budget
  (``BrokerConfig.deadline_ms``); an answer that lands after it is useless
  to a 20 Hz planner and is reported as a miss (the ladder coasts).
* **Retries** — failed attempts (raise / crash / hang) are retried with
  exponential backoff + seeded jitter while deadline budget remains.
* **Hedging** — once enough latencies are observed, a request whose
  primary attempt is still outstanding past the tracked percentile
  (``BrokerConfig.hedge_percentile``) is *hedged* onto a second replica
  and the earlier answer wins (the tail-at-scale recipe).
* **Circuit breakers** — per-replica failure-rate breakers; an OPEN slot
  is skipped entirely, so a persistently crashing replica costs one
  window of failures instead of a retry per request.
* **Backpressure / shedding** — per-slot virtual ``busy-until`` times
  model queueing; when the best achievable queue wait exceeds
  ``BrokerConfig.queue_ms``, already guarantees a deadline miss on its
  own, or every breaker is open, the request is *shed* immediately — the
  caller falls back to the watchdog's coasting ladder instead of
  stalling the control loop.

**Virtual time.**  All latencies are drawn from the deterministic
:class:`~repro.serving.policy.LatencyModel` and all policy decisions are
made on those virtual timestamps, so a serve run is bit-reproducible; the
pool's real processes still genuinely crash, hang and respawn underneath,
but only their deterministic *outcomes* (ok / raised / crashed / hung)
enter the timeline.  Failure-detection costs are modeled explicitly:
crashes are detected fast (EOF on the pipe), hangs only via the
per-attempt timeout slice of the deadline.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .breaker import BreakerConfig, BreakerState, CircuitBreaker
from .policy import LatencyModel, LatencyTracker, RetryPolicy
from .replica import ReplicaPool

logger = logging.getLogger(__name__)

#: virtual ms between a replica crash and the broker noticing (pipe EOF).
CRASH_DETECT_MS = 2.0
#: virtual ms a freshly respawned replica needs before serving again.
RESPAWN_MS = 25.0


@dataclass
class BrokerConfig:
    deadline_ms: float = 45.0       # virtual per-request budget
    retries: int = 2                # attempts beyond the first
    hedge_percentile: float = 95.0  # >= 100 disables hedging
    queue_ms: float = 120.0         # queue-wait bound before shedding
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    latency: LatencyModel = field(default_factory=LatencyModel)
    hedge_min_samples: int = 20

    def __post_init__(self) -> None:
        if self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.queue_ms < 0:
            raise ValueError("queue_ms must be >= 0")


@dataclass
class BrokerResult:
    """Outcome of one request as the tick loop sees it."""

    seq: int
    status: str                 # "ok" | "deadline" | "shed"
    value: Any = None
    latency_ms: float = 0.0     # virtual completion latency (ok only)
    attempts: int = 1
    hedged: bool = False
    shed_reason: Optional[str] = None   # "queue" | "breakers-open"
    slot: Optional[int] = None


class RequestBroker:
    """Deadline/retry/hedge/breaker front-end over a :class:`ReplicaPool`."""

    def __init__(self, pool: ReplicaPool,
                 config: Optional[BrokerConfig] = None):
        self.pool = pool
        self.config = config or BrokerConfig()
        self.deadline_ms = float(self.config.deadline_ms)
        self.retry_budget = int(self.config.retries)
        self.queue_ms = float(self.config.queue_ms)
        self.breakers = [CircuitBreaker(self.config.breaker, label=f"replica{s}")
                         for s in range(pool.n_replicas)]
        self.tracker = LatencyTracker(
            percentile=float(self.config.hedge_percentile),
            min_samples=self.config.hedge_min_samples)
        self.busy_until_ms = [0.0] * pool.n_replicas
        self.counters: Dict[str, int] = {
            "ok": 0, "deadline": 0, "shed": 0, "retries": 0, "hedges": 0,
            "hedge_wins": 0, "crashes": 0, "hangs": 0, "raises": 0}

    # -- slot selection -------------------------------------------------
    def _allowed_slots(self, now_s: float) -> List[int]:
        return [slot for slot in range(self.pool.n_replicas)
                if self.breakers[slot].allow(now_s)]

    def _pick_slot(self, now_ms: float,
                   exclude: Optional[int] = None) -> Optional[int]:
        """Least-loaded breaker-allowed slot (ties broken by slot id)."""
        allowed = self._allowed_slots(now_ms / 1000.0)
        if exclude is not None and len(allowed) > 1:
            allowed = [slot for slot in allowed if slot != exclude]
        if not allowed:
            return None
        return min(allowed, key=lambda slot: (self.busy_until_ms[slot], slot))

    # -- submission -----------------------------------------------------
    def submit(self, seq: int, payload: Any, arrival_ms: float,
               defended: bool = False) -> BrokerResult:
        """Serve one request arriving at virtual ``arrival_ms``."""
        deadline_at = arrival_ms + self.deadline_ms
        slot = self._pick_slot(arrival_ms)
        if slot is None:
            self.counters["shed"] += 1
            return BrokerResult(seq, "shed", shed_reason="breakers-open")
        queue_wait = max(0.0, self.busy_until_ms[slot] - arrival_ms)
        # Admission control: shed on a deep queue, and also when the queue
        # wait alone already guarantees a deadline miss — dispatching such
        # a request wastes replica time on an answer nobody can use.
        if (queue_wait > self.queue_ms
                or queue_wait + self.config.latency.base_ms
                >= self.deadline_ms):
            self.counters["shed"] += 1
            return BrokerResult(seq, "shed", shed_reason="queue")

        # Per-attempt timeout slice: hangs must be detectable with enough
        # budget left to retry, so the deadline is split across attempts.
        attempt_timeout = self.deadline_ms / (self.retry_budget + 1)
        dispatch_at = arrival_ms + queue_wait
        attempts = 0
        hedged = False

        while True:
            now_s = dispatch_at / 1000.0
            if attempts > 0:
                slot = self._pick_slot(dispatch_at, exclude=slot)
                if slot is None:
                    self.counters["shed"] += 1
                    return BrokerResult(seq, "shed", attempts=attempts,
                                        shed_reason="breakers-open")
                dispatch_at = max(dispatch_at, self.busy_until_ms[slot])
            if dispatch_at >= deadline_at:
                self.counters["deadline"] += 1
                return BrokerResult(seq, "deadline", attempts=attempts)

            attempts += 1
            service_ms = self.config.latency.service_ms(
                slot, seq, attempts - 1, defended=defended)
            reply = self.pool.call(slot, seq, payload)

            if reply.status == "ok":
                finish_at = dispatch_at + service_ms
                self.busy_until_ms[slot] = finish_at
                finish_at, hedged = self._maybe_hedge(
                    seq, payload, slot, dispatch_at, finish_at, defended)
                self.breakers[slot].record_success(finish_at / 1000.0)
                latency = finish_at - arrival_ms
                if finish_at > deadline_at:
                    self.counters["deadline"] += 1
                    return BrokerResult(seq, "deadline", attempts=attempts,
                                        hedged=hedged, slot=slot)
                self.tracker.record(latency)
                self.counters["ok"] += 1
                return BrokerResult(seq, "ok", value=reply.value,
                                    latency_ms=latency, attempts=attempts,
                                    hedged=hedged, slot=slot)

            # failure: place it on the virtual timeline, charge the breaker
            if reply.status == "crashed":
                self.counters["crashes"] += 1
                detect_at = dispatch_at + CRASH_DETECT_MS
                self.busy_until_ms[slot] = detect_at + RESPAWN_MS
            elif reply.status == "hung":
                self.counters["hangs"] += 1
                detect_at = dispatch_at + attempt_timeout
                self.busy_until_ms[slot] = detect_at + RESPAWN_MS
            else:  # raised
                self.counters["raises"] += 1
                detect_at = dispatch_at + service_ms
                self.busy_until_ms[slot] = detect_at
            self.breakers[slot].record_failure(detect_at / 1000.0,
                                               reason=reply.status)

            if attempts > self.retry_budget:
                self.counters["deadline"] += 1
                return BrokerResult(seq, "deadline", attempts=attempts,
                                    slot=slot)
            self.counters["retries"] += 1
            backoff = self.config.retry.delay_ms(seq, attempts)
            dispatch_at = detect_at + backoff

    def _maybe_hedge(self, seq: int, payload: Any, primary_slot: int,
                     dispatch_at: float, primary_finish: float,
                     defended: bool):
        """Hedge a tail-latency primary onto a second replica.

        Returns (effective finish time, hedged?).  The hedge launches once
        the primary has been outstanding for the tracked percentile; the
        earlier virtual completion wins.
        """
        threshold = self.tracker.hedge_after_ms()
        if threshold is None or primary_finish - dispatch_at <= threshold:
            return primary_finish, False
        hedge_at = dispatch_at + threshold
        slot = self._pick_slot(hedge_at, exclude=primary_slot)
        if slot is None or slot == primary_slot:
            return primary_finish, False
        self.counters["hedges"] += 1
        hedge_dispatch = max(hedge_at, self.busy_until_ms[slot])
        # attempt index offset decorrelates the hedge's latency draw
        service_ms = self.config.latency.service_ms(slot, seq, 1000,
                                                    defended=defended)
        reply = self.pool.call(slot, seq, payload)
        if reply.status != "ok":
            self.breakers[slot].record_failure(
                (hedge_dispatch + service_ms) / 1000.0, reason=reply.status)
            return primary_finish, True
        hedge_finish = hedge_dispatch + service_ms
        self.busy_until_ms[slot] = hedge_finish
        self.breakers[slot].record_success(hedge_finish / 1000.0)
        if hedge_finish < primary_finish:
            self.counters["hedge_wins"] += 1
            return hedge_finish, True
        return primary_finish, True

    # -- reporting ------------------------------------------------------
    def breaker_transitions(self) -> List[dict]:
        """All breaker transitions (virtual-time ordered), journal-ready."""
        records = []
        for slot, breaker in enumerate(self.breakers):
            for transition in breaker.transitions:
                records.append({"slot": slot, "at_s": transition.at_s,
                                "from": transition.from_state,
                                "to": transition.to_state,
                                "reason": transition.reason})
        records.sort(key=lambda r: (r["at_s"], r["slot"]))
        return records

    def trip_count(self) -> int:
        return sum(1 for r in self.breaker_transitions()
                   if r["to"] == BreakerState.OPEN.value)

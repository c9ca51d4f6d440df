"""Serve loop: tick-driven serving with a coasting fallback ladder.

One :func:`run_serve` call plays a :class:`~repro.serving.traffic.TrafficTrace`
through the full serving stack — defense router → request broker → replica
pool — and closes the loop the way the driving simulator does: every tick
that the broker cannot answer (shed under load, deadline blown by retries)
falls back to the perception watchdog's coasting ladder, so the planner
*always* gets an estimate and a degradation level, never a stall.

The core invariant (asserted by the chaos CI tier) is **total coverage**:
every tick is exactly one of

* ``answered`` — the broker returned a measurement within deadline,
* ``coasted``  — the deadline was blown; the Kalman tracker coasts,
* ``shed``     — admission control refused the request; the tracker coasts.

The loop's observable state (per-tick records, counters, breaker
transitions) lives entirely on the broker's virtual clock, so
:meth:`ServeReport.fingerprint` is bit-identical across executions even
when real replica processes crash, hang and respawn underneath.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..faults.watchdog import PerceptionWatchdog, WatchdogConfig
from ..pipeline.perception import PerceptionService
from ..pipeline.tracker import LeadKalmanFilter
from ..runtime.journal import emit
from .broker import BrokerConfig, RequestBroker
from .replica import ReplicaPool
from .router import DEFENDED_PATH, FAST_PATH, AdmissionScorer, DefenseRouter
from .traffic import TrafficTrace

logger = logging.getLogger(__name__)


class PerceptionServer:
    """Two-variant perception handler shipped (by fork) into each replica.

    The payload is ``(path, frame)`` where ``path`` selects the model
    variant: the fast path runs the undefended service, the defended path
    runs input purification + a hardened variant.  Returns a picklable
    ``(distance, raw_distance, fault)`` triple.
    """

    def __init__(self, fast: PerceptionService,
                 defended: Optional[PerceptionService] = None):
        self.services = {FAST_PATH: fast, DEFENDED_PATH: defended or fast}

    def __call__(self, payload: Tuple[str, np.ndarray]
                 ) -> Tuple[Optional[float], float, Optional[str]]:
        path, frame = payload
        output = self.services[path].process(frame)
        return (output.distance, output.raw_distance, output.fault)


@dataclass
class ServeConfig:
    broker: BrokerConfig = field(default_factory=BrokerConfig)
    watchdog: WatchdogConfig = field(default_factory=WatchdogConfig)
    router_enabled: bool = True
    n_replicas: int = 3
    forked: Optional[bool] = None  # default: fork when available
    wall_timeout: float = 10.0     # real seconds to declare a replica hung


@dataclass
class ServeTick:
    """One tick's outcome — everything downstream consumers need."""

    seq: int
    outcome: str                  # "answered" | "coasted" | "shed"
    path: str                     # routing decision (FAST_PATH | DEFENDED_PATH)
    status: str                   # broker status ("ok" | "deadline" | "shed")
    latency_ms: float             # virtual latency (0 when not answered)
    attempts: int
    hedged: bool
    slot: Optional[int]
    measurement: Optional[float]  # served distance (None: miss / no lead)
    estimate: float               # tracker estimate after this tick
    level: int                    # DegradationLevel value after this tick
    accepted: bool                # watchdog gate verdict on the measurement
    scorer_fault: bool
    attack: str                   # attack family ("" = clean frame)
    truth: float                  # ground-truth lead distance

    def to_record(self) -> Dict[str, Any]:
        record = dict(self.__dict__)
        record["latency_ms"] = round(self.latency_ms, 4)
        record["estimate"] = round(self.estimate, 5)
        if self.measurement is not None:
            record["measurement"] = round(self.measurement, 5)
        record["truth"] = round(self.truth, 5)
        return record


@dataclass
class ServeReport:
    """Everything a serve run produced, on the virtual clock."""

    ticks: List[ServeTick]
    counters: Dict[str, int]
    breaker_transitions: List[dict]

    def summary(self) -> Dict[str, Any]:
        total = len(self.ticks)
        outcomes = {"answered": 0, "coasted": 0, "shed": 0}
        for tick in self.ticks:
            outcomes[tick.outcome] = outcomes.get(tick.outcome, 0) + 1
        latencies = [tick.latency_ms for tick in self.ticks
                     if tick.outcome == "answered"]
        levels: Dict[str, int] = {}
        for tick in self.ticks:
            levels[str(tick.level)] = levels.get(str(tick.level), 0) + 1
        return {
            "ticks": total,
            "answered": outcomes["answered"],
            "coasted": outcomes["coasted"],
            "shed": outcomes["shed"],
            "unserved": total - sum(outcomes.values()),
            "availability": (round(outcomes["answered"] / total, 6)
                             if total else 0.0),
            "latency_p50_ms": (round(float(np.percentile(latencies, 50)), 4)
                               if latencies else None),
            "latency_p99_ms": (round(float(np.percentile(latencies, 99)), 4)
                               if latencies else None),
            "breaker_trips": sum(1 for t in self.breaker_transitions
                                 if t["to"] == "open"),
            "level_ticks": levels,
            "max_level": max((tick.level for tick in self.ticks), default=0),
            **self.counters,
        }

    def to_json(self) -> Dict[str, Any]:
        return {"summary": self.summary(),
                "breaker_transitions": self.breaker_transitions,
                "ticks": [tick.to_record() for tick in self.ticks]}

    def fingerprint(self) -> str:
        """SHA-256 over the full virtual-clock outcome stream.

        Two executions of the same serve run — chaos plan included, forked
        or serial — must produce the same fingerprint; this is the bit
        the determinism tests compare.
        """
        payload = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


def run_serve(trace: TrafficTrace, server: PerceptionServer,
              config: Optional[ServeConfig] = None,
              scorer: Optional[AdmissionScorer] = None,
              calibration_frames: Optional[np.ndarray] = None) -> ServeReport:
    """Serve one traffic trace end to end; never leaves a tick unserved."""
    config = config or ServeConfig()
    router = DefenseRouter(scorer=scorer, enabled=config.router_enabled)
    if (config.router_enabled and router.scorer.threshold is None
            and calibration_frames is not None):
        router.scorer.calibrate(calibration_frames)

    tracker = LeadKalmanFilter()
    watchdog = PerceptionWatchdog(config.watchdog)
    dt = trace.dt_ms / 1000.0
    ticks: List[ServeTick] = []

    with ReplicaPool(server, n_replicas=config.n_replicas,
                     wall_timeout=config.wall_timeout,
                     forked=config.forked) as pool:
        broker = RequestBroker(pool, config.broker)
        emit({"event": "serve-start", "ticks": len(trace),
              "replicas": pool.n_replicas, "forked": pool.forked,
              "router": config.router_enabled,
              "deadline_ms": broker.deadline_ms})

        for seq in range(len(trace)):
            frame = trace.frames[seq]
            decision = router.route(seq, frame)
            result = broker.submit(
                seq, (decision.path, frame), arrival_ms=seq * trace.dt_ms,
                defended=decision.path == DEFENDED_PATH)

            measurement: Optional[float] = None
            if result.status == "ok" and result.value is not None:
                measurement = result.value[0]
            if result.status == "ok":
                outcome = "answered"
            elif result.status == "shed":
                outcome = "shed"
            else:
                outcome = "coasted"

            tracker.predict(dt)
            gate = watchdog.observe(measurement, tracker, dt)
            if gate.accepted:
                if gate.reacquired:
                    tracker.reset(float(measurement))
                tracker.update(float(measurement))
            estimate = tracker.estimate()

            ticks.append(ServeTick(
                seq=seq, outcome=outcome, path=decision.path,
                status=result.status, latency_ms=result.latency_ms,
                attempts=result.attempts, hedged=result.hedged,
                slot=result.slot, measurement=measurement,
                estimate=estimate.distance, level=int(watchdog.level()),
                accepted=gate.accepted, scorer_fault=decision.scorer_fault,
                attack=trace.attack_names[seq],
                truth=float(trace.truths[seq])))

        counters = dict(broker.counters)
        counters["respawns"] = pool.respawns
        counters["routed_defended"] = router.routed_defended
        counters["scorer_faults"] = router.scorer_faults
        transitions = broker.breaker_transitions()

    for transition in transitions:
        emit({"event": "serve-breaker", **transition})
    report = ServeReport(ticks=ticks, counters=counters,
                         breaker_transitions=transitions)
    emit({"event": "serve-end", **report.summary()})
    logger.info("serve run: %s", report.summary())
    return report

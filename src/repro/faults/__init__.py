"""``repro.faults`` — deterministic fault injection, two planes.

**Sensor/perception plane** (:mod:`~repro.faults.sensor`,
:mod:`~repro.faults.watchdog`): composable camera-stream fault models
(frame drop, stuck frame, occlusion, exposure shift, noise bursts, NaN/Inf
corruption) injected between ``Camera`` and ``PerceptionService``, and the
graceful-degradation path — a perception watchdog with innovation +
temporal-consistency gating, tracker coasting, and a degraded/fallback ACC
ladder.

**Runtime plane** (:mod:`~repro.faults.runtime`): ``REPRO_FAULT_PLAN``
hooks that deliberately crash / hang / fail grid-executor workers so the
timeout, retry, and checkpoint/resume machinery in
:mod:`repro.runtime.parallel` is itself testable.

Everything is seeded and deterministic: the same fault plan plus the same
seeds produce bit-identical results under serial, parallel, and cached
execution.
"""

from .runtime import InjectedFault, RuntimeFault, RuntimeFaultPlan
from .sensor import (FAULT_REGISTRY, CorruptFrame, ExposureShift, FaultEvent,
                     FrameDrop, NoiseBurst, PartialOcclusion, SensorFault,
                     SensorFaultInjector, StuckFrame, from_spec, make_fault)
from .watchdog import (DegradationLevel, GateDecision, PerceptionWatchdog,
                       WatchdogConfig)

__all__ = [
    "SensorFault", "SensorFaultInjector", "FaultEvent", "FAULT_REGISTRY",
    "FrameDrop", "StuckFrame", "PartialOcclusion", "ExposureShift",
    "NoiseBurst", "CorruptFrame", "make_fault", "from_spec",
    "PerceptionWatchdog", "WatchdogConfig", "DegradationLevel",
    "GateDecision",
    "RuntimeFaultPlan", "RuntimeFault", "InjectedFault",
]

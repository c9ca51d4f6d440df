"""Runtime-plane fault injection: make the grid executor's failure paths
testable.

``REPRO_FAULT_PLAN`` describes deliberate faults to inject into
:func:`repro.runtime.parallel.parallel_map` workers, so the timeout / retry /
heartbeat machinery can be exercised deterministically (unit tests, chaos
smoke runs) instead of waiting for a real OOM kill:

    REPRO_FAULT_PLAN="crash@2"            # item 2 hard-exits on attempt 0
    REPRO_FAULT_PLAN="raise@0,hang@3"     # item 0 raises, item 3 hangs
    REPRO_FAULT_PLAN="crash@1:attempt=1"  # item 1 crashes on its 1st retry

Grammar: comma-separated ``<kind>@<target>[:attempt=<n>]`` with kind one of

* ``raise`` — raise :class:`InjectedFault` inside the cell,
* ``crash`` — ``os._exit(13)``: the worker dies without reporting (simulates
  an OOM kill / segfault),
* ``hang``  — sleep far beyond any per-cell timeout (simulates a wedged
  cell; the heartbeat monitor must detect and retry it).

``<target>`` is either a numeric item index within a ``parallel_map`` batch
(``crash@2``) or a *named scope* (``raise@zoo.detector``).  Both go through
the one :meth:`RuntimeFaultPlan.maybe_inject`: the forked worker
(:class:`repro.runtime.parallel.ForkedWorker`) fires it for each of its
targets before running a request, and long-running code outside the grid
executor — notably the model zoo's training paths — fires it with its scope
name via :func:`maybe_inject_scope`, so chaos plans can target "the
detector's training run" directly.  The caller supplies the attempt number.

``attempt`` defaults to 0, so by default a fault fires only on the first
execution of the item and the *retry succeeds* — which is exactly the
recovery path the runtime hardening promises.  Plans are parsed once in the
parent; forked workers inherit the parsed plan.

``attempt`` also accepts *ranges*, so a fault can persist across attempts —
the serving layer needs a replica that keeps crashing until its circuit
breaker trips:

    REPRO_FAULT_PLAN="crash@serve.replica.0:attempt=0+"   # every attempt
    REPRO_FAULT_PLAN="hang@serve.replica.1:attempt=3-7"   # attempts 3..7

The serving subsystem (:mod:`repro.serving`) consults the scopes
``serve.replica`` (all replicas), ``serve.replica.<slot>`` (one replica
slot) and ``serve.scorer`` (the defense router's admission scorer), with
the broker's global request sequence number as the attempt.

**Disk-fault kinds** target the checkpoint store
(:mod:`repro.runtime.store`) rather than the executor:

* ``torn-write`` — the artifact is truncated mid-file after the rename
  (simulates a crash between ``rename`` and the data reaching the platter),
* ``enospc``    — the write fails with ``OSError(ENOSPC)`` and the
  temp file is cleaned up (the previous artifact must survive intact),
* ``bitrot``    — one byte of the final artifact is flipped after a
  successful write (silent media corruption; the content digest must
  catch it on the next load).

They use the same grammar with the store's scope name
(``REPRO_FAULT_PLAN=torn-write@store``, ``bitrot@store:attempt=2``); the
store counts *write attempts per scope*, so ``attempt=0`` faults only the
first write and the retry/reload path recovers.  Disk kinds never fire
from :meth:`RuntimeFaultPlan.maybe_inject` — the store asks for them
explicitly via :func:`maybe_disk_fault`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..runtime import env

#: how long a "hang" sleeps; far beyond any sane per-cell timeout, but
#: bounded so an unmonitored test can still terminate.
HANG_SECONDS = 3600.0

#: kinds fired inside the executor / training paths (control-flow faults).
_EXEC_KINDS = ("raise", "crash", "hang")
#: kinds fired inside the checkpoint store (storage faults).
DISK_KINDS = ("torn-write", "enospc", "bitrot")
_KINDS = _EXEC_KINDS + DISK_KINDS


class InjectedFault(RuntimeError):
    """Deliberate failure injected by the runtime fault plan."""


@dataclass(frozen=True)
class RuntimeFault:
    kind: str                   # "raise" | "crash" | "hang"
    index: Union[int, str]      # batch item index, or a named scope
    attempt: int                # first execution attempt the fault fires on
    #: last attempt the fault fires on (inclusive); ``None`` = only
    #: ``attempt`` itself, ``-1`` = open-ended (``attempt=N+``).
    attempt_end: Optional[int] = None

    def matches(self, attempt: int) -> bool:
        if self.attempt_end is None:
            return attempt == self.attempt
        if self.attempt_end < 0:
            return attempt >= self.attempt
        return self.attempt <= attempt <= self.attempt_end


def _parse_attempt(value: str) -> Tuple[int, Optional[int]]:
    """Parse an ``attempt=`` clause: ``N`` exact, ``N+`` open, ``N-M`` range."""
    value = value.strip()
    if value.endswith("+"):
        return int(value[:-1]), -1
    lo, sep, hi = value.partition("-")
    if sep and lo:  # "N-M" (a leading "-" is a plain negative int)
        return int(lo), int(hi)
    return int(value), None


class RuntimeFaultPlan:
    """Parsed ``REPRO_FAULT_PLAN``; empty plan injects nothing."""

    def __init__(self, faults: Tuple[RuntimeFault, ...] = ()):
        self._by_index: Dict[Union[int, str], Tuple[RuntimeFault, ...]] = {}
        for fault in faults:
            self._by_index[fault.index] = (
                self._by_index.get(fault.index, ()) + (fault,))

    def __bool__(self) -> bool:
        return bool(self._by_index)

    @classmethod
    def parse(cls, spec: Optional[str]) -> "RuntimeFaultPlan":
        if not spec or not spec.strip():
            return cls()
        faults = []
        for part in filter(None, (p.strip() for p in spec.split(","))):
            head, _, tail = part.partition(":")
            kind, _, index = head.partition("@")
            kind = kind.strip()
            if kind not in _KINDS:
                raise ValueError(
                    f"unknown runtime fault kind {kind!r} in "
                    f"{env.FAULT_PLAN.name}; known: {_KINDS}")
            attempt, attempt_end = 0, None
            if tail:
                key, _, value = tail.partition("=")
                if key.strip() != "attempt":
                    raise ValueError(
                        f"unknown runtime fault option {key!r} in "
                        f"{env.FAULT_PLAN.name} (only 'attempt=N', "
                        f"'attempt=N+' or 'attempt=N-M')")
                attempt, attempt_end = _parse_attempt(value)
            target = index.strip()
            if not target:
                raise ValueError(
                    f"missing fault target in {part!r} (expected "
                    f"kind@index or kind@scope)")
            resolved: Union[int, str] = (int(target)
                                         if target.lstrip("-").isdigit()
                                         else target)
            faults.append(RuntimeFault(kind=kind, index=resolved,
                                       attempt=attempt,
                                       attempt_end=attempt_end))
        return cls(tuple(faults))

    @classmethod
    def from_env(cls) -> "RuntimeFaultPlan":
        return cls.parse(env.FAULT_PLAN.get())

    def lookup(self, index: Union[int, str],
               attempt: int) -> Optional[RuntimeFault]:
        for fault in self._by_index.get(index, ()):
            if fault.matches(attempt):
                return fault
        return None

    def maybe_inject(self, target: Union[int, str], attempt: int = 0) -> None:
        """Fire the planned fault for (target, attempt), if any.

        ``target`` is a ``parallel_map`` item index or a named scope.
        ``raise`` raises, ``crash`` kills the process, ``hang`` sleeps.
        """
        fault = self.lookup(target, attempt)
        if fault is None or fault.kind not in _EXEC_KINDS:
            return
        if fault.kind == "raise":
            label = (f"item {target}" if isinstance(target, int)
                     else f"scope {target!r}")
            raise InjectedFault(
                f"injected failure for {label} attempt {attempt}")
        if fault.kind == "crash":
            os._exit(13)
        time.sleep(HANG_SECONDS)  # pragma: no cover - killed by the monitor

    def disk_fault(self, scope: str, attempt: int = 0) -> Optional[str]:
        """Planned *disk* fault kind for (scope, attempt), or ``None``.

        Consumed by :mod:`repro.runtime.store`, which applies the actual
        torn-write / ENOSPC / bit-flip semantics itself — this only answers
        "is a storage fault scheduled here".
        """
        fault = self.lookup(scope, attempt)
        if fault is not None and fault.kind in DISK_KINDS:
            return fault.kind
        return None


def maybe_inject_scope(scope: str, attempt: int = 0) -> None:
    """Module-level convenience: read the env plan, fire for ``scope``."""
    plan = RuntimeFaultPlan.from_env()
    if plan:
        plan.maybe_inject(scope, attempt)


def maybe_disk_fault(scope: str, attempt: int = 0) -> Optional[str]:
    """Module-level convenience: planned disk-fault kind for ``scope``."""
    plan = RuntimeFaultPlan.from_env()
    if plan:
        return plan.disk_fault(scope, attempt)
    return None

"""Process-parallel map over independent experiment cells, hardened.

The experiment grids (attack × defense × model) are embarrassingly parallel:
every cell constructs its own attack/defense objects with fixed seeds and
only *reads* the shared models.  :func:`parallel_map` fans such cells across
``fork``\\ ed worker processes:

* **fork, not spawn** — cells are closures over live models and datasets;
  fork inherits them for free, so nothing but the *results* ever crosses a
  process boundary (as pickles through per-worker pipes; private pipes mean
  a dying worker cannot wedge its siblings on a shared queue lock).  The
  child is a :class:`ForkedWorker`, the same primitive the serving
  :class:`~repro.serving.replica.ReplicaPool` runs its replicas on.
* **deterministic** — cells carry their own seeds, so scheduling order
  cannot change results; the output list is always in input order and
  bit-identical to the serial path (asserted in
  ``tests/runtime/test_grid_equivalence.py``).
* **robust** — a dynamic task queue with per-cell heartbeats: a worker that
  *crashes* (OOM kill, segfault) or *hangs* past ``REPRO_CELL_TIMEOUT`` is
  detected, its in-flight cell is retried up to ``REPRO_MAX_RETRIES`` times
  (cells are deterministic, so a retry is bit-identical to an uninterrupted
  run), and a replacement worker is spawned.  ``REPRO_FAULT_PLAN``
  (:mod:`repro.faults.runtime`) injects deliberate crashes/hangs/raises so
  this machinery is itself testable.
* **checkpointable** — ``on_result`` fires in the parent as each cell
  completes, letting :class:`~repro.runtime.grid.GridRunner` persist
  results incrementally; a killed run resumes from the result cache.
* **graceful fallback** — ``REPRO_WORKERS=1``, a single-item batch, or a
  platform without ``fork`` (Windows spawn cannot ship closures) all take
  the plain serial loop (which still honours retries for raised faults;
  crash/hang injections are skipped serially since they cannot be
  recovered in-process).

Worker count resolution: explicit argument > ``REPRO_WORKERS`` env var >
``os.cpu_count()``.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing as mp
import os
import time
import traceback
from collections import deque
from multiprocessing import connection as mp_connection
from typing import (TYPE_CHECKING, Callable, Deque, List, Optional, Sequence,
                    Set, Tuple, TypeVar)

from ..nn import native

if TYPE_CHECKING:  # imported lazily at runtime: faults.sensor needs
    from ..faults.runtime import RuntimeFaultPlan  # stable_seed from here

Item = TypeVar("Item")
Result = TypeVar("Result")

logger = logging.getLogger(__name__)

from . import env as _env  # noqa: E402 - registry import after typing setup

_POLL_S = 0.05


def worker_count(workers: Optional[int] = None) -> int:
    """Resolve the effective worker count (>= 1)."""
    if workers is not None:
        return max(1, int(workers))
    value = _env.WORKERS.get()
    if value is not None:
        return max(1, value)
    return os.cpu_count() or 1


def cell_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Per-cell wall-clock budget in seconds; ``None`` disables the monitor.

    Explicit argument > ``REPRO_CELL_TIMEOUT`` env var > disabled.
    """
    if timeout is not None:
        return float(timeout) if timeout > 0 else None
    value = _env.CELL_TIMEOUT.get()
    if value is not None:
        return value if value > 0 else None
    return None


def max_retries(retries: Optional[int] = None) -> int:
    """How many times a failed/crashed/hung cell is re-attempted (>= 0)."""
    if retries is not None:
        return max(0, int(retries))
    return max(0, _env.MAX_RETRIES.get())


def fork_available() -> bool:
    """Whether this process may fork workers.

    False inside a forked worker: ``multiprocessing`` forbids a daemonic
    process from having children, so a grid cell that serves through a
    :class:`~repro.serving.ReplicaPool` (``serve_bench``) runs its replicas
    in process instead of failing.
    """
    if mp.current_process().daemon:
        return False
    try:
        return "fork" in mp.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


def stable_seed(*parts, base: int = 0) -> int:
    """Deterministic 32-bit seed derived from cell-identifying parts.

    Unlike ``hash()``, this is stable across processes and interpreter runs
    (``PYTHONHASHSEED`` does not affect it), so a cell gets the same seed no
    matter which worker executes it.
    """
    blob = repr((base,) + parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "little")


class WorkerError(RuntimeError):
    """A cell failed in a worker after exhausting retries."""

    def __init__(self, index: int, remote_traceback: str):
        super().__init__(
            f"parallel_map item {index} failed in worker:\n{remote_traceback}")
        self.index = index
        self.remote_traceback = remote_traceback


OnResult = Callable[[int, Result], None]
#: fired in the parent whenever an attempt is lost (raise/crash/hang):
#: ``on_fault(index, attempt, reason)`` — the run journal's hook.
OnFault = Callable[[int, int, str], None]


def parallel_map(fn: Callable[[Item], Result], items: Sequence[Item],
                 workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 on_result: Optional[OnResult] = None,
                 on_fault: Optional[OnFault] = None) -> List[Result]:
    """``[fn(item) for item in items]``, fanned across forked processes.

    Results are returned in input order.  A cell that raises, whose worker
    dies (hard crash / OOM kill), or that exceeds the per-cell ``timeout``
    is retried up to ``retries`` times; once the budget is exhausted the
    parent raises :class:`WorkerError` carrying the remote traceback (or a
    synthesized one for crashes/hangs).  ``on_result(index, result)`` runs
    in the parent as each item completes — the checkpoint hook;
    ``on_fault(index, attempt, reason)`` runs in the parent as each lost
    attempt is detected — the journal hook.
    """
    from ..faults.runtime import RuntimeFaultPlan

    items = list(items)
    n_workers = min(worker_count(workers), len(items))
    budget = max_retries(retries)
    plan = RuntimeFaultPlan.from_env()
    if n_workers <= 1 or not fork_available():
        return _serial_map(fn, items, budget, plan, on_result, on_fault)
    return _forked_map(fn, items, n_workers, cell_timeout(timeout), budget,
                       plan, on_result, on_fault)


def _serial_map(fn, items, budget: int, plan: "RuntimeFaultPlan",
                on_result: Optional[OnResult],
                on_fault: Optional[OnFault] = None) -> List:
    """In-process fallback; retries raised faults, re-raising the last one."""
    results = []
    for index, item in enumerate(items):
        for attempt in range(budget + 1):
            try:
                fault = plan.lookup(index, attempt)
                if fault is not None and fault.kind != "raise":
                    logger.warning(
                        "serial parallel_map cannot inject %r for item %d "
                        "(needs >= 2 workers); skipping", fault.kind, index)
                else:
                    plan.maybe_inject(index, attempt)
                result = fn(item)
                break
            except Exception as error:
                if on_fault is not None:
                    on_fault(index, attempt,
                             f"raised: {type(error).__name__}: {error}")
                if attempt >= budget:
                    raise
                logger.warning("item %d failed on attempt %d; retrying",
                               index, attempt, exc_info=True)
        results.append(result)
        if on_result is not None:
            on_result(index, result)
    return results


def _serve(conn, handler: Callable, targets: Callable,
           plan: "RuntimeFaultPlan") -> None:
    """Child loop: answer ``(tag, attempt, payload)`` requests until EOF/None.

    The child first drops to one BLAS thread, so N workers run N BLAS
    threads, not N times the parent's count.  The fault plan fires for each
    of ``targets(tag)`` at ``attempt`` before the handler runs.  A failure
    is answered with a one-line ``"<Type>: <message>"`` summary, the text
    the serial paths report, next to the full traceback.
    """
    native.use_one_blas_thread()
    while True:
        try:
            request = conn.recv()
        except EOFError:  # parent is gone
            return
        if request is None:
            return
        tag, attempt, payload = request
        try:
            for target in targets(tag):
                plan.maybe_inject(target, attempt)
            result = handler(payload)
        except BaseException as error:
            conn.send((tag, attempt, False,
                       (f"{type(error).__name__}: {error}",
                        traceback.format_exc())))
        else:
            conn.send((tag, attempt, True, result))


class ForkedWorker:
    """A ``fork``\\ ed child serving ``handler`` on a private duplex pipe.

    No lock is shared between workers, so one dying mid-operation cannot
    wedge its siblings; the parent sees EOF on its pipe.  The grid executor
    and the serving replica pool both run on it, each with its own waiting.
    """

    def __init__(self, handler: Callable, targets: Callable,
                 plan: "RuntimeFaultPlan"):
        ctx = mp.get_context("fork")
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=_serve,
                                   args=(child_conn, handler, targets, plan),
                                   daemon=True)
        self.process.start()
        child_conn.close()
        self.task: Optional[Tuple] = None  # (tag, attempt) in flight
        self.started_at = 0.0

    def send(self, tag, attempt: int, payload) -> None:
        """Ship one request; raises ``BrokenPipeError``/``OSError`` if dead."""
        self.task = (tag, attempt)
        self.started_at = time.monotonic()
        self.conn.send((tag, attempt, payload))

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join()
        self.conn.close()


def close_workers(workers: Sequence[ForkedWorker]) -> None:
    """Ask every worker to exit, share one 5 s join deadline, then kill."""
    for worker in workers:
        try:
            worker.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
    deadline = time.monotonic() + 5.0
    for worker in workers:
        worker.process.join(timeout=max(0.1, deadline - time.monotonic()))
        worker.kill()


def _forked_map(fn, items, n_workers: int, timeout: Optional[float],
                budget: int, plan: "RuntimeFaultPlan",
                on_result: Optional[OnResult],
                on_fault: Optional[OnFault] = None) -> List:
    def spawn() -> ForkedWorker:
        return ForkedWorker(lambda index: fn(items[index]),
                            lambda index: (index,), plan)

    pending: Deque[Tuple[int, int]] = deque(
        (index, 0) for index in range(len(items)))
    workers: List[ForkedWorker] = [spawn() for _ in range(n_workers)]

    results: List = [None] * len(items)
    unfinished: Set[int] = set(range(len(items)))
    # Each respawn corresponds to a consumed attempt, so the budget is
    # bounded; the cap below is a backstop against pathological loops.
    respawn_budget = len(items) * (budget + 1)
    failure: Optional[WorkerError] = None

    def retry_or_fail(index: int, attempt: int, reason: str,
                      remote_traceback: str = "") -> None:
        nonlocal failure
        if index not in unfinished:
            return  # completed just before we decided it was lost
        if on_fault is not None:
            on_fault(index, attempt, reason)
        if attempt < budget:
            logger.warning("cell %d %s on attempt %d; retrying", index,
                           reason, attempt)
            pending.append((index, attempt + 1))
        elif failure is None:
            failure = WorkerError(index, (f"{reason} (after {attempt + 1} "
                                          f"attempts, no retries left)\n"
                                          f"{remote_traceback}").rstrip())

    def replace(worker: ForkedWorker, reason: str) -> None:
        """Kill a crashed/hung worker, reschedule its task, spawn a spare."""
        nonlocal respawn_budget
        worker.kill()
        workers.remove(worker)
        if worker.task is not None:
            index, attempt = worker.task
            retry_or_fail(index, attempt, reason)
        if unfinished and failure is None:
            if respawn_budget <= 0:  # pragma: no cover - backstop
                raise RuntimeError("parallel_map respawn budget exhausted "
                                   "(workers keep dying)")
            respawn_budget -= 1
            workers.append(spawn())

    try:
        while unfinished and failure is None:
            for worker in workers:
                if worker.task is None and pending:
                    index, attempt = pending.popleft()
                    worker.send(index, attempt, index)
            busy = {worker.conn: worker for worker in workers
                    if worker.task is not None}
            if not busy:  # everything in flight was lost; loop to reassign
                continue
            ready = mp_connection.wait(list(busy), timeout=_POLL_S)
            for conn in ready:
                worker = busy[conn]
                try:
                    index, attempt, ok, payload = conn.recv()
                except (EOFError, OSError):  # hard crash (OOM kill, segv)
                    replace(worker, "worker died "
                                    f"(exit code {worker.process.exitcode})")
                    continue
                worker.task = None
                if index not in unfinished:
                    continue  # stale duplicate from a raced retry
                if ok:
                    unfinished.discard(index)
                    results[index] = payload
                    if on_result is not None:
                        on_result(index, payload)
                else:
                    summary, remote = payload
                    retry_or_fail(index, attempt, f"raised: {summary}",
                                  remote)
            if timeout is not None:
                now = time.monotonic()
                for worker in [w for w in workers if w.task is not None]:
                    if now - worker.started_at > timeout:
                        index, _ = worker.task
                        logger.warning(
                            "cell %d exceeded %.1fs heartbeat timeout; "
                            "killing its worker", index, timeout)
                        replace(worker,
                                f"timed out after {timeout:.1f}s")
    finally:
        close_workers(workers)
    if failure is not None:
        raise failure
    return results

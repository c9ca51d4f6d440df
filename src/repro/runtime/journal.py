"""Per-run journal: an append-only ``journal.jsonl`` under ``.cache/runs/``.

Every CLI invocation through ``python -m repro.cli run <exp>`` gets a run
id (``run-0001``, ``run-0002``, …) and a journal file at
``.cache/runs/<id>/journal.jsonl``.  The grid executor, the model zoo and
the checkpoint store append one JSON line per event:

* ``run-start`` / ``run-end`` — CLI lifecycle,
* ``grid-start`` / ``cell`` / ``grid-end`` — per-grid progress, with each
  cell's status (``cached`` / ``done`` / ``lost``),
* ``train-start`` / ``train-progress`` / ``train-resume`` /
  ``train-done`` — zoo training paths, including per-snapshot epoch
  progress (:meth:`RunJournal.describe_fan` folds these into the
  ``--resume`` banner's retraining-fan line),
* ``store-fault`` — quarantined / injected storage faults.

The journal and the result cache are the only resume state.  ``--resume
<id>`` reopens the same journal; completed cells come back as ordinary
``cached`` hits, and a cell the journal says finished but the enabled
cache no longer holds is recomputed *loudly* with a ``lost`` event, never
silently.

Writes are single ``write()`` calls on a file opened in append mode and
fsync'd, so a crash mid-append can tear at most the final line — the
tolerant reader drops a torn tail (with a warning) instead of failing the
resume.  Timestamps are monotonic offsets from journal open
(``elapsed_s``), not wall-clock times, keeping journal content within the
repo's determinism rules (lint R002).
"""

from __future__ import annotations

import json
import logging
import os
import re
from time import perf_counter
from typing import Any, Dict, List, Optional, Set

from . import env
from .cache import cache_root

logger = logging.getLogger(__name__)

JOURNAL_FILENAME = "journal.jsonl"
_RUN_ID_RE = re.compile(r"^run-(\d+)$")
_TRAIN_EVENTS = ("train-start", "train-progress", "train-resume",
                 "train-done")


def runs_root() -> str:
    return os.path.join(cache_root(), "runs")


class RunJournal:
    """Append-only event log for one (possibly resumed) run."""

    def __init__(self, run_id: str, directory: str):
        self.run_id = run_id
        self.directory = directory
        self.path = os.path.join(directory, JOURNAL_FILENAME)
        os.makedirs(directory, exist_ok=True)
        self._t0 = perf_counter()
        self._seq = 0
        for event in self.events():
            self._seq = max(self._seq, int(event.get("seq", -1)) + 1)

    # -- writing --------------------------------------------------------
    def append(self, event: Dict[str, Any]) -> None:
        record = dict(event)
        record["seq"] = self._seq
        record["elapsed_s"] = round(perf_counter() - self._t0, 3)
        self._seq += 1
        line = json.dumps(record, default=str)
        # One write() on an O_APPEND handle + fsync: a crash can tear at
        # most this line, and concurrent appends from forked helpers
        # interleave at line granularity.
        with open(self.path, "a") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    # -- reading --------------------------------------------------------
    def events(self) -> List[Dict[str, Any]]:
        """All well-formed events, oldest first; torn lines are dropped.

        A torn (crash-interrupted) trailing line is expected after a kill
        and only logged at WARNING so ``--resume`` keeps working.
        """
        if not os.path.exists(self.path):
            return []
        events: List[Dict[str, Any]] = []
        dropped = 0
        with open(self.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    dropped += 1
                    continue
                if isinstance(event, dict):
                    events.append(event)
                else:
                    dropped += 1
        if dropped:
            logger.warning(
                "journal %s: dropped %d torn/garbled line(s) — expected "
                "after a crash mid-append", self.path, dropped)
        return events

    def completed_cells(self, grid: str) -> Set[str]:
        """Labels of cells the journal records as finished for ``grid``."""
        done: Set[str] = set()
        for event in self.events():
            if (event.get("event") == "cell" and event.get("grid") == grid
                    and event.get("status") in ("done", "cached")):
                done.add(str(event.get("cell")))
        return done

    def summary(self) -> Dict[str, int]:
        """Event counts by type — the ``--resume`` banner's raw material."""
        counts: Dict[str, int] = {}
        for event in self.events():
            kind = str(event.get("event", "?"))
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def describe_fan(self) -> Optional[str]:
        """The ``--resume`` banner's retraining-fan line; ``None`` if empty.

        Folds the ``train-*`` events into per-variant status and epoch.
        Zoo events name the variant in ``model``; checkpointer events carry
        the ``zoo.``-prefixed snapshot ``label``.
        """
        variants: Dict[str, Dict[str, Any]] = {}
        for event in self.events():
            kind = event.get("event")
            if kind not in _TRAIN_EVENTS:
                continue
            name = str(event.get("model") or re.sub(
                r"^zoo\.", "", str(event.get("label") or "")))
            if not name:
                continue
            entry = variants.setdefault(name, {"epoch": 0})
            if kind == "train-done":
                entry["done"] = True
            elif kind == "train-start":
                entry.update(done=False, epoch=0)
            else:
                entry["epoch"] = int(event.get("epoch", 0))
        if not variants:
            return None
        pending = sorted(name for name, entry in variants.items()
                         if not entry.get("done"))
        line = (f"retraining fan: {len(variants) - len(pending)}/"
                f"{len(variants)} variant(s) trained")
        if pending:
            line += "; remaining: " + ", ".join(
                f"{name} (epoch {variants[name]['epoch']})"
                for name in pending)
        return line


# ---------------------------------------------------------------------------
# process-global active journal (mirrors runtime.instrument.GLOBAL)

_ACTIVE: Optional[RunJournal] = None


def set_journal(journal: Optional[RunJournal]) -> None:
    global _ACTIVE
    _ACTIVE = journal


def get_journal() -> Optional[RunJournal]:
    """The active journal; lazily attached from ``REPRO_RUN_ID`` if set.

    The env fallback means forked grid workers (which inherit the
    environment) and zoo code running under ``repro.cli run`` all append
    to the same journal without explicit plumbing.
    """
    global _ACTIVE
    if _ACTIVE is None:
        run_id = env.RUN_ID.get()
        if run_id:
            _ACTIVE = RunJournal(run_id, os.path.join(runs_root(), run_id))
    return _ACTIVE


def emit(event: Dict[str, Any]) -> None:
    """Append to the active journal; silently a no-op when none is active."""
    journal = get_journal()
    if journal is not None:
        journal.append(event)


def new_run_id() -> str:
    """Next unused ``run-NNNN`` id under the runs root (deterministic)."""
    highest = 0
    try:
        for name in sorted(os.listdir(runs_root())):
            match = _RUN_ID_RE.match(name)
            if match:
                highest = max(highest, int(match.group(1)))
    except OSError:
        pass
    return f"run-{highest + 1:04d}"


def start_run(resume: Optional[str] = None) -> RunJournal:
    """Open (or resume) a run journal and install it as the active one.

    Also exports ``REPRO_RUN_ID`` so forked workers inherit the binding.
    Raises ``FileNotFoundError`` when ``resume`` names a run with no
    journal on disk.
    """
    if resume:
        directory = os.path.join(runs_root(), resume)
        if not os.path.exists(os.path.join(directory, JOURNAL_FILENAME)):
            raise FileNotFoundError(
                f"no journal for run {resume!r} under {runs_root()} — "
                f"known runs are listed there")
        journal = RunJournal(resume, directory)
    else:
        run_id = new_run_id()
        journal = RunJournal(run_id, os.path.join(runs_root(), run_id))
    set_journal(journal)
    env.RUN_ID.set(journal.run_id)
    return journal

"""Central registry for every ``REPRO_*`` environment variable.

Before this module existed, ``os.environ`` reads were scattered across the
runtime (workers, timeouts, cache knobs), the fault injector, and the model
zoo — each with its own parsing, defaults, and error wording, and nothing
keeping the README table honest.  Now every knob is *declared* here once
(name, type, default, docstring) and read through :meth:`EnvVar.get`; the
static lint rule R003 (:mod:`repro.analysis.lint`) flags any ``REPRO_*``
read that bypasses the registry, and :func:`render_markdown_table`
regenerates the README's environment-variable table so documentation cannot
drift from the code.

Declaring a knob::

    MY_KNOB = declare("REPRO_MY_KNOB", "int", default=3,
                      doc="How many of the thing to use.")

Reading it::

    value = MY_KNOB.get()          # parsed int, or 3 when unset
    raw = MY_KNOB.raw()            # the raw string (or None)

``get`` raises ``ValueError`` naming the variable on an unparseable value,
so every knob fails loudly and identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

#: declared name -> EnvVar, in declaration order (the README table order).
REGISTRY: Dict[str, "EnvVar"] = {}

_TYPES = ("str", "int", "float", "bool")


class UndeclaredEnvVar(KeyError):
    """A ``REPRO_*`` variable was read without being declared here first."""


@dataclass(frozen=True)
class EnvVar:
    """One declared environment knob."""

    name: str        # full variable name, e.g. "REPRO_WORKERS"
    type: str        # "str" | "int" | "float" | "bool"
    default: Any     # python-typed default returned when unset
    doc: str         # one-line description (rendered into the README table)

    def raw(self) -> Optional[str]:
        """The raw string from the environment, or ``None`` when unset.

        This is the single sanctioned ``os.environ`` read for ``REPRO_*``
        names; everything else in ``src/repro`` must route through it
        (enforced by lint rule R003).
        """
        return os.environ.get(self.name)

    def get(self) -> Any:
        """Parsed value, or the declared default when unset/empty."""
        value = self.raw()
        if value is None or value == "":
            return self.default
        return self.parse(value)

    def parse(self, value: str) -> Any:
        if self.type == "str":
            return value
        if self.type == "bool":
            # Convention used by every toggle in this repo: the literal
            # string "0" disables, anything else enables.
            return value != "0"
        try:
            if self.type == "int":
                return int(value)
            return float(value)
        except ValueError:
            kind = "an integer" if self.type == "int" else "a number"
            raise ValueError(f"{self.name} must be {kind}, got {value!r}")

    def set(self, value: Any) -> None:
        """Write the variable (propagates to forked workers via ``environ``)."""
        os.environ[self.name] = str(value)


def declare(name: str, type: str, default: Any, doc: str) -> EnvVar:
    """Register a ``REPRO_*`` variable; idempotent for identical redeclares."""
    if not name.startswith("REPRO_"):
        raise ValueError(f"registry is for REPRO_* variables, got {name!r}")
    if type not in _TYPES:
        raise ValueError(f"unknown env type {type!r}; known: {_TYPES}")
    var = EnvVar(name=name, type=type, default=default, doc=doc)
    existing = REGISTRY.get(name)
    if existing is not None and existing != var:
        raise ValueError(f"{name} already declared with different attributes")
    REGISTRY[name] = var
    return var


def lookup(name: str) -> EnvVar:
    """The declared :class:`EnvVar` for ``name``; raises if undeclared."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise UndeclaredEnvVar(
            f"{name} is not declared in repro.runtime.env; declare it with "
            f"env.declare(...) before reading it")


# ---------------------------------------------------------------------------
# The repo's knobs, declared in the order the README documents them.
# ---------------------------------------------------------------------------

WORKERS = declare(
    "REPRO_WORKERS", "int", default=None,
    doc="Worker processes for experiment grids (default: CPU count).")

RESULT_CACHE = declare(
    "REPRO_RESULT_CACHE", "bool", default=True,
    doc="Set to `0` to disable the content-addressed result cache.")

CACHE_DIR = declare(
    "REPRO_CACHE_DIR", "str", default=None,
    doc="Cache root for model checkpoints and cell results "
        "(default: `.cache/` in the repo).")

CACHE_MAX_MB = declare(
    "REPRO_CACHE_MAX_MB", "float", default=None,
    doc="LRU size budget for `.cache/cells`; unset or <= 0 disables the "
        "GC sweep.")

CELL_TIMEOUT = declare(
    "REPRO_CELL_TIMEOUT", "float", default=None,
    doc="Per-cell heartbeat timeout in seconds; unset or <= 0 disables "
        "the hang monitor.")

MAX_RETRIES = declare(
    "REPRO_MAX_RETRIES", "int", default=2,
    doc="Retry budget for crashed/hung/failed grid cells.")

FAULT_PLAN = declare(
    "REPRO_FAULT_PLAN", "str", default=None,
    doc="Deliberate worker/training/disk faults for chaos testing, e.g. "
        "`crash@2,raise@zoo.detector,torn-write@store` (disk kinds: "
        "`torn-write`, `enospc`, `bitrot` against the checkpoint store).")

SANITIZE = declare(
    "REPRO_SANITIZE", "str", default=None,
    doc="Comma-separated runtime sanitizers: `nan`, `alias` (see "
        "`repro.analysis.sanitize`).")

RUN_ID = declare(
    "REPRO_RUN_ID", "str", default=None,
    doc="Attach journal events to this run id under `.cache/runs/` "
        "(set automatically by `python -m repro.cli run`).")


# ---------------------------------------------------------------------------
# Documentation generator — keeps the README table in sync.
# ---------------------------------------------------------------------------

TABLE_BEGIN = "<!-- env-table:begin (generated by repro.runtime.env) -->"
TABLE_END = "<!-- env-table:end -->"


def render_markdown_table() -> str:
    """The README's environment-variable table, generated from the registry."""
    lines = [
        TABLE_BEGIN,
        "| Variable | Type | Default | Purpose |",
        "|---|---|---|---|",
    ]
    for var in REGISTRY.values():
        default = "unset" if var.default is None else f"`{var.default}`"
        lines.append(f"| `{var.name}` | {var.type} | {default} | {var.doc} |")
    lines.append(TABLE_END)
    return "\n".join(lines)


def sync_markdown_table(text: str) -> str:
    """Replace the generated table between the markers inside ``text``.

    Raises ``ValueError`` when the markers are missing — the README must
    carry them for the `analyze envdoc` verb to keep it in sync.
    """
    begin = text.find(TABLE_BEGIN)
    end = text.find(TABLE_END)
    if begin == -1 or end == -1:
        raise ValueError("env-table markers not found in document")
    end += len(TABLE_END)
    return text[:begin] + render_markdown_table() + text[end:]

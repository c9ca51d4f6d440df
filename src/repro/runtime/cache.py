"""Content-addressed cache for experiment cell results.

Two artifact classes, mirroring what the experiments actually produce:

* **array batches** (adversarial image sets) as ``.npz`` archives, and
* **metrics** (range errors, detection triples, ablation rows) as tagged
  JSON (see :mod:`repro.runtime.codecs`).

Every entry is keyed by a SHA-256 fingerprint of its configuration dict —
attack name, eval-set sizes, seeds, and (crucially) the *weights fingerprint*
of any model the result depends on — so re-running a table recomputes only
the cells whose inputs changed.  Entries are written through the
crash-consistent checkpoint store (:mod:`repro.runtime.store`): atomic
fsync'd rename with an embedded content digest, and corrupt/torn entries
are quarantined to ``cells/quarantine/`` with a logged fault event before
degrading to a miss — exactly like the model zoo.

Layout: ``$REPRO_CACHE_DIR/cells/<name>-<fingerprint>.{npz,json}`` next to
the model zoo's checkpoints.  Disable with ``REPRO_RESULT_CACHE=0``.  The
directory grows monotonically by default; set ``REPRO_CACHE_MAX_MB`` to
bound it — :meth:`ResultCache.sweep` (run after every grid) evicts
least-recently-used entries until the budget holds.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from typing import Any, Callable, Dict, Optional

import numpy as np

from . import codecs, env, store

logger = logging.getLogger(__name__)


def cache_root() -> str:
    """The cache root (``$REPRO_CACHE_DIR`` or ``<repo>/.cache``).

    Zoo checkpoints live at its top level, grid cells under ``cells/`` and
    run journals under ``runs/``.
    """
    path = env.CACHE_DIR.get()
    if path is None:
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
        path = os.path.join(root, ".cache")
    return path


def cache_enabled() -> bool:
    return bool(env.RESULT_CACHE.get())


def cache_max_bytes() -> Optional[int]:
    """Size budget for ``.cache/cells`` from ``REPRO_CACHE_MAX_MB``.

    ``None`` (unset or non-positive) disables the GC sweep.
    """
    megabytes = env.CACHE_MAX_MB.get()
    if megabytes is None or megabytes <= 0:
        return None
    return int(megabytes * 1024 * 1024)


def fingerprint(config: Dict[str, Any]) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def array_fingerprint(array: np.ndarray) -> str:
    """Short content hash of an array (cache-key component)."""
    digest = hashlib.sha256()
    array = np.ascontiguousarray(array)
    digest.update(str(array.dtype).encode())
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()[:16]


class ResultCache:
    """Filesystem cache for grid-cell results."""

    def __init__(self, root: Optional[str] = None,
                 enabled: Optional[bool] = None):
        self.root = (root if root is not None
                     else os.path.join(cache_root(), "cells"))
        self._enabled = enabled

    @property
    def enabled(self) -> bool:
        return cache_enabled() if self._enabled is None else self._enabled

    def path(self, name: str, config: Dict[str, Any], ext: str) -> str:
        return os.path.join(self.root, f"{name}-{fingerprint(config)}.{ext}")

    # -- npz: adversarial image batches ---------------------------------
    def load_arrays(self, name: str, config: Dict[str, Any]
                    ) -> Optional[Dict[str, np.ndarray]]:
        if not self.enabled:
            return None
        path = self.path(name, config, "npz")
        arrays = store.try_load_state(path)
        if arrays is None:
            return None
        self._touch(path)
        return arrays

    def save_arrays(self, name: str, config: Dict[str, Any],
                    arrays: Dict[str, np.ndarray]) -> None:
        if not self.enabled:
            return
        store.save_state(self.path(name, config, "npz"), arrays)

    def memo_array(self, name: str, config: Dict[str, Any],
                   compute: Callable[[], np.ndarray]) -> np.ndarray:
        """Single-array convenience: cache hit or compute-and-store."""
        cached = self.load_arrays(name, config)
        if cached is not None and "array" in cached:
            return cached["array"]
        array = compute()
        self.save_arrays(name, config, {"array": array})
        return array

    # -- json: metrics --------------------------------------------------
    def load_json(self, name: str, config: Dict[str, Any]) -> Optional[Any]:
        if not self.enabled:
            return None
        path = self.path(name, config, "json")
        payload = store.try_load_json(path)
        if payload is None:
            return None
        try:
            value = codecs.from_jsonable(payload)
        except (KeyError, ValueError) as error:
            # Digest-valid JSON whose codec tag no longer decodes: a stale
            # layout, quarantined like any other defective artifact.
            store.quarantine(path, "stale",
                             f"{type(error).__name__}: {error}")
            return None
        self._touch(path)
        return value

    def save_json(self, name: str, config: Dict[str, Any], value: Any) -> None:
        if not self.enabled:
            return
        store.save_json(self.path(name, config, "json"),
                        codecs.to_jsonable(value))

    # -- GC: max-size LRU sweep -----------------------------------------
    def sweep(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries until the cache fits the budget.

        Budget: explicit ``max_bytes`` > ``REPRO_CACHE_MAX_MB`` env var >
        disabled.  Recency is ``max(atime, mtime)`` — loads touch their
        entry, so the ordering is LRU even on ``relatime``/``noatime``
        mounts.  Evictions are atomic per entry (``os.remove``); races with
        concurrent writers/readers degrade to cache misses, never to
        corruption.  Returns the number of evicted entries.
        """
        if max_bytes is None:
            max_bytes = cache_max_bytes()
        if max_bytes is None:
            return 0
        entries = []
        total = 0
        try:
            with os.scandir(self.root) as scan:
                for entry in scan:
                    if not entry.is_file() or ".tmp" in entry.name:
                        continue
                    stat = entry.stat()
                    recency = max(stat.st_atime, stat.st_mtime)
                    entries.append((recency, stat.st_size, entry.path))
                    total += stat.st_size
        except OSError:
            return 0
        if total <= max_bytes:
            return 0
        evicted = 0
        for recency, size, path in sorted(entries):
            if total <= max_bytes:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            logger.info("cache GC: evicted %d LRU entries (%.1f MB now "
                        "under the %.1f MB budget)", evicted,
                        total / 2 ** 20, max_bytes / 2 ** 20)
        return evicted

    # -- shared ---------------------------------------------------------
    @staticmethod
    def _touch(path: str) -> None:
        """Mark an entry as recently used (LRU recency for :meth:`sweep`)."""
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - racing eviction
            pass

def default_cache() -> ResultCache:
    """A fresh cache view honouring the current environment variables."""
    return ResultCache()

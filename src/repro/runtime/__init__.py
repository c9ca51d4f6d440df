"""``repro.runtime`` — parallel, cached, instrumented experiment execution.

The paper's tables are attack × defense × model grids whose cells are
independent; this package is the engine every experiment runs on:

* :func:`parallel_map` / :class:`GridRunner` — fork-based fan-out with a
  deterministic serial fallback (``REPRO_WORKERS=1``);
* :class:`ResultCache` — content-addressed cell results (``.npz`` image
  batches, tagged-JSON metrics) under ``$REPRO_CACHE_DIR/cells``;
* :mod:`~repro.runtime.instrument` — per-cell wall-clock and nn
  forward/backward counters, exported as ``BENCH_runtime.json``;
* :mod:`~repro.runtime.journal` — the append-only per-run event log.
  With the result cache it is the only resume state: a resumed run's
  finished cells are ordinary cache hits.

Every ``REPRO_*`` environment knob is declared in :mod:`repro.runtime.env`
(the central registry — name, type, default, docstring); reads anywhere
else are flagged by lint rule R003, and the README's env-var table is
generated from the registry.
"""

from . import env
from .cache import (ResultCache, array_fingerprint, cache_enabled,
                    cache_max_bytes, default_cache, fingerprint)
from .grid import GridRunner
from .instrument import (CellRecord, Instrumentation, export_bench,
                         get_instrumentation, scope)
from .parallel import (WorkerError, cell_timeout, fork_available, max_retries,
                       parallel_map, stable_seed, worker_count)

__all__ = [
    "env",
    "GridRunner", "ResultCache", "parallel_map", "worker_count",
    "fork_available", "stable_seed", "WorkerError", "cell_timeout",
    "max_retries",
    "array_fingerprint", "cache_enabled", "cache_max_bytes", "default_cache",
    "fingerprint",
    "CellRecord", "Instrumentation", "export_bench", "get_instrumentation",
    "scope",
]

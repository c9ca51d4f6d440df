"""``repro.experiments`` — one runner per table/figure of the paper.

Each module computes its experiment end to end (generating adversarial
examples, retraining defense models where needed — everything cached via the
model zoo) and returns structured results plus a formatted table matching
the paper's layout.  ``python -m repro <name>`` runs each one through the
CLI's experiment registry; ``python -m repro.cli analyze golden`` replays
the deterministic ones against ``tests/golden/paper_outputs.json``, from
which EXPERIMENTS.md's "Results" section is rendered.
"""

from . import (ablations, extensions, fault_matrix, fig2, overhead,
               serve_bench, table1, table2, table3, table4, table5)

__all__ = ["table1", "fig2", "table2", "table3", "table4", "table5",
           "overhead", "ablations", "extensions", "fault_matrix",
           "serve_bench"]

"""``repro.analysis`` — correctness tooling: static lint + runtime sanitizers.

The repo's core guarantees (bit-identical results across serial / forked /
cached execution; trustworthy gradients from the from-scratch ``repro.nn``
engine) were previously enforced only by example-based tests.  This package
makes them machine-checked:

* :mod:`~repro.analysis.lint` — an AST-based lint pass with repo-specific
  rules (unseeded RNG, wall-clock nondeterminism, unregistered env reads,
  closure-unsafe grid cells, float equality), run in CI via
  ``python -m repro.cli analyze lint src/repro``;
* :mod:`~repro.analysis.sanitize` — runtime sanitizers enabled through
  ``REPRO_SANITIZE=nan,alias``: a tape sanitizer that
  pinpoints the op/module where a NaN or Inf first appears, and an aliasing
  detector for optimizer scratch buffers;
* :mod:`~repro.analysis.gradcheck` — sampled central-difference gradient
  checks for every layer and loss (``analyze gradcheck``);
* :mod:`~repro.analysis.determinism` — content-addressed fingerprints, the
  first divergence between two results, and the in-process cells;
* :mod:`~repro.analysis.golden` — the one determinism oracle: every
  deterministic paper output, and each cell run twice, against
  ``tests/golden/paper_outputs.json`` (``analyze golden``).
"""

from .lint import (LintConfig, Rule, RULES, Violation, lint_paths,
                   lint_source)
from .sanitize import (SanitizeError, check_finite, enabled_modes,
                       sanitizers_active)

__all__ = [
    "LintConfig", "Rule", "RULES", "Violation", "lint_paths", "lint_source",
    "SanitizeError", "check_finite", "enabled_modes", "sanitizers_active",
]

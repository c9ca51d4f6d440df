#!/usr/bin/env bash
# Tiered CI entry point:
#
#   tools/ci.sh          # smoke tier, then the fault-robustness tier
#   tools/ci.sh full     # ... then the full test suite and the benchmark harness tests
#   tools/ci.sh analyze  # static lint + golden outputs + analysis tier +
#                        # sanitized smoke run
#   tools/ci.sh resume   # kill a journaled run mid-grid, resume, diff tables
#   tools/ci.sh serve    # chaos serve drill + serving lint + serving suite
#
# Tier 1 (smoke): fast confidence check — see tools/smoke.sh.
# Tier 2 (faults): the fault-injection robustness suite (pytest -m faults):
#   sensor-fault models, watchdog gating + reacquisition, closed-loop
#   graceful degradation, runtime crash/hang/retry recovery, and the
#   serial/parallel/cached determinism guarantees under active fault plans.
# Tier 3 (full, opt-in): everything, then the benchmark harness tests in
#   perfbench/ (wrapper restore, output bands, metric names); the tests that
#   need the benchmark's trained zoo skip when it is absent.
# Analyze tier (opt-in): the repro.analysis toolchain — AST lint over
#   src/repro, tests, tools and examples (intentionally-broken lint fixtures
#   excluded), the env-var table drift check, the in-process determinism
#   audit, the golden-output check (every deterministic paper output rerun
#   with the result cache off and compared with tests/golden/
#   paper_outputs.json, plus the paper-shape predicates), the analysis test
#   suite (lint rules, gradcheck, determinism audit, golden, sanitizers),
#   and the smoke tier re-run under live REPRO_SANITIZE=nan,alias hooks.
# Resume tier (opt-in): crash-consistency end to end — tools/resume_smoke.py
#   kills a journaled table3 run mid-grid under a fault plan, resumes it via
#   `repro.cli run --resume`, and asserts the resumed table is bit-identical
#   to an uninterrupted run.
# Serve tier (opt-in): the fault-tolerant serving layer — the serving lint
#   slice, tools/serve_smoke.py (a chaos drill that crash-loops/hangs
#   replicas and faults the scorer, asserting zero unserved ticks, journaled
#   breaker trips, and bit-identical serial/forked fingerprints), one short
#   `repro.cli serve` run on in-process replicas, and the serving test suite
#   (pytest -m serving).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}src"

if [[ "${1:-}" == "analyze" ]]; then
    echo "== CI analyze: static lint =="
    python -m repro.cli analyze lint --exclude tests/analysis/fixtures \
        src/repro tests tools examples

    echo "== CI analyze: env-var table drift =="
    python -m repro.cli analyze envdoc --check README.md

    echo "== CI analyze: determinism audit =="
    python -m repro.cli analyze audit

    echo "== CI analyze: golden outputs =="
    python -m repro.cli analyze golden

    echo "== CI analyze: analysis suite =="
    python -m pytest -m analysis -q

    echo "== CI analyze: smoke under sanitizers =="
    REPRO_SANITIZE=nan,alias python -m pytest -m smoke -q
    exit 0
fi

if [[ "${1:-}" == "resume" ]]; then
    echo "== CI resume: kill / resume / diff =="
    python tools/resume_smoke.py
    exit 0
fi

if [[ "${1:-}" == "serve" ]]; then
    echo "== CI serve: serving lint slice =="
    python -m repro.cli analyze lint src/repro/serving

    echo "== CI serve: chaos drill =="
    python tools/serve_smoke.py

    echo "== CI serve: serve verb =="
    python -m repro.cli serve --serial --ticks 40 --out "$(mktemp -d)"

    echo "== CI serve: serving suite =="
    python -m pytest -m serving -q
    exit 0
fi

echo "== CI tier 1: smoke =="
python -m pytest -m smoke -q

echo "== CI tier 2: faults =="
python -m pytest -m faults -q

if [[ "${1:-}" == "full" ]]; then
    echo "== CI tier 3: full suite =="
    python -m pytest -q

    echo "== CI tier 3: benchmark harness =="
    python -m pytest perfbench -q
fi

"""Command-line driver for the analysis tooling.

::

    python -m repro.analysis lint src/repro tests        # static rules
    python -m repro.analysis lint --select R003 src      # one rule
    python -m repro.analysis gradcheck                   # all layers/losses
    python -m repro.analysis gradcheck --case conv2d --k 8
    python -m repro.analysis golden [--write]            # golden outputs
    python -m repro.analysis envdoc --check README.md    # env table in sync?
    python -m repro.analysis envdoc --write README.md    # regenerate it

Also reachable as ``python -m repro.cli analyze <verb>`` (the CI entry
point).  Every verb but ``golden`` supports ``--json``; exit status is
non-zero when the verb found a problem (violations, a failed gradient
check, a moved golden entry, a cell whose two runs differ or a broken
shape predicate, or a stale env table).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import golden, gradcheck
from .lint import LintConfig, RULES, lint_paths
from ..runtime import env


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="static lint + runtime sanitizer harnesses")
    sub = parser.add_subparsers(dest="verb", required=True)

    lint = sub.add_parser("lint", help="run the AST lint rules over paths")
    lint.add_argument("paths", nargs="+", help="files or directory trees")
    lint.add_argument("--select", default=None,
                      help="comma-separated rule ids (default: all)")
    lint.add_argument("--exclude", action="append", default=None,
                      metavar="SUBSTRING",
                      help="skip files whose path contains SUBSTRING "
                           "(repeatable; e.g. tests/analysis/fixtures)")
    lint.add_argument("--show-suppressed", action="store_true",
                      help="also report justified noqa suppressions")
    lint.add_argument("--json", action="store_true", dest="as_json")

    grad = sub.add_parser("gradcheck",
                          help="numeric-vs-analytic gradient checks")
    grad.add_argument("--case", action="append", default=None,
                      help="run only this case (repeatable)")
    grad.add_argument("--k", type=int, default=5,
                      help="sampled coordinates per tensor")
    grad.add_argument("--eps", type=float, default=1e-6)
    grad.add_argument("--tol", type=float, default=1e-4)
    grad.add_argument("--seed", type=int, default=0)
    grad.add_argument("--json", action="store_true", dest="as_json")

    gold = sub.add_parser(
        "golden", help="rerun every deterministic paper output (result "
                       "cache off; in-process cells twice) and compare it "
                       "with the golden file")
    gold.add_argument("--write", action="store_true",
                      help="re-record the golden file and EXPERIMENTS.md "
                           "Results (refused if a shape predicate fails "
                           "or a cell's two runs differ)")

    envdoc = sub.add_parser(
        "envdoc", help="render / sync the REPRO_* env-var table")
    envdoc.add_argument("--check", metavar="FILE", default=None,
                        help="exit 1 when FILE's generated table is stale")
    envdoc.add_argument("--write", metavar="FILE", default=None,
                        help="regenerate the table inside FILE in place")
    envdoc.add_argument("--json", action="store_true", dest="as_json")

    return parser


def _cmd_lint(args: argparse.Namespace) -> int:
    select = None
    if args.select:
        select = {part.strip() for part in args.select.split(",")
                  if part.strip()}
        known = {rule.id for rule in RULES}
        unknown = select - known
        if unknown:
            print(f"unknown rule id(s): {sorted(unknown)}; "
                  f"known: {sorted(known)}", file=sys.stderr)
            return 2
    config = LintConfig(select=select,
                        report_suppressed=args.show_suppressed,
                        exclude=tuple(args.exclude or ()))
    findings, scanned = lint_paths(args.paths, config)
    errors = [f for f in findings if not f.suppressed]
    if args.as_json:
        print(json.dumps({"files_scanned": scanned,
                          "findings": [f.to_json() for f in findings],
                          "errors": len(errors)}, indent=2))
    else:
        for finding in findings:
            suffix = (f"  [suppressed: {finding.justification}]"
                      if finding.suppressed else "")
            print(finding.render() + suffix)
        print(f"{scanned} file(s) scanned, {len(errors)} violation(s)"
              + (f", {len(findings) - len(errors)} suppressed"
                 if len(findings) != len(errors) else ""))
    return 1 if errors else 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    results = gradcheck.run(names=args.case, k=args.k, eps=args.eps,
                            tol=args.tol, seed=args.seed)
    failed = [r for r in results if not r.passed]
    if args.as_json:
        print(json.dumps({"results": [r.to_json() for r in results],
                          "failed": len(failed)}, indent=2))
    else:
        for r in results:
            status = "ok " if r.passed else "FAIL"
            line = (f"{status} {r.name:24s} max_rel_error={r.max_rel_error:.3e} "
                    f"(checked {r.checked}, tol {r.tolerance:g})")
            if not r.passed:
                line += f"  worst: {r.worst}"
            print(line)
        print(f"{len(results) - len(failed)}/{len(results)} cases passed")
    return 1 if failed else 0


def _cmd_golden(args: argparse.Namespace) -> int:
    env.RESULT_CACHE.set(0)
    recorded, fresh, moved, diverged, broken = golden.load(), {}, 0, 0, []
    for name, entry, failed in golden.rerun():
        broken += failed
        if entry is None:
            print(f"{'shapes only':26s} {name} (wall clock, not recorded)")
            continue
        fresh[name] = entry
        state = golden.status(recorded.get(name), entry)
        moved += state != golden.OK
        diverged += state == golden.NONDETERMINISTIC
        paths = golden.moved(recorded.get(name), entry)
        print(f"{state:26s} {name}"
              + (": " + ", ".join(paths) if paths else ""), flush=True)
    for claim in broken:
        print(f"SHAPE FAIL {claim}")
    print(f"{len(fresh) - moved}/{len(fresh)} entries ok, "
          f"{len(broken)} shape predicate(s) broken")
    if not args.write:
        return 1 if moved or broken else 0
    if broken or diverged:
        print("refusing to record results that break the paper's shape "
              "or differ between two runs", file=sys.stderr)
        return 1
    with open(golden.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        handle.write(golden.dumps(fresh))
    with open(golden.EXPERIMENTS_MD, encoding="utf-8") as handle:
        text = golden.sync_experiments_md(handle.read(), fresh)
    with open(golden.EXPERIMENTS_MD, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"recorded {golden.GOLDEN_PATH}; re-rendered EXPERIMENTS.md")
    return 0


def _cmd_envdoc(args: argparse.Namespace) -> int:
    table = env.render_markdown_table()
    if args.write:
        with open(args.write, encoding="utf-8") as handle:
            text = handle.read()
        synced = env.sync_markdown_table(text)
        if synced != text:
            with open(args.write, "w", encoding="utf-8") as handle:
                handle.write(synced)
            print(f"updated env-var table in {args.write}")
        else:
            print(f"env-var table in {args.write} already up to date")
        return 0
    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            text = handle.read()
        stale = env.sync_markdown_table(text) != text
        if args.as_json:
            print(json.dumps({"file": args.check, "stale": stale}))
        elif stale:
            print(f"env-var table in {args.check} is stale; run "
                  f"`python -m repro.analysis envdoc --write {args.check}`")
        else:
            print(f"env-var table in {args.check} is in sync")
        return 1 if stale else 0
    if args.as_json:
        print(json.dumps({name: {"type": var.type,
                                 "default": var.default, "doc": var.doc}
                          for name, var in env.REGISTRY.items()}, indent=2))
    else:
        print(table)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "lint":
        return _cmd_lint(args)
    if args.verb == "gradcheck":
        return _cmd_gradcheck(args)
    if args.verb == "golden":
        return _cmd_golden(args)
    return _cmd_envdoc(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

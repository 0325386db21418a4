"""``repro lint``: the determinism & concurrency contract checker CLI.

Usage::

    repro lint                        # lint the installed repro package
    repro lint src tests/fixtures     # explicit paths (files or dirs)
    repro lint --rule SNAP001         # one rule (repeatable)
    repro lint --json                 # machine-readable findings
    repro lint --list-rules           # rule catalog with motivating incidents

Exit status: 0 on zero unsuppressed findings, 1 when findings remain,
2 on usage/configuration errors.  See ``docs/static-analysis.md`` for
the rule catalog and the suppression syntax
(``# repro-lint: ignore[RULE001] -- why it is safe``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.engine import LintError, run_lint
from repro.lint.rules import all_rules

__all__ = ["build_parser", "default_paths", "lint_main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST-based determinism & concurrency contract checker for this "
            "repository (rule catalog: docs/static-analysis.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to lint (default: the installed repro "
            "package -- src/repro in a checkout)"
        ),
    )
    parser.add_argument(
        "--rule",
        dest="rules",
        action="append",
        default=None,
        metavar="RULE_ID",
        help="run only this rule (repeatable); see --list-rules",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit findings as JSON instead of ruler lines",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (id, title, motivating incident) and exit",
    )
    return parser


def default_paths() -> List[str]:
    """The repro package directory -- ``src/repro`` when run in a checkout."""
    import repro

    return [str(Path(repro.__file__).parent)]


def _list_rules() -> int:
    for rule in all_rules().values():
        print(f"{rule.id}  {rule.title}")
        print(f"        incident: {rule.incident}")
    return 0


def lint_main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()
    paths = args.paths or default_paths()
    try:
        report = run_lint(paths, rules=args.rules)
    except LintError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.json:
        json.dump(report.as_dict(), sys.stdout, indent=2)
        print()
    else:
        for finding in report.findings:
            print(finding.format())
        bits = [
            f"{len(report.findings)} finding(s)",
            f"{report.files_checked} file(s)",
            f"{len(report.rules_run)} rule(s)",
        ]
        if report.suppressed:
            bits.append(f"{len(report.suppressed)} suppressed")
        print(f"[lint] {', '.join(bits)}")
    return 1 if report.findings else 0

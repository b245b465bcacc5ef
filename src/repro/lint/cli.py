"""``python -m repro.lint`` — the linter's command-line front end.

Exit-code contract (stable across every ``--format`` and flag
combination, including ``--statistics``):

* ``0`` — clean: no diagnostics survived inline-waiver filtering, or an
  informational mode ran (``--list-rules``);
* ``1`` — findings: at least one non-waived diagnostic;
* ``2`` — usage error: unknown rule code, no lintable paths.

The exit code is computed in exactly one place (:func:`main`, from the
final diagnostic list) so no output format can drift.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence

from repro.lint.engine import LintResult, lint_paths
from repro.lint.registry import RULES

#: Exit status when findings were reported.
EXIT_FINDINGS = 1
#: Exit status for usage errors (bad rule code, no files).
EXIT_USAGE = 2

_DEFAULT_PATHS = ("src", "tests", "benchmarks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Determinism & protocol-safety static analysis for the "
            "reproduction codebase (rules REP001-REP024). "
            "Exit codes: 0 clean, 1 findings, 2 usage error."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src tests benchmarks)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (github emits workflow-command annotations)",
    )
    parser.add_argument(
        "--select",
        type=str,
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        type=str,
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--no-unused",
        action="store_true",
        help="do not report unused suppression directives (REP000)",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append a per-code finding count summary (text format)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _parse_codes(text: str | None) -> list[str] | None:
    if text is None:
        return None
    return [code.strip().upper() for code in text.split(",") if code.strip()]


def _list_rules() -> str:
    lines = []
    for code, cls in sorted(RULES.items()):
        lines.append(f"{code}  {cls.name:<24s} {cls.summary}")
    return "\n".join(lines)


def render(result: LintResult, fmt: str, *, statistics: bool = False) -> str:
    """Render a result in one of the three output formats."""
    if fmt == "json":
        payload = {
            "files_checked": result.files_checked,
            "rules_run": list(result.rules_run),
            "findings": [d.to_dict() for d in result.diagnostics],
            "counts_by_code": result.counts_by_code(),
            "ok": result.ok,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt == "github":
        return "\n".join(d.github() for d in result.diagnostics)
    lines = [d.text() for d in result.diagnostics]
    if statistics and result.diagnostics:
        lines.append("")
        for code, count in result.counts_by_code().items():
            lines.append(f"{count:5d}  {code}")
    if result.diagnostics:
        lines.append(
            f"found {len(result.diagnostics)} issue(s) in "
            f"{result.files_checked} file(s)"
        )
    else:
        lines.append(f"clean: {result.files_checked} file(s), no findings")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    paths = args.paths or [p for p in _DEFAULT_PATHS if os.path.isdir(p)]
    if not paths:
        print("repro lint: no paths given and no default directories found",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        result = lint_paths(
            paths,
            select=_parse_codes(args.select),
            ignore=_parse_codes(args.ignore),
            report_unused=not args.no_unused,
        )
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return EXIT_USAGE

    output = render(result, args.format, statistics=args.statistics)
    if output:
        print(output)
    # The single exit-code decision point — see the module docstring.
    return EXIT_FINDINGS if result.diagnostics else 0


if __name__ == "__main__":  # pragma: no cover - exercised via -m
    raise SystemExit(main())

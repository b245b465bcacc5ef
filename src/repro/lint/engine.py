"""File discovery, rule execution, and suppression accounting.

Execution model — one pass, one path:

1. every file is read, tokenized for waivers, parsed and walked exactly
   once by :func:`repro.lint.extract.extract_file`, yielding its
   :class:`~repro.lint.facts.FileFacts` (a file that cannot be analyzed
   yields REP900 and the run continues);
2. the records are merged into :class:`~repro.lint.facts.ProjectSymbols`;
3. every selected rule runs as a predicate over the merged records;
4. findings on a line carrying a matching ``# repro: allow[CODE]`` are
   dropped, and directives that silenced nothing are reported as REP000.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import repro.lint.asyncrules  # noqa: F401  -- registers REP020-REP024 on import
import repro.lint.rules  # noqa: F401  -- registers REP001-REP010 on import
from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.diagnostics import PARSE_ERROR, UNUSED_SUPPRESSION, Diagnostic
from repro.lint.extract import extract_file
from repro.lint.facts import FileFacts, ProjectSymbols
from repro.lint.registry import RULES, Rule

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules", ".mypy_cache"})


@dataclass
class LintResult:
    """Outcome of one lint run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    rules_run: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def counts_by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for diagnostic in self.diagnostics:
            counts[diagnostic.code] = counts.get(diagnostic.code, 0) + 1
        return dict(sorted(counts.items()))


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated ``.py`` list."""
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS and not d.startswith(".")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        found.add(Path(dirpath) / filename)
        elif path.suffix == ".py":
            found.add(path)
    return sorted(found)


def _select_rules(
    config: LintConfig,
    select: Iterable[str] | None,
    ignore: Iterable[str] | None,
) -> list[Rule]:
    wanted = set(select) if select is not None else set(RULES)
    unwanted = set(ignore) if ignore is not None else set()
    unknown = (wanted | unwanted) - set(RULES)
    if unknown:
        raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    return [
        cls(config)
        for code, cls in RULES.items()
        if code in wanted and code not in unwanted
    ]


def lint_paths(
    paths: Sequence[str | Path],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    config: LintConfig = DEFAULT_CONFIG,
    root: str | Path | None = None,
    report_unused: bool = True,
) -> LintResult:
    """Lint files/directories and return sorted diagnostics.

    Args:
        paths: files or directories to analyze (directories recurse).
        select: run only these rule codes (default: all registered).
        ignore: rule codes to skip.
        config: project-layout configuration for the rules.
        root: base for display paths (default: current directory).
        report_unused: emit REP000 for suppressions that silenced nothing.
    """
    rules = _select_rules(config, select, ignore)
    active_codes = frozenset(rule.code for rule in rules)
    base = (Path(root) if root is not None else Path.cwd()).resolve()

    records: list[FileFacts] = []
    diagnostics: list[Diagnostic] = []
    for path in iter_python_files(paths):
        try:
            display = str(path.resolve().relative_to(base))
        except ValueError:
            display = str(path)
        try:
            records.append(extract_file(path, display, config))
        except (OSError, SyntaxError, ValueError, RecursionError) as exc:
            line = getattr(exc, "lineno", None) or 1
            diagnostics.append(
                Diagnostic(
                    path=display,
                    line=int(line),
                    col=0,
                    code=PARSE_ERROR,
                    message=f"could not analyze file: {exc}",
                )
            )

    project = ProjectSymbols(records, config)
    suppressions = {record.display_path: record.suppressions for record in records}
    for rule in rules:
        for diagnostic in rule.check(project):
            directives = suppressions.get(diagnostic.path)
            if directives is None or not directives.is_suppressed(
                diagnostic.line, diagnostic.code
            ):
                diagnostics.append(diagnostic)

    for record in records:
        diagnostics.extend(
            _suppression_findings(record, active_codes if report_unused else None)
        )
    return LintResult(
        diagnostics=sorted(set(diagnostics)),
        files_checked=len(records),
        rules_run=tuple(sorted(active_codes)),
    )


def _suppression_findings(
    record: FileFacts, active_codes: frozenset[str] | None
) -> Iterator[Diagnostic]:
    """REP000 for a file: malformed, unknown and (unless disabled) unused waivers."""
    directives = record.suppressions

    def finding(line: int, message: str) -> Diagnostic:
        return Diagnostic(
            path=record.display_path,
            line=line,
            col=0,
            code=UNUSED_SUPPRESSION,
            message=message,
        )

    for line, code in directives.malformed:
        yield finding(line, f"suppression names unknown rule code {code!r}")
    for suppression in directives.suppressions:
        if suppression.code not in RULES:
            yield finding(
                suppression.line,
                f"suppression allow[{suppression.code}] names a "
                "rule that does not exist",
            )
    if active_codes is None:
        return
    for suppression in directives.unused(active_codes):
        yield finding(
            suppression.line,
            f"unused suppression: allow[{suppression.code}] "
            "silences nothing on this line; delete the waiver",
        )

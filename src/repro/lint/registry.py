"""Rule base class and registry."""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING, ClassVar

from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - typing-only
    from repro.lint.facts import ProjectSymbols


class Rule:
    """One named invariant: a predicate over the project's fact records.

    Subclasses set :attr:`code` / :attr:`name` / :attr:`summary` and
    override :meth:`check`.  A rule never sees source text or a syntax
    tree — only :class:`~repro.lint.facts.ProjectSymbols` and its config.
    """

    code: ClassVar[str] = ""
    name: ClassVar[str] = ""
    summary: ClassVar[str] = ""

    def __init__(self, config: LintConfig = DEFAULT_CONFIG) -> None:
        self.config = config

    def check(self, project: "ProjectSymbols") -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diagnostic(self, path: str, line: int, col: int, message: str) -> Diagnostic:
        return Diagnostic(path=path, line=line, col=col, code=self.code, message=message)


#: code → rule class, in registration order.
RULES: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls
    return cls

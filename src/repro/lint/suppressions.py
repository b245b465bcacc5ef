"""Inline suppression comments: ``# repro: allow[CODE]``.

A finding is waived by putting the comment on the *same physical line* the
diagnostic anchors to::

    started = time.perf_counter()  # repro: allow[REP001]

Several codes may share one comment (``allow[REP001,REP006]``).  Every
suppression is tracked: one that silences no finding is reported as
REP000, so waivers cannot outlive the hazard they were written for.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

#: Matches the whole directive inside a comment.
_DIRECTIVE_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")

#: A single well-formed rule code.
_CODE_RE = re.compile(r"^REP\d{3}$")


@dataclass
class Suppression:
    """One ``allow[...]`` entry for one code on one line."""

    line: int
    code: str
    used: bool = False


@dataclass
class SuppressionSet:
    """All suppression directives of one file, with usage tracking."""

    suppressions: list[Suppression] = field(default_factory=list)
    #: Codes that appeared inside ``allow[...]`` but are not well-formed
    #: rule codes, as (line, raw_text) pairs.
    malformed: list[tuple[int, str]] = field(default_factory=list)

    def add(self, line: int, code: str) -> None:
        self.suppressions.append(Suppression(line=line, code=code))

    def is_suppressed(self, line: int, code: str) -> bool:
        """True (and marks the directive used) if ``code`` is waived on ``line``."""
        hit = False
        for suppression in self.suppressions:
            if suppression.line == line and suppression.code == code:
                suppression.used = True
                hit = True
        return hit

    def unused(self, active_codes: frozenset[str]) -> list[Suppression]:
        """Directives that silenced nothing.

        A directive for a rule that was not selected this run is *not*
        unused — it may be load-bearing under the full rule set.  A
        directive naming a code no rule owns is always reported (via
        :attr:`malformed` handling in the engine).
        """
        return [
            s
            for s in self.suppressions
            if not s.used and s.code in active_codes
        ]


def collect_suppressions(source: str) -> SuppressionSet:
    """Extract every ``# repro: allow[...]`` directive from ``source``.

    Uses :mod:`tokenize` so directives inside string literals are ignored.
    Files that fail to tokenize return an empty set (the parse error is
    reported separately as REP900).
    """
    found = SuppressionSet()
    if "repro:" not in source:
        return found  # no directive text anywhere: nothing to tokenize for
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return found
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _DIRECTIVE_RE.search(token.string)
        if match is None:
            continue
        line = token.start[0]
        for raw in match.group(1).split(","):
            code = raw.strip()
            if not code:
                continue
            if _CODE_RE.match(code):
                found.add(line, code)
            else:
                found.malformed.append((line, code))
    return found

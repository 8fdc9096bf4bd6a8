"""Inline suppressions: ``# repro: allow[rule-id] -- reason``.

The analyzer's only suppression mechanism, for code where the finding is
correct-by-design — a sanctioned allocation on a setup path, a fixture
deliberately seeded with a bug.  The comment lives next to the code it
excuses, where the next reader sees it::

    blocks = np.stack(parts)  # repro: allow[hotpath] -- prefill runs once per request

or, when the line is long, on its own line directly above the offending
one::

    # repro: allow[views] -- snapshot is copied by the caller
    rows = table.gather_rows(idx)

Both forms require a justification after ``--``; an allow without one is
**ignored** and reported as an ``inline-allow`` error, so nothing is ever
suppressed silently.  Several rules can share one comment:
``allow[rule-a, rule-b]``.  An id that names no registered rule (a typo,
or a rule id retired since) is an ``inline-allow`` error too; allows that
match no finding are surfaced as stale.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Collection, Dict, List, Tuple

from .findings import SEVERITY_ERROR, Finding
from .project import Project

__all__ = ["InlineAllow", "InlineSuppressions", "collect_suppressions",
           "INLINE_ALLOW_RULE_ID"]

#: Rule id under which malformed allow comments are reported.
INLINE_ALLOW_RULE_ID = "inline-allow"

_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[^\]]*)\]\s*(?:--\s*(?P<reason>.*))?$"
)


@dataclass
class InlineAllow:
    """One parsed allow comment and the source line(s) it covers."""

    file: str
    line: int                 #: line the comment is on
    target_line: int          #: line the allow applies to
    rules: Tuple[str, ...]
    reason: str
    used: bool = False

    @property
    def justified(self) -> bool:
        """True when a non-empty reason follows the ``--`` separator."""
        return bool(self.reason.strip())


class InlineSuppressions:
    """All allow comments of a project, indexed by (file, line)."""

    def __init__(self, allows: List[InlineAllow]) -> None:
        self.allows = allows
        self._by_site: Dict[Tuple[str, int], List[InlineAllow]] = {}
        for allow in allows:
            self._by_site.setdefault((allow.file, allow.target_line), []).append(allow)

    def suppresses(self, finding: Finding) -> bool:
        """True when a justified allow covers the finding's rule and line."""
        hit = False
        for allow in self._by_site.get((finding.file, finding.line), ()):
            if allow.justified and finding.rule_id in allow.rules:
                allow.used = True
                hit = True
        return hit

    def problems(self, known_rules: Collection[str]) -> List[Finding]:
        """Error findings for unjustified allows and unknown rule ids."""
        out = []
        for allow in self.allows:
            if not allow.justified:
                out.append(self._problem(
                    allow,
                    f"inline allow for {', '.join(allow.rules)} has no "
                    f"justification and was ignored; write "
                    f"`# repro: allow[{','.join(allow.rules)}] -- <reason>`",
                    "a suppression without a written reason is a silent "
                    "escape hatch; say why the finding is acceptable here",
                ))
            unknown = [r for r in allow.rules if r not in known_rules]
            if unknown:
                out.append(self._problem(
                    allow,
                    f"inline allow names unknown rule id(s) "
                    f"{', '.join(unknown)}; it can suppress nothing",
                    f"use a registered rule id ({', '.join(sorted(known_rules))})",
                ))
        return out

    @staticmethod
    def _problem(allow: InlineAllow, message: str, fix_hint: str) -> Finding:
        return Finding(file=allow.file, line=allow.line,
                       rule_id=INLINE_ALLOW_RULE_ID, message=message,
                       fix_hint=fix_hint, severity=SEVERITY_ERROR)

    def unused(self) -> List[InlineAllow]:
        """Justified allows that matched no finding — stale, delete them."""
        return [a for a in self.allows if a.justified and not a.used]


def _comments(module) -> List[Tuple[int, str, bool]]:
    """(line, text, standalone) for every real comment token in a module.

    Tokenizing (rather than regex over raw lines) keeps allow-shaped text
    inside docstrings and f-strings from being parsed as a suppression.
    """
    source = "\n".join(module.lines) + "\n"
    out: List[Tuple[int, str, bool]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                standalone = tok.line.strip().startswith("#")
                out.append((tok.start[0], tok.string, standalone))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # unparseable tail; the parse-error rule reports the file
    return out


def collect_suppressions(project: Project) -> InlineSuppressions:
    """Parse every allow comment in the project's source lines."""
    allows: List[InlineAllow] = []
    for module in project.modules.values():
        for line, text, standalone in _comments(module):
            m = _ALLOW_RE.search(text)
            if m is None:
                continue
            rules = tuple(r.strip() for r in m.group("rules").split(",")
                          if r.strip())
            if not rules:
                continue
            allows.append(InlineAllow(
                file=module.file,
                line=line,
                target_line=line + 1 if standalone else line,
                rules=rules,
                reason=(m.group("reason") or "").strip(),
            ))
    return InlineSuppressions(allows)

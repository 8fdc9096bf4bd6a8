"""The :class:`Finding` model every analysis rule reports through.

A finding pins one defect to one source location and carries everything a
reporter needs: the rule that fired, a human-readable message, an
actionable fix hint, and the stripped source line (``snippet``) the
finding anchors to.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = ["Finding", "SEVERITY_ERROR", "SEVERITY_WARNING"]

#: Findings at this severity fail the run (exit code 1) unless allowed inline.
SEVERITY_ERROR = "error"
#: Advisory findings: reported, never fatal.
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    file: str           #: path as reported (relative to the invocation cwd)
    line: int           #: 1-based line the finding anchors to
    rule_id: str        #: id of the rule that produced it
    message: str        #: what is wrong, in one sentence
    fix_hint: str = ""  #: how to fix it (shown indented under the message)
    severity: str = SEVERITY_ERROR
    snippet: str = ""   #: stripped source line at ``line``

    @property
    def location(self) -> str:
        """``file:line`` anchor, the conventional clickable form."""
        return f"{self.file}:{self.line}"

    def sort_key(self):
        """Stable ordering: by file, then line, then rule."""
        return (self.file, self.line, self.rule_id)

    def to_dict(self) -> dict:
        """Plain-dict form for the JSON reporter."""
        return asdict(self)

"""Findings and reports produced by the analyzers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Ordered so reports can be filtered with comparisons."""

    INFO = 1
    WARNING = 2
    ERROR = 3

    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One diagnosed issue at a source location."""

    rule: str
    severity: Severity
    message: str
    line: int
    function: str = ""
    tool: str = "placement-analyzer"

    def render(self) -> str:
        """gcc-style one-liner."""
        where = f" in {self.function}()" if self.function else ""
        return f"{self.line}: {self.severity.label()}: [{self.rule}] {self.message}{where}"


@dataclass
class AnalysisReport:
    """All findings for one program."""

    tool: str
    findings: list = field(default_factory=list)

    def __post_init__(self) -> None:
        # Dedup index maintained alongside the list: rebuilding the key
        # set on every add is quadratic over a report's lifetime.  Not a
        # dataclass field, so eq/repr still compare tool + findings only.
        self._seen = {(f.rule, f.line, f.function) for f in self.findings}

    def add(self, finding: Finding) -> None:
        """Append, deduplicating identical (rule, line, function) triples."""
        key = (finding.rule, finding.line, finding.function)
        if key not in self._seen:
            self._seen.add(key)
            self.findings.append(finding)

    def rules_fired(self) -> frozenset:
        """The distinct rule identifiers present."""
        return frozenset(finding.rule for finding in self.findings)

    def at_least(self, severity: Severity) -> list:
        """Findings at or above a severity."""
        return [f for f in self.findings if f.severity >= severity]

    @property
    def flagged(self) -> bool:
        """True when anything warning-or-worse was found."""
        return bool(self.at_least(Severity.WARNING))

    @staticmethod
    def _order(finding: Finding) -> tuple:
        """Total order over findings so every rendering is deterministic."""
        return (finding.line, finding.rule, finding.function, finding.message)

    def render(self) -> str:
        """Multi-line report, sorted by location."""
        if not self.findings:
            return f"{self.tool}: no findings"
        lines = [f"{self.tool}: {len(self.findings)} finding(s)"]
        for finding in sorted(self.findings, key=self._order):
            lines.append("  " + finding.render())
        return "\n".join(lines)

    def to_json(self) -> str:
        """Machine-readable output for CI/SARIF-style integration: keys
        sorted, findings in a stable total order."""
        import json

        return json.dumps(
            {
                "tool": self.tool,
                "findings": [
                    {
                        "rule": finding.rule,
                        "severity": finding.severity.label(),
                        "message": finding.message,
                        "line": finding.line,
                        "function": finding.function,
                    }
                    for finding in sorted(self.findings, key=self._order)
                ],
            },
            indent=2,
            sort_keys=True,
        )

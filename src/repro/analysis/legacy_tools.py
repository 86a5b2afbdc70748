"""Classic rule-based scanners — what 2011's tools actually checked.

The paper's Section 1 claim: *"None of the existing tools can detect
buffer overflow vulnerabilities due to placement new"* (Coverity,
Fortify, ITS4, Flawfinder, ...).  Those tools keyed on *unsafe API
usage* — ``strcpy``, ``gets``, ``sprintf``, format strings — and had no
placement-new rule.  :class:`LegacyRuleScanner` reimplements that rule
style over the MiniC++ AST; running it against the placement corpus
reproduces the 0-detections result (experiment E13) while the classic
corpus shows the scanner itself is not a straw man.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Callable

from .._record import record, replace
from . import ast_nodes as ast
from .cache import cached_report
from .reports import AnalysisReport, Finding, Severity

#: Revision of the classic rule set and matching semantics.  Bump on any
#: change that can alter findings — the analysis report cache keys on it
#: (same scheme as :data:`~.detector.DETECTOR_VERSION`).
LEGACY_RULE_VERSION = "1"


@record(frozen=True)
class LegacyRule:
    """One pattern rule in the ITS4/Flawfinder tradition."""

    rule_id: str
    severity: Severity
    message: str
    matcher: Callable[[ast.Expr], bool]


def _rule_fingerprint(rule: LegacyRule) -> str:
    """Everything about a rule that can change its findings.

    Two rules sharing a ``rule_id`` must not share cache entries when
    their matcher, severity or message differ, so the matcher's identity
    (qualified name plus any closure contents, e.g. the function-name
    tuple inside a :func:`_call_named` matcher) is part of the print.
    """
    matcher = rule.matcher
    ident = "{}.{}".format(
        getattr(matcher, "__module__", "?"),
        getattr(matcher, "__qualname__", None) or repr(matcher),
    )
    closure = getattr(matcher, "__closure__", None)
    if closure:
        try:
            ident += repr(tuple(cell.cell_contents for cell in closure))
        except ValueError:  # an unfilled cell: fall back to the name alone
            pass
    return f"{rule.rule_id}|{rule.severity.value}|{rule.message}|{ident}"


def _call_named(*names: str) -> Callable[[ast.Expr], bool]:
    def match(expr: ast.Expr) -> bool:
        return isinstance(expr, ast.Call) and expr.func in names

    return match


def _strncpy_nonconstant_length(expr: ast.Expr) -> bool:
    """ITS4 flagged strncpy/memcpy whose length is not a literal."""
    if not isinstance(expr, ast.Call) or expr.func not in ("strncpy", "memcpy"):
        return False
    if len(expr.args) < 3:
        return True
    return not isinstance(expr.args[2], ast.IntLit)


def _format_string_from_variable(expr: ast.Expr) -> bool:
    if not isinstance(expr, ast.Call) or expr.func not in ("printf", "syslog"):
        return False
    return bool(expr.args) and not isinstance(expr.args[0], ast.StrLit)


#: The canonical 2011-era rule set.  Note what is absent: nothing about
#: ``new`` of any kind.
CLASSIC_RULES: tuple[LegacyRule, ...] = (
    LegacyRule(
        rule_id="CLASSIC-UNSAFE-API",
        severity=Severity.ERROR,
        message="use of an unbounded copy function (strcpy/strcat/gets/sprintf)",
        matcher=_call_named("strcpy", "strcat", "gets", "sprintf", "vsprintf", "scanf"),
    ),
    LegacyRule(
        rule_id="CLASSIC-BOUNDED-COPY-REVIEW",
        severity=Severity.WARNING,
        message="bounded copy with non-constant length; verify the bound",
        matcher=_strncpy_nonconstant_length,
    ),
    LegacyRule(
        rule_id="CLASSIC-FORMAT-STRING",
        severity=Severity.ERROR,
        message="format string taken from a variable",
        matcher=_format_string_from_variable,
    ),
    LegacyRule(
        rule_id="CLASSIC-ALLOCA",
        severity=Severity.WARNING,
        message="alloca with attacker-influenceable size",
        matcher=_call_named("alloca"),
    ),
)


@lru_cache(maxsize=64)
def _rules_signature(rules: tuple[LegacyRule, ...]) -> str:
    """Digest of a rule tuple's fingerprints, computed once per tuple."""
    return hashlib.sha256(
        "\n".join(_rule_fingerprint(rule) for rule in rules).encode("utf-8")
    ).hexdigest()[:16]


class LegacyRuleScanner:
    """A pattern scanner in the style of ITS4/RATS/Flawfinder."""

    def __init__(
        self,
        name: str = "legacy-scanner",
        rules: tuple[LegacyRule, ...] = CLASSIC_RULES,
    ) -> None:
        self.name = name
        self.rules = rules

    def scan_source(self, source: str) -> AnalysisReport:
        """Parse and scan source text.

        Memoized on source content via :mod:`.cache`, keyed by the
        scanner's name and a digest of the full rule contents
        (ids, severities, messages, matcher identity) so
        differently-tuned profiles — even ones reusing a rule_id with a
        different matcher — never share entries.
        """
        return cached_report(
            f"legacy:{self.name}:{_rules_signature(self.rules)}",
            LEGACY_RULE_VERSION,
            source,
            self.scan,
        )

    def scan(self, program: ast.Program) -> AnalysisReport:
        """Pattern-match every expression in every function and method."""
        report = AnalysisReport(tool=self.name)
        for function in program.functions:
            self._scan_block(function.body, function.name, report)
        for cls in program.classes:
            for method in cls.methods:
                if method.body is not None:
                    self._scan_block(
                        method.body, f"{cls.name}::{method.name}", report
                    )
        return report

    def _scan_block(
        self, block: ast.Block, function: str, report: AnalysisReport
    ) -> None:
        # iter_expressions visits each expression exactly once; the old
        # walk_statements × walk_expressions pairing re-walked every
        # nested statement's expressions at each enclosing level.
        for expr in ast.iter_expressions(block):
            for rule in self.rules:
                if rule.matcher(expr):
                    report.add(
                        Finding(
                            rule=rule.rule_id,
                            severity=rule.severity,
                            message=rule.message,
                            line=expr.line,
                            function=function,
                            tool=self.name,
                        )
                    )


def simulated_tool_suite() -> tuple[LegacyRuleScanner, ...]:
    """Three scanners with the same blind spot, differently tuned —
    stand-ins for the commercial tools the paper lists.

    The *strict* profile only reports errors (low-noise commercial
    default); the *audit* profile includes review-level warnings.
    """
    strict = LegacyRuleScanner(
        name="legacy-strict",
        rules=tuple(r for r in CLASSIC_RULES if r.severity is Severity.ERROR),
    )
    audit = LegacyRuleScanner(name="legacy-audit", rules=CLASSIC_RULES)
    unsafe_api_only = LegacyRuleScanner(
        name="legacy-grep", rules=(CLASSIC_RULES[0],)
    )
    return (strict, audit, unsafe_api_only)


def run_tool_suite(source: str) -> tuple[tuple[str, AnalysisReport], ...]:
    """Run the whole simulated suite with one parse and one AST walk.

    Every suite profile's rules are drawn from the same pool, so instead
    of scanning once per scanner, scan once with the union rule set and
    *project* each profile's report by filtering the union findings on
    that profile's rule ids (retagged with the profile's tool name).
    Results are identical to calling ``scan_source`` per scanner.

    Returns ``(scanner_name, report)`` pairs in suite order.
    """
    suite = simulated_tool_suite()
    union_rules: list[LegacyRule] = []
    seen_ids = set()
    for scanner in suite:
        for rule in scanner.rules:
            if rule.rule_id not in seen_ids:
                seen_ids.add(rule.rule_id)
                union_rules.append(rule)
    union = LegacyRuleScanner(name="legacy-union", rules=tuple(union_rules))
    full = union.scan_source(source)
    projected = []
    for scanner in suite:
        wanted = {rule.rule_id for rule in scanner.rules}
        report = AnalysisReport(tool=scanner.name)
        for finding in full.findings:
            if finding.rule in wanted:
                report.add(replace(finding, tool=scanner.name))
        projected.append((scanner.name, report))
    return tuple(projected)

"""The declarative threat registry: findings → CWE/CAPEC risk entries.

Every signal the repository can emit about a program — a detector rule
id, a legacy-scanner rule id, a fuzz auto-triage class, an attack name
from the E14 matrix — maps onto exactly one :class:`Threat` entry
carrying its CWE ids, CAPEC reference, base :class:`Likelihood` and
:class:`Impact`, and mitigations.  Threats follow the declarative
``Threat.apply(target) -> Optional[Risk]`` idiom of threat-modeling
libraries: a threat inspects one :class:`ScoreTarget` (the evidence
unit) and either claims it as a :class:`Risk` or declines.

The registry is *total* by construction and enforced by test: any new
detector rule, legacy rule, or triage class without a mapping makes
:func:`coverage_gaps` non-empty, so unscored rules cannot silently
ship (see ``tests/test_score_threats.py``).
"""

from __future__ import annotations

import enum
import hashlib
import inspect
import re
from dataclasses import dataclass
from typing import Iterable, Optional


class Likelihood(enum.IntEnum):
    """How likely exploitation is, given the evidence grade."""

    UNLIKELY = 1
    LIKELY = 2
    VERY_LIKELY = 3

    def label(self) -> str:
        return self.name.lower().replace("_", "-")


class Impact(enum.IntEnum):
    """Damage when the threat lands."""

    LOW = 1
    MEDIUM = 2
    HIGH = 3
    VERY_HIGH = 4

    def label(self) -> str:
        return self.name.lower().replace("_", "-")


#: The evidence kinds a target may carry.
TARGET_KINDS = ("finding", "triage", "matrix-cell")


@dataclass(frozen=True)
class ScoreTarget:
    """One unit of evidence a threat may claim.

    ``trigger`` is the registry key: a detector/legacy rule id for
    ``finding`` targets, an auto-triage class for ``triage`` targets,
    or an attack name for ``matrix-cell`` targets.
    """

    kind: str  # one of TARGET_KINDS
    trigger: str
    package: str = ""  # module/package/report label the evidence is about
    detail: str = ""
    line: int = 0
    severity: str = ""  # finding severity label ("error"/"warning"/"info")
    outcome: str = ""  # matrix-cell summary ("ATTACK-WINS", ...)


@dataclass(frozen=True)
class Risk:
    """A threat applied to a concrete target, with the effective grade."""

    target: ScoreTarget
    threat: "Threat"
    likelihood: Likelihood
    impact: Impact

    @property
    def score(self) -> int:
        """Likelihood × impact on the 1–12 scale."""
        return int(self.likelihood) * int(self.impact)

    def to_dict(self) -> dict:
        """Deterministic JSON-able form used by reports and workers."""
        return {
            "capec": self.threat.capec,
            "cwe": list(self.threat.cwe_ids),
            "detail": self.target.detail,
            "impact": self.impact.label(),
            "kind": self.target.kind,
            "likelihood": self.likelihood.label(),
            "line": self.target.line,
            "score": self.score,
            "threat": self.threat.threat_id,
            "threat_name": self.threat.name,
            "trigger": self.target.trigger,
        }


class Threat:
    """One CWE/CAPEC entry claiming a set of trigger ids.

    The base likelihood/impact describe an error-grade finding; warning
    and info findings are attenuated deterministically in :meth:`apply`
    so a review-grade signal never outscores a proved overflow.
    """

    def __init__(
        self,
        threat_id: str,
        name: str,
        *,
        capec: str,
        cwe_ids: tuple,
        likelihood: Likelihood,
        impact: Impact,
        applies_to: Iterable[str],
        description: str = "",
        mitigations: tuple = (),
    ) -> None:
        self.threat_id = threat_id
        self.name = name
        self.capec = capec
        self.cwe_ids = tuple(sorted(cwe_ids))
        self.likelihood = likelihood
        self.impact = impact
        self.applies_to = frozenset(applies_to)
        self.description = description
        self.mitigations = tuple(mitigations)

    def apply(self, target: ScoreTarget) -> Optional[Risk]:
        """Claim ``target`` as a risk, or decline.

        Matrix cells yield a risk only when the attack actually won
        (``ATTACK-WINS``); a prevented/detected cell is the defense
        working, not a risk.
        """
        if target.kind not in TARGET_KINDS:
            return None
        if target.trigger not in self.applies_to:
            return None
        if target.kind == "matrix-cell" and target.outcome != "ATTACK-WINS":
            return None
        likelihood, impact = self.likelihood, self.impact
        if target.severity == "warning":
            likelihood = Likelihood(max(1, int(likelihood) - 1))
        elif target.severity == "info":
            likelihood, impact = Likelihood.UNLIKELY, Impact.LOW
        return Risk(
            target=target, threat=self, likelihood=likelihood, impact=impact
        )


class Threatlib:
    """An ordered threat registry with trigger-indexed lookup."""

    def __init__(self) -> None:
        self._threats: list = []
        self._by_trigger: dict = {}

    def register(self, threat: Threat) -> Threat:
        for trigger in threat.applies_to:
            existing = self._by_trigger.get(trigger)
            if existing is not None:
                raise ValueError(
                    f"trigger '{trigger}' already claimed by {existing.threat_id}"
                )
            self._by_trigger[trigger] = threat
        self._threats.append(threat)
        return threat

    def threats(self) -> tuple:
        return tuple(self._threats)

    def threat_for(self, trigger: str) -> Optional[Threat]:
        return self._by_trigger.get(trigger)

    def triggers(self) -> frozenset:
        return frozenset(self._by_trigger)

    def apply(self, target: ScoreTarget) -> Optional[Risk]:
        """First (only, by construction) matching threat's risk."""
        threat = self._by_trigger.get(target.trigger)
        return threat.apply(target) if threat is not None else None

    def __len__(self) -> int:
        return len(self._threats)


DEFAULT_THREATLIB = Threatlib()


class CAPEC_100(Threat):
    """Overflow Buffers — the paper's headline class."""

    def __init__(self) -> None:
        super().__init__(
            "CAPEC-100",
            "Overflow Buffers",
            capec="https://capec.mitre.org/data/definitions/100.html",
            cwe_ids=(119, 120, 131, 787),
            likelihood=Likelihood.VERY_LIKELY,
            impact=Impact.VERY_HIGH,
            description=(
                "A write past an allocation's extent corrupts adjacent "
                "state — the placement-new data/bss/heap/stack overflows "
                "of §3, including attacker-sized placement arrays and "
                "tainted copy loops."
            ),
            mitigations=(
                "Bounds-check every placement site (sizeof guard, §5.1).",
                "Use bounded copy APIs with provably correct lengths.",
                "Deploy shadow-memory red zones around reusable arenas.",
            ),
            applies_to=(
                # detector rules
                "PN-OVERSIZE",
                "PN-TAINTED-COUNT",
                "PN-TAINTED-FIELD",
                "PN-TAINTED-COPY-LOOP",
                # legacy rules
                "CLASSIC-UNSAFE-API",
                "CLASSIC-BOUNDED-COPY-REVIEW",
                # fuzz triage classes
                "taint-quantifier",
                # matrix attacks
                "overflow-via-construction",
                "overflow-via-remote-object",
                "overflow-via-copy-constructor",
                "overflow-via-indirect-construction",
                "internal-overflow",
                "data-bss-overflow",
                "heap-overflow",
                "two-step-stack-array",
                "two-step-bss-array",
                "data-variable-overwrite",
                "stack-local-overwrite",
                "member-variable-overwrite",
                "stack-return-address",
                "arc-injection",
            ),
        )


class CAPEC_129(Threat):
    """Pointer Manipulation — vptr/function-pointer subterfuge."""

    def __init__(self) -> None:
        super().__init__(
            "CAPEC-129",
            "Pointer Manipulation",
            capec="https://capec.mitre.org/data/definitions/129.html",
            cwe_ids=(822, 824, 843),
            likelihood=Likelihood.LIKELY,
            impact=Impact.VERY_HIGH,
            description=(
                "A corrupted or mis-typed pointer redirects reads, "
                "writes, or virtual dispatch: vtable subterfuge "
                "(§3.8.2), function/variable pointer overwrites, and "
                "type-confused placement bindings."
            ),
            mitigations=(
                "Validate vptrs against emitted vtables (forward-edge CFI).",
                "Never bind an allocation to a pointer of a larger type.",
                "Poison freed/unused pointers so wild dereferences fault.",
            ),
            applies_to=(
                "PN-TYPE-CONFUSION",
                "PN-VPTR-RISK",
                "unexercised-confusion",
                "wild-pointer",
                "vtable-subterfuge-bss",
                "vtable-subterfuge-stack",
                "function-pointer-subterfuge",
                "variable-pointer-subterfuge",
            ),
        )


class CAPEC_242(Threat):
    """Code Injection — shellcode through the overflowed arena."""

    def __init__(self) -> None:
        super().__init__(
            "CAPEC-242",
            "Code Injection",
            capec="https://capec.mitre.org/data/definitions/242.html",
            cwe_ids=(94, 95),
            likelihood=Likelihood.LIKELY,
            impact=Impact.VERY_HIGH,
            description=(
                "Attacker-supplied bytes land in an executable region "
                "and control flow is steered into them (§3.6 code "
                "injection through the placement overflow)."
            ),
            mitigations=(
                "Non-executable data/stack segments (NX).",
                "Randomize the address space so injected targets move.",
            ),
            applies_to=("code-injection",),
        )


class CAPEC_116(Threat):
    """Excavation — information leaks from re-used arenas."""

    def __init__(self) -> None:
        super().__init__(
            "CAPEC-116",
            "Excavation",
            capec="https://capec.mitre.org/data/definitions/116.html",
            cwe_ids=(200, 226, 244),
            likelihood=Likelihood.LIKELY,
            impact=Impact.HIGH,
            description=(
                "Sensitive residue in a re-used, never-sanitized arena "
                "flows to an output sink (§4.3, Listings 21–22)."
            ),
            mitigations=(
                "memset the full arena before every reuse (§5.1).",
                "Clear sensitive heap objects before shrinking placements.",
            ),
            applies_to=(
                "PN-NO-SANITIZE",
                "latent-exposure",
                "info-leak-array",
                "info-leak-object",
            ),
        )


class CAPEC_130(Threat):
    """Excessive Allocation — leaks and attacker-sized allocations."""

    def __init__(self) -> None:
        super().__init__(
            "CAPEC-130",
            "Excessive Allocation",
            capec="https://capec.mitre.org/data/definitions/130.html",
            cwe_ids=(400, 401, 770, 789),
            likelihood=Likelihood.LIKELY,
            impact=Impact.MEDIUM,
            description=(
                "Resources leak or balloon until the process starves: "
                "the §4.5 shrinking-placement memory leak, unbounded "
                "alloca, and allocation-exhaustion faults."
            ),
            mitigations=(
                "delete the original arena before re-placing a smaller object.",
                "Cap attacker-influenceable allocation sizes.",
            ),
            applies_to=(
                "PN-LEAK",
                "CLASSIC-ALLOCA",
                "resource-exhaustion",
                "memory-leak",
                "memory-leak-tracked",
                "dos-resource-exhaustion",
            ),
        )


class CAPEC_227(Threat):
    """Sustained Client Engagement — loop-bound denial of service."""

    def __init__(self) -> None:
        super().__init__(
            "CAPEC-227",
            "Sustained Client Engagement",
            capec="https://capec.mitre.org/data/definitions/227.html",
            cwe_ids=(400, 835),
            likelihood=Likelihood.LIKELY,
            impact=Impact.MEDIUM,
            description=(
                "An attacker-written loop bound spins the process past "
                "any useful budget (§4.4 DoS through the overflowed "
                "field)."
            ),
            mitigations=(
                "Bound every loop whose limit can be attacker-reached.",
                "Run request handling under a step/time budget.",
            ),
            applies_to=(
                "unbounded-loop",
                "dos-loop-inflation",
                "dos-auth-bypass",
            ),
        )


class CAPEC_67(Threat):
    """String Format Overflow — the classic format-string class."""

    def __init__(self) -> None:
        super().__init__(
            "CAPEC-67",
            "String Format Overflow in syslog()",
            capec="https://capec.mitre.org/data/definitions/67.html",
            cwe_ids=(134,),
            likelihood=Likelihood.VERY_LIKELY,
            impact=Impact.HIGH,
            description=(
                "A format string taken from a variable lets the "
                "attacker read or write through conversion directives."
            ),
            mitigations=("Pass a constant format string; log data as arguments.",),
            applies_to=("CLASSIC-FORMAT-STRING",),
        )


class CWE_119_AUDIT(Threat):
    """Audit-grade memory signals: unknown arenas and misalignment."""

    def __init__(self) -> None:
        super().__init__(
            "CWE-119-AUDIT",
            "Memory Operation Audit Signal",
            capec="",
            cwe_ids=(119, 758),
            likelihood=Likelihood.UNLIKELY,
            impact=Impact.LOW,
            description=(
                "Informational findings worth an audit pass: a placement "
                "address whose arena extent cannot be determined (the "
                "paper's 'just an address' caveat) or an alignment "
                "mismatch between arena and placed type."
            ),
            mitigations=(
                "Carry arena extents alongside bare pointers.",
                "Align reusable pools for the largest placed type.",
            ),
            applies_to=("PN-UNKNOWN-ARENA", "PN-MISALIGNED"),
        )


for _threat_class in (
    CAPEC_100,
    CAPEC_129,
    CAPEC_242,
    CAPEC_116,
    CAPEC_130,
    CAPEC_227,
    CAPEC_67,
    CWE_119_AUDIT,
):
    DEFAULT_THREATLIB.register(_threat_class())


# -- defense and outcome coverage -------------------------------------------

#: Defense name → CWE ids the defense mitigates.  Must stay total over
#: ``repro.defenses.ALL_DEFENSES``: a new defense without an entry here
#: shows up in :func:`coverage_gaps` and fails the completeness test.
DEFENSE_MITIGATIONS = {
    "none": (),
    "stackguard": (121,),
    "checked-placement": (119, 787),
    "shadow-memory": (119, 787),
    "nx-stack": (94, 95),
    "sanitize-on-reuse": (200, 226, 244),
    "shadow-ret-stack": (121, 788),
    "vtable-integrity": (822, 843),
    "vrt": (119, 125, 787, 788),
    "memory-tagging": (119, 125, 787, 788),
}

#: ``classify_failure`` detection label → the defense name credited.
#: Must stay total over ``repro.attacks.base.ALL_DETECTION_LABELS`` so a
#: new defense exception cannot produce a ``detected(...)`` outcome the
#: scorer cannot attribute.
DETECTION_DEFENSES = {
    "stackguard": "stackguard",
    "bounds-check": "checked-placement",
    "shadow-memory": "shadow-memory",
    "nx": "nx-stack",
    "shadow-return-stack": "shadow-ret-stack",
    "vtable-integrity": "vtable-integrity",
    "vrt": "vrt",
    "memory-tagging": "memory-tagging",
}

#: Matrix-cell outcome head → how scoring treats the cell.
OUTCOME_CLASSES = {
    "ATTACK-WINS": "win",
    "detected": "stopped",
    "crashed": "stopped",
    "prevented": "stopped",
    "invalid": "unjudged",
}


def outcome_class(summary: str) -> Optional[str]:
    """Classify one matrix-cell summary (``detected(x)`` → "stopped");
    ``None`` for vocabulary the scorer does not know."""
    return OUTCOME_CLASSES.get(summary.split("(", 1)[0])


def defense_names() -> frozenset:
    """Every defense name in the evaluation roster."""
    from ..defenses import ALL_DEFENSES

    return frozenset(defense.name for defense in ALL_DEFENSES)


def detection_labels() -> frozenset:
    """Every ``detected_by`` label classification can produce."""
    from ..attacks.base import ALL_DETECTION_LABELS

    return frozenset(ALL_DETECTION_LABELS)


def matrix_outcome_ids() -> frozenset:
    """Every cell summary the matrix can render."""
    return frozenset(
        {"ATTACK-WINS", "crashed", "prevented", "invalid"}
        | {f"detected({label})" for label in detection_labels()}
    )


# -- trigger enumeration (what the registry must cover) ---------------------


def detector_rule_ids() -> frozenset:
    """Every rule id the placement-new detector can emit, extracted
    from the detector's own source so a new ``_emit("PN-…")`` call is
    seen here without anyone maintaining a mirror list."""
    from ..analysis import detector

    return frozenset(
        re.findall(r'"(PN-[A-Z][A-Z0-9-]*)"', inspect.getsource(detector))
    )


def legacy_rule_ids() -> frozenset:
    """Every classic-scanner rule id (the data list is authoritative)."""
    from ..analysis import CLASSIC_RULES

    return frozenset(rule.rule_id for rule in CLASSIC_RULES)


def triage_class_ids() -> frozenset:
    """Every fuzz auto-triage class label."""
    from ..fuzz.divergence import TRIAGE_RULES

    return frozenset(label for label, _, _ in TRIAGE_RULES)


def attack_names() -> frozenset:
    """Every attack-gallery scenario name (the E14 matrix rows)."""
    from ..attacks import all_attacks

    return frozenset(scenario.name for scenario in all_attacks())


def coverage_gaps(threatlib: Optional[Threatlib] = None) -> dict:
    """Trigger ids the registry does not map, by family.

    Empty when the registry is total; the completeness test fails on
    anything else.
    """
    lib = threatlib or DEFAULT_THREATLIB
    known = lib.triggers()
    gaps = {
        "detector_rules": sorted(detector_rule_ids() - known),
        "legacy_rules": sorted(legacy_rule_ids() - known),
        "triage_classes": sorted(triage_class_ids() - known),
        "attacks": sorted(attack_names() - known),
        # Defense-side totality: every defense must declare its CWE
        # mitigations, every detection label must credit a real defense,
        # and every renderable cell outcome must classify — otherwise a
        # new mitigation ships outcomes scoring cannot attribute.
        "defenses": sorted(defense_names() - set(DEFENSE_MITIGATIONS)),
        "detections": sorted(
            (detection_labels() - set(DETECTION_DEFENSES))
            | {
                label
                for label, credited in DETECTION_DEFENSES.items()
                if credited not in defense_names()
            }
        ),
        "matrix_outcomes": sorted(
            outcome
            for outcome in matrix_outcome_ids()
            if outcome_class(outcome) is None
        ),
    }
    return {family: missing for family, missing in gaps.items() if missing}


# -- version fingerprints ----------------------------------------------------


def registry_version(threatlib: Optional[Threatlib] = None) -> str:
    """Digest of everything in the registry that can move a score."""
    lib = threatlib or DEFAULT_THREATLIB
    parts = []
    for threat in sorted(lib.threats(), key=lambda t: t.threat_id):
        parts.append(
            "|".join(
                (
                    threat.threat_id,
                    threat.name,
                    ",".join(str(c) for c in threat.cwe_ids),
                    str(int(threat.likelihood)),
                    str(int(threat.impact)),
                    ",".join(sorted(threat.applies_to)),
                )
            )
        )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:12]


def scoring_versions() -> dict:
    """The attributability fingerprint embedded in scored reports.

    Mirrors :func:`repro.regress.store.current_versions` (detector,
    legacy-rule, event-vocabulary, and triage-rule versions) and adds
    the threat-registry digest, so a scored report records every
    revision that could have produced different numbers.
    """
    from ..regress.store import current_versions

    versions = dict(current_versions())
    versions["threat_registry"] = registry_version()
    return versions


# -- evidence adapters -------------------------------------------------------


def risks_from_report(label: str, report, threatlib: Optional[Threatlib] = None) -> list:
    """Map an :class:`~repro.analysis.AnalysisReport` onto risks.

    Findings are visited in the report's deterministic total order, so
    the returned risk list is byte-stable for a given report.
    """
    lib = threatlib or DEFAULT_THREATLIB
    risks = []
    for finding in sorted(
        report.findings,
        key=lambda f: (f.line, f.rule, f.function, f.message),
    ):
        risk = lib.apply(
            ScoreTarget(
                kind="finding",
                trigger=finding.rule,
                package=label,
                detail=finding.message,
                line=finding.line,
                severity=finding.severity.label(),
            )
        )
        if risk is not None:
            risks.append(risk)
    return risks


def risks_from_matrix(matrix: dict, threatlib: Optional[Threatlib] = None) -> list:
    """Map an attack × defense matrix onto risks, one per winning cell.

    ``matrix`` is the dict form — ``{"cells": [{"attack", "defense",
    "summary"}, ...]}`` — that ``ServiceEngine.matrix`` returns and
    :func:`repro.matrix.build_report` assembles from the attack rows.
    """
    lib = threatlib or DEFAULT_THREATLIB
    risks = []
    for cell in matrix.get("cells", ()):
        risk = lib.apply(
            ScoreTarget(
                kind="matrix-cell",
                trigger=cell["attack"],
                package=cell["attack"],
                detail=f"defense={cell['defense']}",
                outcome=cell["summary"],
            )
        )
        if risk is not None:
            risks.append(risk)
    return risks

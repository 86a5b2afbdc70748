"""Divergences: capture, normalized fingerprints, and triage.

A divergence is one concrete input on which the static and dynamic
oracles disagree.  Its *fingerprint* hashes only the normalized
disagreement — the kind, the rule ids, and the vulnerability-relevant
event kinds — never addresses or source text, so a campaign reports
each distinct disagreement once no matter how many mutants reach it.

Some disagreements are inherent to comparing a whole-input-space static
judgment with a single concrete run; :func:`auto_triage` labels those
known-benign classes so a campaign can insist on *zero silent*
disagreements while still surfacing anything new.
"""

from __future__ import annotations

import hashlib

from .._record import record, replace
from .oracles import Observation, OracleConfig, run_oracles, static_verdict
from .seeds import FuzzInput
from .vocabulary import VULNERABLE_EVENTS

#: Rules whose ERROR-grade claim quantifies over attacker inputs.
_TAINT_RULES = frozenset(
    {"PN-TAINTED-COUNT", "PN-TAINTED-FIELD", "PN-TAINTED-COPY-LOOP"}
)

#: Faults that indicate resource exhaustion rather than memory abuse.
_RESOURCE_FAULTS = frozenset({"fault:OutOfMemory", "fault:StackOverflowError_"})


def normalized_events(events: tuple) -> tuple:
    """The vulnerability-relevant event kinds, sorted.

    ``placement-fit`` is kept even though it is benign: triage rules
    use its absence to recognize runs with no placement activity at
    all (wild-pointer faults, plain crashes).
    """
    return tuple(
        sorted(
            kind
            for kind in events
            if kind in VULNERABLE_EVENTS
            or kind == "placement-fit"
            or kind.startswith("fault:")
        )
    )


def fingerprint_of(kind: str, rules: tuple, events: tuple) -> str:
    """Stable id of one normalized disagreement."""
    text = "|".join((kind, ",".join(sorted(rules)), ",".join(sorted(events))))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@record
class Divergence:
    """One deduplicated oracle disagreement."""

    fingerprint: str
    kind: str  # "static-only" | "dynamic-only"
    static_rules: tuple
    dynamic_events: tuple  # normalized
    family: str
    entry: str
    source: str
    stdin: tuple
    minimized_source: str = ""
    minimized_stdin: tuple = ()
    triage: str = ""  # non-empty = known-benign, with the reason
    occurrences: int = 1

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "static_rules": list(self.static_rules),
            "dynamic_events": list(self.dynamic_events),
            "family": self.family,
            "entry": self.entry,
            "source": self.source,
            "stdin": list(self.stdin),
            "minimized_source": self.minimized_source,
            "minimized_stdin": list(self.minimized_stdin),
            "triage": self.triage,
            "occurrences": self.occurrences,
            "status": "known-benign" if self.triage else "open",
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Divergence":
        return cls(
            fingerprint=data["fingerprint"],
            kind=data["kind"],
            static_rules=tuple(data["static_rules"]),
            dynamic_events=tuple(data["dynamic_events"]),
            family=data.get("family", ""),
            entry=data.get("entry", ""),
            source=data["source"],
            stdin=tuple(data.get("stdin", ())),
            minimized_source=data.get("minimized_source", ""),
            minimized_stdin=tuple(data.get("minimized_stdin", ())),
            triage=data.get("triage", ""),
            occurrences=data.get("occurrences", 1),
        )


def divergence_from(observation: Observation, fuzz_input: FuzzInput):
    """Build a :class:`Divergence` when the observation disagrees."""
    kind = observation.divergence_kind
    if kind is None:
        return None
    events = normalized_events(observation.dynamic.events)
    rules = observation.static.rules
    return Divergence(
        fingerprint=fingerprint_of(kind, rules, events),
        kind=kind,
        static_rules=rules,
        dynamic_events=events,
        family=fuzz_input.family,
        entry=observation.entry,
        source=fuzz_input.source,
        stdin=fuzz_input.stdin,
    )


def same_divergence(div: Divergence, config: OracleConfig = OracleConfig()):
    """The minimizer's predicate: does a candidate keep ``div``'s
    fingerprint under ``config``?

    The detector runs first.  A candidate that does not parse, or whose
    rule set differs from ``div.static_rules``, is refused without being
    executed: both are sorted rule tuples, so such a candidate can never
    hash to ``div.fingerprint``.  Only the rest reach the simulator.
    """
    rules = tuple(sorted(div.static_rules))

    def predicate(candidate: FuzzInput) -> bool:
        static = static_verdict(candidate.source)
        if static is None or static.rules != rules:
            return False
        observation = run_oracles(candidate.source, candidate.stdin, config)
        kind = observation.divergence_kind
        return kind == div.kind and div.fingerprint == fingerprint_of(
            kind,
            observation.static.rules,
            normalized_events(observation.dynamic.events),
        )

    return predicate


# -- triage ------------------------------------------------------------------


def _triage_taint_quantifier(div: Divergence) -> bool:
    """Static taint rules claim "some attacker input overflows"; a run
    whose concrete stdin stayed in bounds is not a refutation."""
    errors = set(div.static_rules) & _TAINT_RULES
    return div.kind == "static-only" and bool(errors)


def _triage_latent_exposure(div: Divergence) -> bool:
    """Warning-grade exposure rules (leak/no-sanitize) describe residue
    that leaks only when secret bytes are actually present; a mutant
    that lost its fill or sink path goes runtime-clean."""
    return (
        div.kind == "static-only"
        and bool(div.static_rules)
        and set(div.static_rules) <= {"PN-NO-SANITIZE", "PN-LEAK", "PN-MISALIGNED", "PN-UNKNOWN-ARENA", "PN-VPTR-RISK"}
    )


def _triage_unbounded_loop(div: Divergence) -> bool:
    """A mutated loop bound spins forever without any placement abuse;
    generic termination is outside the placement-new detector's scope."""
    return (
        div.kind == "dynamic-only"
        and "dos-timeout" in div.dynamic_events
        and "placement-overflow" not in div.dynamic_events
    )


def _triage_resource_exhaustion(div: Divergence) -> bool:
    """Mutated allocation sizes exhaust the simulated heap/stack —
    resource sizing, not the paper's memory-error class."""
    faults = {e for e in div.dynamic_events if e.startswith("fault:")}
    return (
        div.kind == "dynamic-only"
        and bool(faults)
        and faults <= _RESOURCE_FAULTS
        and "placement-overflow" not in div.dynamic_events
    )


def _triage_unexercised_confusion(div: Divergence) -> bool:
    """PN-TYPE-CONFUSION marks a mis-typed binding whose far-field
    writes *would* overflow; a run that never performs such a write
    stays clean without refuting the claim."""
    return div.kind == "static-only" and "PN-TYPE-CONFUSION" in div.static_rules


def _triage_wild_pointer(div: Divergence) -> bool:
    """A mutant faults through an uninitialized/dangling pointer with no
    placement new anywhere in the run; that memory error is real but
    not in the placement-new class the detector targets."""
    faults = {e for e in div.dynamic_events if e.startswith("fault:")}
    other = set(div.dynamic_events) - faults
    return (
        div.kind == "dynamic-only"
        and bool(faults)
        and faults <= {"fault:SegmentationFault", "fault:BusError"}
        and other <= {"segment-faulted"}
    )


#: (label, predicate, reason) — first match wins.
TRIAGE_RULES = (
    (
        "taint-quantifier",
        _triage_taint_quantifier,
        "static taint rules quantify over all attacker inputs; this "
        "run's concrete stdin stayed within bounds",
    ),
    (
        "unexercised-confusion",
        _triage_unexercised_confusion,
        "the mis-typed binding makes far-field writes overflow, but "
        "this concrete run never wrote past the allocation",
    ),
    (
        "latent-exposure",
        _triage_latent_exposure,
        "warning-grade exposure (residue/alignment) needs secret bytes "
        "and a live sink path; this input has neither at runtime",
    ),
    (
        "unbounded-loop",
        _triage_unbounded_loop,
        "loop spins past the step budget without any placement abuse; "
        "generic non-termination is outside the detector's scope",
    ),
    (
        "resource-exhaustion",
        _triage_resource_exhaustion,
        "allocation sizes exhaust the simulated heap/stack; resource "
        "sizing is outside the placement-new bug class",
    ),
    (
        "wild-pointer",
        _triage_wild_pointer,
        "segmentation fault through a wild/uninitialized pointer with "
        "no placement-new activity in the run; outside the detector's "
        "bug class",
    ),
)


def auto_triage(div: Divergence) -> Divergence:
    """Label ``div`` known-benign when a triage rule recognizes it."""
    if div.triage:
        return div
    for label, predicate, reason in TRIAGE_RULES:
        if predicate(div):
            return replace(div, triage=f"{label}: {reason}")
    return div

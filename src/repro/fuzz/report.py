"""The campaign report: one deterministic JSON artifact per campaign.

Everything in the report is derived from the seed and the campaign
configuration — no wall-clock, no addresses, no set-iteration order —
so two runs of the same campaign produce byte-identical files.  That
property is load-bearing: CI diffs reports, and the triage workflow
(see docs/FUZZING.md) rewrites them in place.
"""

from __future__ import annotations

import json

from .._record import field, record
from .divergence import Divergence

SCHEMA = 2


@record
class CampaignReport:
    """Aggregated outcome of one fuzzing campaign."""

    seed: int
    iterations: int
    execs: int = 0
    invalid: int = 0
    seeds: int = 0
    mutants_discarded: int = 0
    corpus_size: int = 0
    batches_failed: int = 0
    #: Iterations claimed by the config but never executed because
    #: their batch failed or timed out (see docs/FUZZING.md).
    iterations_lost: int = 0
    #: Times the live corpus hit ``max_corpus`` and evicted (or, when
    #: only seeds remained, dropped) a candidate to keep learning.
    corpus_saturated: int = 0
    coverage: tuple = ()
    divergences: list = field(default_factory=list)
    #: family → {"static": bool, "dynamic": bool}: did the family's
    #: labeled-vulnerable seed trip each oracle?
    families: dict = field(default_factory=dict)

    @property
    def untriaged(self) -> list:
        return [d for d in self.divergences if not d.triage]

    @property
    def divergence_rate(self) -> float:
        return len(self.divergences) / self.execs if self.execs else 0.0

    def sorted_divergences(self) -> list:
        return sorted(self.divergences, key=lambda d: (d.kind, d.fingerprint))

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "seed": self.seed,
            "iterations": self.iterations,
            "execs": self.execs,
            "invalid": self.invalid,
            "seeds": self.seeds,
            "mutants_discarded": self.mutants_discarded,
            "corpus_size": self.corpus_size,
            "batches_failed": self.batches_failed,
            "iterations_lost": self.iterations_lost,
            "corpus_saturated": self.corpus_saturated,
            "coverage_size": len(self.coverage),
            "coverage": sorted(self.coverage),
            "divergences": [d.to_dict() for d in self.sorted_divergences()],
            "divergences_total": len(self.divergences),
            "untriaged": len(self.untriaged),
            "families": {
                family: dict(sorted(reach.items()))
                for family, reach in sorted(self.families.items())
            },
        }

    def to_json(self) -> str:
        """Canonical byte-stable encoding (the CI artifact)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignReport":
        report = cls(
            seed=data["seed"],
            iterations=data["iterations"],
            execs=data.get("execs", 0),
            invalid=data.get("invalid", 0),
            seeds=data.get("seeds", 0),
            mutants_discarded=data.get("mutants_discarded", 0),
            corpus_size=data.get("corpus_size", 0),
            batches_failed=data.get("batches_failed", 0),
            iterations_lost=data.get("iterations_lost", 0),
            corpus_saturated=data.get("corpus_saturated", 0),
            coverage=tuple(data.get("coverage", ())),
            families=dict(data.get("families", {})),
        )
        report.divergences = [
            Divergence.from_dict(entry) for entry in data.get("divergences", ())
        ]
        return report

    def render(self) -> str:
        """Human-readable summary for the CLI."""
        lines = [
            f"campaign seed={self.seed} execs={self.execs} "
            f"(invalid {self.invalid}, discarded mutants "
            f"{self.mutants_discarded})",
        ]
        if self.batches_failed or self.iterations_lost:
            lines.append(
                f"!! {self.batches_failed} batch(es) failed: "
                f"{self.iterations_lost} of {self.iterations} configured "
                f"iterations never executed"
            )
        lines += [
            f"coverage: {len(self.coverage)} keys; corpus: "
            f"{self.corpus_size} inputs",
            "family reach (labeled-vulnerable seeds):",
        ]
        for family, reach in sorted(self.families.items()):
            static_mark = "static✓" if reach.get("static") else "static✗"
            dynamic_mark = "dynamic✓" if reach.get("dynamic") else "dynamic✗"
            lines.append(f"  {family:14s} {static_mark} {dynamic_mark}")
        lines.append(
            f"divergences: {len(self.divergences)} "
            f"({len(self.untriaged)} un-triaged)"
        )
        for div in self.sorted_divergences():
            status = "known-benign" if div.triage else "OPEN"
            lines.append(
                f"  [{status}] {div.fingerprint} {div.kind} "
                f"rules={','.join(div.static_rules) or '-'} "
                f"events={','.join(div.dynamic_events) or '-'} "
                f"(family {div.family or '?'}, ×{div.occurrences})"
            )
            if div.triage:
                lines.append(f"      triage: {div.triage}")
        return "\n".join(lines)

"""Deterministic blast-radius propagation over a package graph.

Each package's *intrinsic* score is the sum of the risk scores the
threat registry assigns to its own findings.  Propagation then follows
the import edges (vpss-style):

* ``blast_radius(p)`` — how much damage a flaw in ``p`` can do:
  ``intrinsic(p) * (1 + sum(attenuation**depth))`` over every
  transitive *dependent*, each weighted by its minimum import depth.
* ``exposure(p)`` — how much inherited risk ``p`` carries:
  ``intrinsic(p) + sum(intrinsic(dep) * attenuation**depth)`` over
  every transitive *dependency*.

All sums iterate packages in sorted-name order and the default
attenuation (0.5) is exact in binary floating point, so reports are
byte-stable regardless of scheduling — the property the service layer
relies on to fan scoring over the worker pool.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .packages import PackageGraph, load_package_dir
from .threats import registry_version, risks_from_report, scoring_versions

#: Depth weight for propagated score; 0.5 is exact in binary floats.
DEFAULT_ATTENUATION = 0.5


def analyze_package_source(source: str, label: str = "") -> List[dict]:
    """Score one module's source: detector + legacy scanner findings
    mapped through the threat registry, as deterministic risk dicts."""
    from ..analysis.detector import analyze_source
    from ..analysis.legacy_tools import LegacyRuleScanner

    risks = risks_from_report(label, analyze_source(source))
    risks += risks_from_report(label, LegacyRuleScanner().scan_source(source))
    dicts = [risk.to_dict() for risk in risks]
    dicts.sort(key=lambda r: (r["line"], r["trigger"], r["threat"], r["detail"]))
    return dicts


@dataclass(frozen=True)
class PackageScore:
    """One package's intrinsic and propagated scores."""

    name: str
    intrinsic: int
    blast_radius: float
    exposure: float
    dependents: int  # size of the transitive dependent set
    risks: Tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        return {
            "blast_radius": self.blast_radius,
            "dependents": self.dependents,
            "exposure": self.exposure,
            "intrinsic": self.intrinsic,
            "name": self.name,
            "risks": [dict(risk) for risk in self.risks],
        }


@dataclass(frozen=True)
class CorpusScore:
    """The scored corpus: per-package entries plus both rankings."""

    attenuation: float
    packages: Tuple[PackageScore, ...]  # sorted by name
    fingerprint: dict = field(default_factory=scoring_versions)

    def entry(self, name: str) -> PackageScore:
        for package in self.packages:
            if package.name == name:
                return package
        raise KeyError(name)

    @property
    def ranking(self) -> List[str]:
        """Names by propagated blast radius, largest first."""
        return [
            p.name
            for p in sorted(
                self.packages, key=lambda p: (-p.blast_radius, p.name)
            )
        ]

    @property
    def flat_ranking(self) -> List[str]:
        """Names by flat per-file severity, largest first."""
        return [
            p.name
            for p in sorted(self.packages, key=lambda p: (-p.intrinsic, p.name))
        ]

    @property
    def totals(self) -> dict:
        return {
            "flawed_packages": sum(1 for p in self.packages if p.intrinsic),
            "max_blast_radius": max(
                (p.blast_radius for p in self.packages), default=0.0
            ),
            "packages": len(self.packages),
            "risks": sum(len(p.risks) for p in self.packages),
        }

    def to_dict(self) -> dict:
        return {
            "attenuation": self.attenuation,
            "fingerprint": dict(self.fingerprint),
            "flat_ranking": self.flat_ranking,
            "packages": [p.to_dict() for p in self.packages],
            "ranking": self.ranking,
            "totals": self.totals,
        }

    def to_json(self) -> str:
        """Byte-stable JSON (sorted keys, fixed indentation)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self, top: int = 0) -> str:
        """Human-readable ranking table (``top`` = 0 shows all)."""
        names = self.ranking
        if top:
            names = names[:top]
        width = max([len("package")] + [len(name) for name in names])
        lines = [
            f"{'package':<{width}}  {'blast':>8}  {'intrinsic':>9}  "
            f"{'exposure':>8}  {'dependents':>10}  risks"
        ]
        for name in names:
            entry = self.entry(name)
            lines.append(
                f"{name:<{width}}  {entry.blast_radius:>8.2f}  "
                f"{entry.intrinsic:>9}  {entry.exposure:>8.2f}  "
                f"{entry.dependents:>10}  {len(entry.risks)}"
            )
        totals = self.totals
        lines.append(
            f"{totals['flawed_packages']}/{totals['packages']} packages "
            f"flawed, {totals['risks']} risks, attenuation "
            f"{self.attenuation}"
        )
        return "\n".join(lines)


def score_packages(
    graph: PackageGraph,
    risks_by_package: Dict[str, Sequence[dict]],
    attenuation: float = DEFAULT_ATTENUATION,
) -> CorpusScore:
    """Propagate pre-computed per-package risks over ``graph``.

    ``risks_by_package`` maps every package name to its risk dicts
    (what :func:`analyze_package_source` returns); the split lets the
    service layer compute the per-package half in parallel workers and
    keep propagation — which needs the whole graph — in one place.
    """
    if not 0.0 <= attenuation <= 1.0:
        raise ValueError(f"attenuation must be in [0, 1], got {attenuation}")
    missing = [name for name in graph.names() if name not in risks_by_package]
    if missing:
        raise ValueError(f"no risks computed for packages: {missing}")
    intrinsic = {
        name: sum(risk["score"] for risk in risks_by_package[name])
        for name in graph.names()
    }
    scores = []
    for name in graph.names():
        dependents = graph.transitive_dependents(name)
        reach = 1.0 + sum(
            attenuation ** depth
            for _, depth in sorted(dependents.items())
        )
        exposure = float(intrinsic[name]) + sum(
            intrinsic[dep] * attenuation ** depth
            for dep, depth in sorted(graph.transitive_dependencies(name).items())
        )
        scores.append(
            PackageScore(
                name=name,
                intrinsic=intrinsic[name],
                blast_radius=round(intrinsic[name] * reach, 6),
                exposure=round(exposure, 6),
                dependents=len(dependents),
                risks=tuple(dict(r) for r in risks_by_package[name]),
            )
        )
    return CorpusScore(attenuation=attenuation, packages=tuple(scores))


def score_graph(
    graph, attenuation: float = DEFAULT_ATTENUATION, pool=None
) -> CorpusScore:
    """Score a package graph (or a package directory path).

    The per-package half runs as one ``score`` job per package, in
    sorted-name order, inline (``pool=None``) or over ``pool``;
    propagation runs here once every package's risks are back, so the
    report is byte-identical at any worker count.
    """
    from ..service.jobs import ScoreJob
    from ..service.workers import run_jobs

    if not isinstance(graph, PackageGraph):
        graph = load_package_dir(graph)
    registry = registry_version()
    names = graph.names()
    jobs = [
        ScoreJob(source=graph.package(name).source, label=name, registry=registry)
        for name in names
    ]
    risks_by_package = {
        name: handle.result()["risks"]
        for name, handle in zip(names, run_jobs(jobs, pool))
    }
    return score_packages(graph, risks_by_package, attenuation)


def diff_score_reports(before: dict, after: dict) -> List[str]:
    """Differences between two ``CorpusScore.to_dict`` documents.

    Returns human-readable difference lines, empty when equivalent.
    Fingerprint drift is reported first — a score change under a
    different registry or detector version is expected, not a
    regression.
    """
    lines: List[str] = []
    for key in sorted(set(before.get("fingerprint", {})) | set(after.get("fingerprint", {}))):
        old = before.get("fingerprint", {}).get(key)
        new = after.get("fingerprint", {}).get(key)
        if old != new:
            lines.append(f"fingerprint {key}: {old} -> {new}")
    old_packages = {p["name"]: p for p in before.get("packages", ())}
    new_packages = {p["name"]: p for p in after.get("packages", ())}
    for name in sorted(set(old_packages) - set(new_packages)):
        lines.append(f"package removed: {name}")
    for name in sorted(set(new_packages) - set(old_packages)):
        lines.append(f"package added: {name}")
    for name in sorted(set(old_packages) & set(new_packages)):
        old, new = old_packages[name], new_packages[name]
        for key in ("intrinsic", "blast_radius", "exposure"):
            if old[key] != new[key]:
                lines.append(f"{name} {key}: {old[key]} -> {new[key]}")
    if before.get("ranking") != after.get("ranking"):
        lines.append(
            f"ranking: {' > '.join(before.get('ranking', []))} -> "
            f"{' > '.join(after.get('ranking', []))}"
        )
    return lines

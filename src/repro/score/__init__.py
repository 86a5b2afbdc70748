"""repro.score: CWE/CAPEC risk scoring with blast-radius propagation.

The capstone layer over every prior subsystem: a declarative threat
registry (:mod:`threats`) maps detector rules, legacy-scanner rules,
fuzz auto-triage classes, and attack × defense matrix outcomes onto
CWE/CAPEC threat entries in the ``Threat.apply(target) -> Risk`` idiom;
:mod:`packages` groups MiniC++ modules into import-declaring packages
over a dependency DAG; and :mod:`propagate` pushes each flawed module's
intrinsic risk through its transitive dependents with depth
attenuation, so a corpus can be ranked by *blast radius* rather than
flat per-file severity.  See docs/SCORING.md.
"""

from .packages import (
    DEMO_PACKAGES,
    Package,
    PackageGraph,
    demo_graph,
    generated_package_graph,
    load_package_dir,
    parse_package_source,
    render_package_source,
)
from .propagate import (
    DEFAULT_ATTENUATION,
    CorpusScore,
    PackageScore,
    analyze_package_source,
    diff_score_reports,
    score_graph,
    score_packages,
)
from .threats import (
    DEFAULT_THREATLIB,
    Impact,
    Likelihood,
    Risk,
    ScoreTarget,
    Threat,
    Threatlib,
    attack_names,
    coverage_gaps,
    detector_rule_ids,
    legacy_rule_ids,
    registry_version,
    risks_from_matrix,
    risks_from_report,
    scoring_versions,
    triage_class_ids,
)

__all__ = [
    "CorpusScore",
    "DEFAULT_ATTENUATION",
    "DEFAULT_THREATLIB",
    "DEMO_PACKAGES",
    "Impact",
    "Likelihood",
    "Package",
    "PackageGraph",
    "PackageScore",
    "Risk",
    "ScoreTarget",
    "Threat",
    "Threatlib",
    "analyze_package_source",
    "attack_names",
    "coverage_gaps",
    "demo_graph",
    "detector_rule_ids",
    "diff_score_reports",
    "generated_package_graph",
    "legacy_rule_ids",
    "load_package_dir",
    "parse_package_source",
    "registry_version",
    "render_package_source",
    "risks_from_matrix",
    "risks_from_report",
    "score_graph",
    "score_packages",
    "scoring_versions",
    "triage_class_ids",
]

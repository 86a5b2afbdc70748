"""repro.regress: the replayable regression corpus.

Turns one-off fuzz findings into durable correctness claims: every
minimized oracle disagreement (and any deliberately pinned agreement)
is stored as a content-addressed, version-aware JSON bundle that the
``repro-regress`` CLI — and the worker pool's ``regress-replay``
job — can re-judge against the live detector and simulator on every
PR.  Verdict drift, triage drift, and version bumps without an explicit
rebaseline all fail the replay.  See docs/REGRESSION.md.
"""

from .replay import (
    REPLAY_SCHEMA,
    DriftReport,
    ReplayResult,
    rebaseline_store,
    replay_bundle,
    replay_bundle_json,
    replay_store,
)
from .store import (
    BUNDLE_KINDS,
    BUNDLE_SCHEMA,
    RegressionBundle,
    RegressionStore,
    bundle_from_divergence,
    bundle_from_observation,
    current_versions,
    triage_label,
)

__all__ = [
    "BUNDLE_KINDS",
    "BUNDLE_SCHEMA",
    "DriftReport",
    "REPLAY_SCHEMA",
    "RegressionBundle",
    "RegressionStore",
    "ReplayResult",
    "bundle_from_divergence",
    "bundle_from_observation",
    "current_versions",
    "rebaseline_store",
    "replay_bundle",
    "replay_bundle_json",
    "replay_store",
    "triage_label",
]

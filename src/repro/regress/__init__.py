"""repro.regress: the replayable regression corpus.

Turns one-off fuzz findings into durable correctness claims: every
minimized oracle disagreement (and any deliberately pinned agreement)
is stored as a content-addressed, version-aware JSON bundle that the
``repro-regress`` CLI — and the worker pool's ``replay_chunk``
calls — can re-judge against the live detector and simulator on every
PR.  Verdict drift, triage drift, and version bumps without an explicit
rebaseline all fail the replay.  See docs/REGRESSION.md.
"""

from .._exports import exports_getattr

#: Public name -> the submodule that defines it, imported on first
#: access (see :mod:`repro._exports`).
_EXPORTS = {
    **dict.fromkeys(
        (
            "DriftReport",
            "REPLAY_SCHEMA",
            "ReplayResult",
            "rebaseline_store",
            "replay_bundle",
            "replay_bundle_json",
            "replay_store",
        ),
        "replay",
    ),
    **dict.fromkeys(
        (
            "BUNDLE_KINDS",
            "BUNDLE_SCHEMA",
            "RegressionBundle",
            "RegressionStore",
            "UnknownBundle",
            "UnreadableBundle",
            "bundle_from_divergence",
            "bundle_from_observation",
            "current_versions",
            "triage_label",
        ),
        "store",
    ),
}

__all__ = sorted(_EXPORTS)

__getattr__ = exports_getattr(__name__, _EXPORTS)

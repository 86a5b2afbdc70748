"""repro.fuzz: coverage-guided differential fuzzing campaigns.

Generates and mutates MiniC++ programs, runs each through both the
static placement-new detector and the dynamic interpreter + simulated
address space, and treats *disagreement between the two oracles* as the
signal.  Coverage feedback (detector rule ids ∪ simulator event kinds)
decides which mutants join the live corpus; divergences are minimized,
fingerprinted, auto-triaged, and written to a deterministic campaign
report.  See docs/FUZZING.md for the campaign lifecycle.
"""

from .._exports import exports_getattr

#: Public name -> the submodule that defines it, imported on first
#: access (see :mod:`repro._exports`).
_EXPORTS = {
    **dict.fromkeys(
        (
            "CampaignInterrupted",
            "DifferentialFuzzer",
            "FuzzConfig",
            "batch_rng",
            "run_batch",
            "run_campaign",
        ),
        "campaign",
    ),
    **dict.fromkeys(
        (
            "CampaignCheckpoint",
            "CheckpointError",
            "CheckpointStore",
            "checkpoint_from_fuzzer",
            "restore_fuzzer",
        ),
        "checkpoint",
    ),
    **dict.fromkeys(("CoverageMap", "coverage_keys"), "coverage"),
    **dict.fromkeys(
        (
            "Divergence",
            "TRIAGE_RULES",
            "auto_triage",
            "divergence_from",
            "fingerprint_of",
            "normalized_events",
            "same_divergence",
        ),
        "divergence",
    ),
    "minimize_input": "minimize",
    "mutate": "mutator",
    **dict.fromkeys(
        (
            "DynamicVerdict",
            "Observation",
            "OracleConfig",
            "StaticVerdict",
            "dynamic_verdict",
            "run_oracles",
            "static_verdict",
        ),
        "oracles",
    ),
    "CampaignReport": "report",
    **dict.fromkeys(("TRIAGE_LABELS", "VULNERABLE_EVENTS"), "vocabulary"),
    **dict.fromkeys(("FuzzInput", "corpus_seeds", "generator_seeds", "seed_inputs"), "seeds"),
}

__all__ = sorted(_EXPORTS)

__getattr__ = exports_getattr(__name__, _EXPORTS)

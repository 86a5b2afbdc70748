"""Typed job specifications for the service layer.

A job is a frozen, content-addressed description of one unit of work:
analyzing a source file, running an attack under a defense environment,
evaluating the attack × defense matrix, or executing a program on the
simulated machine.  Two jobs with the same payload have the same
:meth:`Job.key`, which is what the result cache and the scheduler's
deduplication key on — the hash covers the job kind plus every payload
field, canonically JSON-encoded, so it is stable across processes and
interpreter runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from ..fuzz.oracles import DEFAULT_STEP_BUDGET

#: Default scheduler priority (lower numbers run first).
NORMAL_PRIORITY = 10
#: Priority for latency-sensitive work (interactive API requests).
HIGH_PRIORITY = 1
#: Priority for bulk background sweeps.
LOW_PRIORITY = 100


def canonical_json(payload: dict) -> str:
    """Deterministic encoding used for job keys and cache files."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Job:
    """Base class: a hashable, cacheable unit of service work."""

    #: Worker-registry key (see :mod:`repro.service.workers`).
    KIND = "job"
    #: Whether results may be served from the result cache.  Jobs whose
    #: outcome depends on randomized machine state (ASLR, random
    #: canaries) should disable this.
    CACHEABLE = True

    def payload(self) -> dict:
        """The JSON-able argument dict handed to the worker function."""
        return asdict(self)

    def key(self) -> str:
        """Deterministic content-hash identity for cache/dedup lookups."""
        digest = hashlib.sha256(
            (self.KIND + "\n" + canonical_json(self.payload())).encode()
        ).hexdigest()
        return f"{self.KIND}-{digest[:20]}"


@dataclass(frozen=True)
class AnalyzeJob(Job):
    """Run the placement-new detector over one MiniC++ source."""

    source: str
    label: str = ""
    legacy: bool = False

    KIND = "analyze"


@dataclass(frozen=True)
class ScoreJob(Job):
    """Score one package's source through the threat registry.

    ``registry`` carries the threat-registry digest at submit time, so
    cached results are invalidated when the registry changes even
    though the source text did not.
    """

    source: str
    label: str = ""
    registry: str = ""

    KIND = "score"


@dataclass(frozen=True)
class AttackJob(Job):
    """Run one gallery attack under one defense environment."""

    attack: str
    env: str = "unprotected"

    KIND = "attack"


@dataclass(frozen=True)
class MatrixCellJob(Job):
    """Evaluate one sweep cell: a row (gallery attack or runnable
    program) under one defense.

    Cacheable: the evaluation is pure — fresh machine, seeded canaries,
    fixed stdin — so a cell's outcome is a function of its payload and
    the code version the cache already keys on.
    """

    row_kind: str = "attack"  # "attack" | "seed" | "regress"
    row_id: str = ""
    source: str = ""
    stdin: tuple = ()
    defense: str = "none"
    step_budget: int = DEFAULT_STEP_BUDGET

    KIND = "matrix-cell"


@dataclass(frozen=True)
class FuzzCampaignJob(Job):
    """One batch of a differential fuzzing campaign (see ``repro.fuzz``).

    The payload is a full snapshot — campaign seed, round/batch
    coordinates, corpus, and coverage baseline — so the worker is pure:
    same payload, same batch result.  Still not cacheable, because
    campaigns intentionally re-run batches against evolving snapshots
    and the result cache would pin a stale corpus.
    """

    seed: int = 1
    round: int = 0
    batch: int = 0
    iterations: int = 50
    corpus: tuple = ()  # (source, stdin, family, label) tuples
    coverage: tuple = ()  # coverage keys already reached
    protected: int = 0  # leading corpus entries exempt from eviction
    step_budget: int = DEFAULT_STEP_BUDGET
    canary: bool = True
    max_corpus: int = 256

    KIND = "fuzz-campaign"
    CACHEABLE = False


@dataclass(frozen=True)
class RegressReplayJob(Job):
    """Replay one chunk of regression bundles (see ``repro.regress``).

    The payload carries the bundles themselves (canonical JSON strings),
    not a store path, so the worker is pure and process-backend safe:
    same bundles, same replay verdicts.  Not cacheable — the whole point
    of a replay is to re-judge the bundle against the *current* detector
    and simulator, never a remembered verdict.
    """

    bundles: tuple = ()  # canonical-JSON bundle documents
    check_versions: bool = True

    KIND = "regress-replay"
    CACHEABLE = False


@dataclass(frozen=True)
class ExecJob(Job):
    """Execute MiniC++ source on a fresh simulated machine.

    Not cacheable: random canaries and accumulated machine entropy make
    repeated executions legitimately observable as distinct runs.
    """

    source: str
    entry: str = "main"
    args: tuple = ()
    stdin: tuple = ()
    canary: bool = False

    KIND = "exec"
    CACHEABLE = False

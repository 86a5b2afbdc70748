"""Campaign checkpoints: kill a fuzz run at any point, resume it later.

A checkpoint is everything the campaign driver needs to continue a run
as if it had never stopped: the corpus (with its protected-seed
prefix), the coverage keys, the deduplicated divergences, the per-run
counters, and the ``(round, remaining)`` cursor.  Nothing else is
required — ``batch_rng(seed, round, batch)`` derives every batch's RNG
from its coordinates, so resuming needs no pickled random state, and
the family-reach table is fully determined by the seed pass (mutants
carry no ground-truth label).

Three properties are load-bearing:

* **Byte-identical resume** — a campaign killed at any round boundary
  and resumed produces a :class:`~repro.fuzz.CampaignReport` identical,
  byte for byte, to an uninterrupted run at any worker count (the
  driver replays the same batch partition against the same state).
* **Atomic publication** — checkpoints are written to a per-process
  temp file and :func:`os.replace`-d into place, so a crash mid-write
  never leaves a torn file; :meth:`CheckpointStore.latest` additionally
  skips files that fail the embedded integrity digest, falling back to
  the previous round.
* **Version refusal** — every checkpoint pins
  :func:`repro.regress.current_versions`; resuming under different
  detector/event/triage versions is an error unless explicitly skipped,
  because merged pre-bump batches would silently mix verdict regimes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from .._record import field, record
from ..fileio import atomic_write_text, canonical_json

#: Checkpoint document schema revision.  2: the config and counters
#: carry no execution-engine keys.
CHECKPOINT_SCHEMA = 2

#: Completed-round checkpoints kept on disk (newest first).  Two, not
#: one: the newest may be torn by a hard kill mid-replace on exotic
#: filesystems, and recovery then costs one round, never the campaign.
KEEP_CHECKPOINTS = 2


class CheckpointError(Exception):
    """A checkpoint cannot be written, read, or safely resumed."""


def _digest_of(body: dict) -> str:
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()[:16]


@record
class CampaignCheckpoint:
    """One resumable snapshot of a campaign at a round boundary."""

    config: dict  # FuzzConfig fields (seed, iterations, ...)
    batch_size: int
    round_index: int  # the next round to run
    remaining: int  # iterations not yet executed
    coverage: tuple = ()  # sorted coverage keys
    corpus: tuple = ()  # (source, stdin, family, label) entries
    protected: int = 0  # leading corpus entries exempt from eviction
    families: dict = field(default_factory=dict)
    divergences: tuple = ()  # Divergence.to_dict() dicts, sorted
    counters: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)

    def fuzz_config(self):
        from .campaign import FuzzConfig

        return FuzzConfig(**self.config)

    def stale_versions(self) -> dict:
        """Version keys that no longer match the live code
        (``{key: (recorded, live)}``; empty = safe to resume)."""
        from ..regress.store import current_versions

        live = current_versions()
        return {
            key: (self.versions.get(key), live[key])
            for key in live
            if self.versions.get(key) != live[key]
        }

    def _body(self) -> dict:
        return {
            "schema": CHECKPOINT_SCHEMA,
            "config": dict(sorted(self.config.items())),
            "batch_size": self.batch_size,
            "round": self.round_index,
            "remaining": self.remaining,
            "coverage": sorted(self.coverage),
            "corpus": [
                [source, list(stdin), family, label]
                for source, stdin, family, label in self.corpus
            ],
            "protected": self.protected,
            "families": {
                family: dict(sorted(reach.items()))
                for family, reach in sorted(self.families.items())
            },
            "divergences": list(self.divergences),
            "counters": dict(sorted(self.counters.items())),
            "versions": dict(sorted(self.versions.items())),
        }

    def to_dict(self) -> dict:
        body = self._body()
        body["digest"] = _digest_of(body)
        return body

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignCheckpoint":
        if not isinstance(data, dict):
            raise CheckpointError("checkpoint document is not an object")
        if data.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"unsupported checkpoint schema {data.get('schema')!r} "
                f"(this build reads schema {CHECKPOINT_SCHEMA})"
            )
        body = {key: value for key, value in data.items() if key != "digest"}
        recorded = data.get("digest", "")
        checkpoint = cls(
            config=dict(body.get("config", {})),
            batch_size=body.get("batch_size", 0),
            round_index=body.get("round", 0),
            remaining=body.get("remaining", 0),
            coverage=tuple(body.get("coverage", ())),
            corpus=tuple(
                (source, tuple(stdin), family, label)
                for source, stdin, family, label in body.get("corpus", ())
            ),
            protected=body.get("protected", 0),
            families={
                family: dict(reach)
                for family, reach in body.get("families", {}).items()
            },
            divergences=tuple(body.get("divergences", ())),
            counters=dict(body.get("counters", {})),
            versions=dict(body.get("versions", {})),
        )
        if recorded != _digest_of(checkpoint._body()):
            raise CheckpointError(
                "checkpoint integrity digest mismatch (truncated or "
                "hand-edited file)"
            )
        return checkpoint

    @classmethod
    def from_json(cls, text: str) -> "CampaignCheckpoint":
        try:
            data = json.loads(text)
        except ValueError as error:
            raise CheckpointError(f"checkpoint is not JSON: {error}") from None
        try:
            return cls.from_dict(data)
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(f"malformed checkpoint: {error}") from None


def checkpoint_from_fuzzer(
    fuzzer, batch_size: int, round_index: int, remaining: int
) -> CampaignCheckpoint:
    """Snapshot a driver-side :class:`~repro.fuzz.DifferentialFuzzer`."""
    from ..regress.store import current_versions

    return CampaignCheckpoint(
        config={
            "seed": fuzzer.config.seed,
            "iterations": fuzzer.config.iterations,
            "step_budget": fuzzer.config.step_budget,
            "canary": fuzzer.config.canary,
            "minimize": fuzzer.config.minimize,
            "max_corpus": fuzzer.config.max_corpus,
        },
        batch_size=batch_size,
        round_index=round_index,
        remaining=remaining,
        coverage=fuzzer.coverage.sorted_keys(),
        corpus=tuple(
            (inp.source, inp.stdin, inp.family, inp.label)
            for inp in fuzzer.corpus
        ),
        protected=fuzzer._protected,
        families={
            family: dict(reach) for family, reach in fuzzer.families.items()
        },
        divergences=tuple(
            fuzzer.divergences[fingerprint].to_dict()
            for fingerprint in sorted(fuzzer.divergences)
        ),
        counters={
            "execs": fuzzer.execs,
            "invalid": fuzzer.invalid,
            "discarded": fuzzer.discarded,
            "seeds": fuzzer.seeds,
            "saturations": fuzzer.saturations,
            "batches_failed": fuzzer.batches_failed,
            "iterations_lost": fuzzer.iterations_lost,
        },
        versions=current_versions(),
    )


def restore_fuzzer(checkpoint: CampaignCheckpoint, store=None):
    """Rebuild the driver-side fuzzer exactly as the checkpoint left it."""
    from .campaign import DifferentialFuzzer
    from .coverage import CoverageMap
    from .divergence import Divergence
    from .seeds import FuzzInput

    fuzzer = DifferentialFuzzer(checkpoint.fuzz_config(), store=store)
    fuzzer.coverage = CoverageMap(frozenset(checkpoint.coverage))
    for index, (source, stdin, family, label) in enumerate(checkpoint.corpus):
        fuzzer.add_corpus(
            FuzzInput(
                source=source, stdin=tuple(stdin), family=family, label=label
            ),
            protected=index < checkpoint.protected,
        )
    fuzzer.families = {
        family: dict(reach) for family, reach in checkpoint.families.items()
    }
    for entry in checkpoint.divergences:
        div = Divergence.from_dict(entry)
        fuzzer.divergences[div.fingerprint] = div
    counters = checkpoint.counters
    fuzzer.execs = counters.get("execs", 0)
    fuzzer.invalid = counters.get("invalid", 0)
    fuzzer.discarded = counters.get("discarded", 0)
    fuzzer.seeds = counters.get("seeds", 0)
    fuzzer.saturations = counters.get("saturations", 0)
    fuzzer.batches_failed = counters.get("batches_failed", 0)
    fuzzer.iterations_lost = counters.get("iterations_lost", 0)
    return fuzzer


class CheckpointStore:
    """A directory of per-round campaign checkpoints.

    One ``checkpoint-r<round>.json`` per completed round, written
    atomically; :meth:`latest` walks rounds newest-first and returns the
    first checkpoint that loads *and* passes its integrity digest, so a
    torn or tampered newest file costs one round of progress, never the
    campaign.
    """

    def __init__(self, directory, create: bool = True):
        self.directory = Path(directory)
        if create:
            self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, round_index: int) -> Path:
        return self.directory / f"checkpoint-r{round_index:06d}.json"

    def paths(self) -> list:
        """Checkpoint files, oldest round first."""
        return sorted(self.directory.glob("checkpoint-r*.json"))

    def save(self, checkpoint: CampaignCheckpoint) -> Path:
        """Atomically publish ``checkpoint`` and prune old rounds."""
        path = self.path_for(checkpoint.round_index)
        try:
            atomic_write_text(path, checkpoint.to_json())
        except OSError as error:
            raise CheckpointError(
                f"cannot write checkpoint {path}: {error}"
            ) from None
        for stale in self.paths()[:-KEEP_CHECKPOINTS]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        return path

    def latest(self) -> Optional[CampaignCheckpoint]:
        """The newest checkpoint that loads cleanly, or ``None``."""
        for path in reversed(self.paths()):
            try:
                return CampaignCheckpoint.from_json(path.read_text())
            except (CheckpointError, OSError):
                continue
        return None

"""Campaign orchestration: the coverage-guided differential fuzz loop.

:class:`DifferentialFuzzer` is the single-threaded core — seed, pick,
mutate, run both oracles, promote on new coverage, dedup divergences.
:func:`run_batch` is the same loop packaged as a function of one
payload dict (one *batch* of iterations against a corpus/coverage
snapshot), and :func:`run_campaign` drives whole campaigns as rounds of
:func:`run_batch` calls, inline or fanned out over a
:class:`~repro.service.WorkerPool`, with per-batch timeouts and
deterministic in-order merging — the report is
byte-identical across runs for a fixed seed, at any worker count, and
across kill/resume cycles through :mod:`repro.fuzz.checkpoint`.
"""

from __future__ import annotations

import random

from .._record import record, replace
from .checkpoint import (
    CheckpointError,
    CheckpointStore,
    checkpoint_from_fuzzer,
    restore_fuzzer,
)
from .coverage import CoverageMap, coverage_keys
from .divergence import (
    Divergence,
    auto_triage,
    divergence_from,
    same_divergence,
)
from .minimize import minimize_input
from .mutator import mutate
from .oracles import DEFAULT_STEP_BUDGET, OracleConfig, run_oracles
from .report import CampaignReport
from .seeds import FuzzInput, seed_inputs


@record(frozen=True)
class FuzzConfig:
    """Deterministic knobs for one campaign."""

    seed: int = 1
    iterations: int = 200
    step_budget: int = DEFAULT_STEP_BUDGET
    canary: bool = True
    minimize: bool = True
    max_corpus: int = 256

    def oracle_config(self) -> OracleConfig:
        return OracleConfig(step_budget=self.step_budget, canary=self.canary)


class CampaignInterrupted(RuntimeError):
    """A campaign stopped at a round boundary before finishing.

    Raised after the in-flight round has fully drained and (when a
    checkpoint directory is configured) a final checkpoint has been
    published — ``checkpoint_path`` names it, so the caller can print a
    resume hint.  The campaign report is intentionally *not* produced:
    a partial report would be indistinguishable from a finished one.
    """

    def __init__(self, round_index: int, remaining: int, checkpoint_path=None):
        self.round_index = round_index
        self.remaining = remaining
        self.checkpoint_path = checkpoint_path
        detail = (
            f"campaign interrupted at round {round_index} with "
            f"{remaining} iteration(s) remaining"
        )
        if checkpoint_path is not None:
            detail += f"; checkpoint written to {checkpoint_path}"
        super().__init__(detail)


class DifferentialFuzzer:
    """The sequential fuzzing core; every data structure is
    deterministic for a fixed seed and iteration count."""

    def __init__(self, config: FuzzConfig, store=None) -> None:
        self.config = config
        #: Optional :class:`repro.regress.RegressionStore`; when set,
        #: :meth:`finalize` records every (minimized) divergence so the
        #: disagreement survives the campaign as a replayable bundle.
        self.store = store
        self.coverage = CoverageMap()
        self.corpus: list = []
        self.promoted: list = []  # inputs promoted *this* session
        self.divergences: dict = {}  # fingerprint → Divergence
        self.families: dict = {}  # family → {"static","dynamic"} reach
        self.execs = 0
        self.invalid = 0
        self.discarded = 0
        self.seeds = 0
        self.batches_failed = 0
        self.iterations_lost = 0
        self.saturations = 0
        self.record_errors = 0  # divergences that failed to persist
        self._seen: set = set()  # every key ever evaluated or enrolled
        self._corpus_keys: set = set()  # keys currently in the corpus
        self._protected = 0  # leading corpus entries exempt from eviction
        self._oracle_config = config.oracle_config()

    # -- corpus ------------------------------------------------------------

    def add_corpus(self, fuzz_input: FuzzInput, protected: bool = False) -> bool:
        """Add an input as mutation material (dedup by content).

        Corpus membership is tracked separately from the evaluated set:
        a mutant whose key is already in ``_seen`` (it was just
        executed) can still be promoted.  When the corpus is saturated,
        the oldest non-protected entry is evicted deterministically so
        the campaign keeps learning — seeds (``protected=True``) are
        never evicted, and the dropped candidate's key still enters
        ``_seen`` so it is not re-evaluated later.
        """
        key = fuzz_input.key()
        if key in self._corpus_keys:
            return False
        self._seen.add(key)
        if len(self.corpus) >= self.config.max_corpus:
            self.saturations += 1
            if self._protected >= len(self.corpus):
                return False  # nothing evictable: the cap is all seeds
            evicted = self.corpus.pop(self._protected)
            self._corpus_keys.discard(evicted.key())
        self._corpus_keys.add(key)
        self.corpus.append(fuzz_input)
        if protected:
            self._protected += 1
        return True

    # -- the loop ----------------------------------------------------------

    def observe(self, fuzz_input: FuzzInput, promote: bool = True):
        """Run both oracles over one input and fold in the outcome."""
        observation = run_oracles(
            fuzz_input.source, fuzz_input.stdin, self._oracle_config
        )
        self.execs += 1
        if fuzz_input.label == "vulnerable":
            reach = self.families.setdefault(
                fuzz_input.family, {"static": False, "dynamic": False}
            )
            reach["static"] = reach["static"] or observation.static.vulnerable
            reach["dynamic"] = reach["dynamic"] or (
                observation.valid and observation.dynamic.vulnerable
            )
        if not observation.valid:
            self.invalid += 1
            return observation
        fresh = self.coverage.observe(coverage_keys(observation))
        if fresh and promote and self.add_corpus(fuzz_input):
            self.promoted.append(fuzz_input)
        div = divergence_from(observation, fuzz_input)
        if div is not None:
            known = self.divergences.get(div.fingerprint)
            if known is None:
                self.divergences[div.fingerprint] = div
            else:
                known.occurrences += 1
        return observation

    def run_seeds(self) -> None:
        """Evaluate and enroll the deterministic seed set."""
        for fuzz_input in seed_inputs(self.config.seed):
            self.add_corpus(fuzz_input, protected=True)
            self.observe(fuzz_input, promote=False)
            self.seeds += 1

    def fuzz(self, rng: random.Random, iterations: int) -> None:
        """``iterations`` mutate-and-observe steps over the live corpus."""
        for _ in range(iterations):
            parent = self.corpus[rng.randrange(len(self.corpus))]
            mutant = mutate(rng, parent)
            if mutant is None or mutant.key() in self._seen:
                self.discarded += 1
                continue
            self._seen.add(mutant.key())
            self.observe(mutant)

    # -- wrap-up -----------------------------------------------------------

    def finalize(self) -> CampaignReport:
        """Minimize, auto-triage, and assemble the campaign report."""
        finished = []
        for fingerprint in sorted(self.divergences):
            div = self.divergences[fingerprint]
            if self.config.minimize:
                smallest = minimize_input(
                    FuzzInput(source=div.source, stdin=div.stdin),
                    same_divergence(div, self._oracle_config),
                )
                div = replace(
                    div,
                    minimized_source=smallest.source,
                    minimized_stdin=smallest.stdin,
                )
            finished.append(auto_triage(div))
        if self.store is not None:
            for div in finished:
                try:
                    self.store.record_divergence(
                        div,
                        self._oracle_config,
                        meta={
                            "seed": self.config.seed,
                            "recorded_by": "fuzz-campaign",
                        },
                    )
                except (OSError, TypeError, ValueError):
                    # One bad disk write must not kill the campaign: the
                    # divergence still reaches the report; only its
                    # regression bundle is lost, and the loss is counted.
                    self.record_errors += 1
        report = CampaignReport(
            seed=self.config.seed,
            iterations=self.config.iterations,
            execs=self.execs,
            invalid=self.invalid,
            seeds=self.seeds,
            mutants_discarded=self.discarded,
            corpus_size=len(self.corpus),
            coverage=self.coverage.sorted_keys(),
            families=self.families,
        )
        report.divergences = finished
        report.batches_failed = self.batches_failed
        report.iterations_lost = self.iterations_lost
        report.corpus_saturated = self.saturations
        # Advisory only, never serialized: record failures depend on the
        # machine's disk, and the report bytes must not.
        report.record_errors = self.record_errors
        return report


# -- the service-worker batch ------------------------------------------------


def batch_rng(seed: int, round_index: int, batch_index: int) -> random.Random:
    """The deterministic RNG for one batch of one campaign."""
    return random.Random(f"fuzz/{seed}/round{round_index}/batch{batch_index}")


def run_batch(payload: dict) -> dict:
    """Worker entry: one batch of iterations against a snapshot.

    The payload carries the campaign seed, the round/batch coordinates,
    the corpus and coverage snapshots, and the oracle knobs; the result
    carries only the *deltas* (new coverage keys, promoted inputs,
    divergences) so the driver can merge batches in submission order.
    """
    config = FuzzConfig(
        seed=payload["seed"],
        iterations=payload["iterations"],
        step_budget=payload.get("step_budget", DEFAULT_STEP_BUDGET),
        canary=payload.get("canary", True),
        max_corpus=payload.get("max_corpus", 256),
    )
    fuzzer = DifferentialFuzzer(config)
    baseline = frozenset(payload.get("coverage", ()))
    fuzzer.coverage = CoverageMap(baseline)
    protected = payload.get("protected", 0)
    for index, entry in enumerate(payload.get("corpus", ())):
        source, stdin, family, label = entry
        fuzzer.add_corpus(
            FuzzInput(
                source=source, stdin=tuple(stdin), family=family, label=label
            ),
            # The driver's seed prefix stays immortal inside the batch
            # too; driver-promoted entries may be evicted locally when
            # the batch saturates, exactly as they may be in the driver.
            protected=index < protected,
        )
    rng = batch_rng(payload["seed"], payload["round"], payload["batch"])
    fuzzer.fuzz(rng, payload["iterations"])
    return {
        "execs": fuzzer.execs,
        "invalid": fuzzer.invalid,
        "discarded": fuzzer.discarded,
        "saturations": fuzzer.saturations,
        "new_coverage": sorted(
            key for key in fuzzer.coverage.sorted_keys() if key not in baseline
        ),
        "new_inputs": [
            [inp.source, list(inp.stdin), inp.family, inp.label]
            for inp in fuzzer.promoted
        ],
        "divergences": [
            fuzzer.divergences[f].to_dict()
            for f in sorted(fuzzer.divergences)
        ],
    }


# -- the campaign driver -----------------------------------------------------

#: Batches submitted per round.  A fixed constant — never derived from
#: the pool size — so the batch partition, the per-batch RNG streams,
#: and therefore the report bytes are identical for any worker count.
BATCHES_PER_ROUND = 4


def _merge_batch(fuzzer: DifferentialFuzzer, result: dict) -> None:
    fuzzer.execs += result["execs"]
    fuzzer.invalid += result["invalid"]
    fuzzer.discarded += result["discarded"]
    fuzzer.saturations += result.get("saturations", 0)
    fuzzer.coverage.observe(result["new_coverage"])
    for source, stdin, family, label in result["new_inputs"]:
        fuzzer.add_corpus(
            FuzzInput(
                source=source, stdin=tuple(stdin), family=family, label=label
            )
        )
    for entry in result["divergences"]:
        div = Divergence.from_dict(entry)
        known = fuzzer.divergences.get(div.fingerprint)
        if known is None:
            fuzzer.divergences[div.fingerprint] = div
        else:
            known.occurrences += div.occurrences


def _save_checkpoint(
    checkpoints, fuzzer, batch_size: int, round_index: int, remaining: int
):
    """Publish one round-boundary checkpoint (no-op without a store)."""
    if checkpoints is None:
        return None
    return checkpoints.save(
        checkpoint_from_fuzzer(
            fuzzer,
            batch_size=batch_size,
            round_index=round_index,
            remaining=remaining,
        )
    )


def run_campaign(
    config: FuzzConfig,
    pool=None,
    batch_size: int = 50,
    batch_timeout: float = 120.0,
    store=None,
    checkpoint_dir=None,
    resume: bool = False,
    skip_version_check: bool = False,
    stop_event=None,
    stop_after_rounds=None,
) -> CampaignReport:
    """Run a whole campaign as deterministic rounds of batches.

    Sequential (``pool=None``) and fanned-out campaigns make the *same*
    :func:`run_batch` calls — the only difference is whether they run
    inline or over the worker ``pool`` — so the report is
    byte-identical at any worker count,
    including zero.  On the pool, a batch that fails or outlives
    ``batch_timeout`` is counted in ``iterations_lost``.  With ``store`` (a
    :class:`repro.regress.RegressionStore`) every minimized divergence
    is recorded as a replayable regression bundle.

    ``checkpoint_dir`` persists a resumable checkpoint after the seed
    pass and after every completed round; ``resume=True`` continues
    from the newest loadable checkpoint there instead of starting over
    (the checkpoint's config and batch size win over the arguments —
    anything else would fork the deterministic batch partition).  A
    checkpoint recorded under different oracle versions is refused
    unless ``skip_version_check``.

    A graceful stop — ``stop_event`` set, or ``stop_after_rounds``
    completed rounds in this invocation — drains the in-flight round,
    writes a final checkpoint, and raises :class:`CampaignInterrupted`.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, not {batch_size}")
    checkpoints = (
        CheckpointStore(checkpoint_dir) if checkpoint_dir is not None else None
    )
    if resume:
        if checkpoints is None:
            raise CheckpointError("resume requires a checkpoint directory")
        checkpoint = checkpoints.latest()
        if checkpoint is None:
            raise CheckpointError(
                f"no usable checkpoint under {checkpoints.directory}"
            )
        stale = checkpoint.stale_versions()
        if stale and not skip_version_check:
            detail = ", ".join(
                f"{key}: {recorded!r} -> {live!r}"
                for key, (recorded, live) in sorted(stale.items())
            )
            raise CheckpointError(
                f"checkpoint was recorded under different oracle versions "
                f"({detail}); restart the campaign or skip the version check"
            )
        fuzzer = restore_fuzzer(checkpoint, store=store)
        config = fuzzer.config
        batch_size = checkpoint.batch_size
        round_index = checkpoint.round_index
        remaining = checkpoint.remaining
    else:
        fuzzer = DifferentialFuzzer(config, store=store)
        fuzzer.run_seeds()
        round_index, remaining = 0, config.iterations
        # The post-seed baseline: even a kill during round 0 resumes
        # without re-running the seed pass.
        _save_checkpoint(checkpoints, fuzzer, batch_size, round_index, remaining)

    from ..service.workers import JobFailed, run_jobs

    rounds_done = 0
    while remaining > 0:
        if (stop_event is not None and stop_event.is_set()) or (
            stop_after_rounds is not None and rounds_done >= stop_after_rounds
        ):
            path = _save_checkpoint(
                checkpoints, fuzzer, batch_size, round_index, remaining
            )
            raise CampaignInterrupted(round_index, remaining, path)
        corpus_snapshot = tuple(
            (inp.source, inp.stdin, inp.family, inp.label)
            for inp in fuzzer.corpus
        )
        coverage_snapshot = fuzzer.coverage.sorted_keys()
        batches = []
        for batch_index in range(BATCHES_PER_ROUND):
            if remaining <= 0:
                break
            size = min(batch_size, remaining)
            remaining -= size
            batches.append(
                {
                    "seed": config.seed,
                    "round": round_index,
                    "batch": batch_index,
                    "iterations": size,
                    "corpus": corpus_snapshot,
                    "coverage": coverage_snapshot,
                    "protected": fuzzer._protected,
                    "step_budget": config.step_budget,
                    "canary": config.canary,
                    "max_corpus": config.max_corpus,
                }
            )
        arguments = [(batch,) for batch in batches]
        handles = run_jobs(run_batch, arguments, pool, batch_timeout)
        for batch, handle in zip(batches, handles):
            try:
                _merge_batch(fuzzer, handle.result())
            except JobFailed:
                # The batch's iterations are gone, not silently
                # absorbed: the report carries the shortfall so
                # "N iterations" claims stay honest.
                fuzzer.batches_failed += 1
                fuzzer.iterations_lost += batch["iterations"]
        round_index += 1
        rounds_done += 1
        _save_checkpoint(checkpoints, fuzzer, batch_size, round_index, remaining)
    return fuzzer.finalize()

"""Deterministic replay of a regression store against the live oracles.

Every bundle is re-run through :func:`repro.fuzz.run_oracles` under its
recorded :class:`~repro.fuzz.OracleConfig` and the outcome is compared
field by field with the recorded expectation.  A replay result is one
of:

``ok``
    Versions match and the oracles reproduced the recorded kind,
    fingerprint, rule set, event set, and (auto-)triage class.
``stale-version``
    The bundle was recorded under different detector / legacy-rule /
    event-vocabulary / triage-rule versions.  Stale is a *failure*, not
    a skip: an intentional version bump must go through ``repro-regress
    rebaseline`` so the corpus explicitly re-asserts its expectations.
``verdict-drift``
    The divergence kind, fingerprint, static rules, or normalized
    dynamic events changed — the exact regression class this store
    exists to catch.
``triage-drift``
    The verdicts still match but the auto-triage classification moved
    (a triaged-benign divergence went un-triaged, or changed class).
``invalid-run``
    The harness can no longer judge the input at all (parse error,
    no runnable entry) although the bundle expected a judged outcome.

Results are ordered by bundle id everywhere, so a replay report is
byte-identical no matter how the work was scheduled — sequentially or
fanned out over any number of service workers.
"""

from __future__ import annotations

import json
from typing import Optional

from .._record import field, record
from ..fuzz.divergence import (
    Divergence,
    auto_triage,
    fingerprint_of,
    normalized_events,
)
from ..fuzz.oracles import run_oracles
from .store import (
    RegressionBundle,
    RegressionStore,
    current_versions,
    triage_label,
)

#: Replay-report schema revision.
REPLAY_SCHEMA = 1


@record
class ReplayResult:
    """The judgment on one replayed bundle."""

    bundle_id: str
    status: str  # ok | stale-version | verdict-drift | triage-drift | invalid-run
    expected: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)
    detail: str = ""
    family: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        return {
            "bundle_id": self.bundle_id,
            "status": self.status,
            "expected": self.expected,
            "observed": self.observed,
            "detail": self.detail,
            "family": self.family,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReplayResult":
        return cls(
            bundle_id=data["bundle_id"],
            status=data["status"],
            expected=dict(data.get("expected", {})),
            observed=dict(data.get("observed", {})),
            detail=data.get("detail", ""),
            family=data.get("family", ""),
        )


def _expected_view(bundle: RegressionBundle) -> dict:
    return {
        "kind": bundle.expected_kind,
        "fingerprint": bundle.expected_fingerprint,
        "static_rules": list(bundle.expected_rules),
        "dynamic_events": list(bundle.expected_events),
        "triage": triage_label(bundle.triage),
    }


def replay_bundle(
    bundle: RegressionBundle, check_versions: bool = True
) -> ReplayResult:
    """Re-run one bundle and judge it against its expectations."""
    expected = _expected_view(bundle)
    if check_versions:
        live = current_versions()
        stale = sorted(
            key
            for key in set(live) | set(bundle.versions)
            if live.get(key) != bundle.versions.get(key)
        )
        if stale:
            drifts = ", ".join(
                f"{key}: recorded {bundle.versions.get(key)!r} != "
                f"current {live.get(key)!r}"
                for key in stale
            )
            return ReplayResult(
                bundle_id=bundle.bundle_id,
                status="stale-version",
                expected=expected,
                observed={"versions": live},
                detail=f"recorded under different versions ({drifts}); "
                "run 'repro-regress rebaseline' to re-assert expectations",
                family=bundle.family,
            )

    observation = run_oracles(
        bundle.source, bundle.stdin, bundle.oracle_config()
    )
    if not observation.valid:
        observed = {"kind": "invalid", "reason": observation.dynamic.reason}
        if bundle.expected_kind == "invalid":
            return ReplayResult(
                bundle_id=bundle.bundle_id,
                status="ok",
                expected=expected,
                observed=observed,
                family=bundle.family,
            )
        return ReplayResult(
            bundle_id=bundle.bundle_id,
            status="invalid-run",
            expected=expected,
            observed=observed,
            detail=f"harness cannot judge the input anymore: "
            f"{observation.dynamic.reason}",
            family=bundle.family,
        )

    kind = observation.divergence_kind or "agree"
    events = normalized_events(observation.dynamic.events)
    rules = tuple(observation.static.rules)
    fingerprint = (
        fingerprint_of(kind, rules, events)
        if kind in ("static-only", "dynamic-only")
        else ""
    )
    triage = ""
    if kind in ("static-only", "dynamic-only"):
        triage = triage_label(
            auto_triage(
                Divergence(
                    fingerprint=fingerprint,
                    kind=kind,
                    static_rules=rules,
                    dynamic_events=events,
                    family=bundle.family,
                    entry=observation.entry,
                    source=bundle.source,
                    stdin=bundle.stdin,
                )
            ).triage
        )
    observed = {
        "kind": kind,
        "fingerprint": fingerprint,
        "static_rules": list(rules),
        "dynamic_events": list(events),
        "triage": triage,
    }

    mismatches = [
        name
        for name in ("kind", "fingerprint", "static_rules", "dynamic_events")
        if expected[name] != observed[name]
    ]
    if mismatches:
        return ReplayResult(
            bundle_id=bundle.bundle_id,
            status="verdict-drift",
            expected=expected,
            observed=observed,
            detail="changed: " + ", ".join(mismatches),
            family=bundle.family,
        )
    # Manual triage is sticky: a human judgment cannot be recomputed,
    # so with matching verdicts the recorded label stands.
    if expected["triage"] != "manual" and expected["triage"] != observed["triage"]:
        return ReplayResult(
            bundle_id=bundle.bundle_id,
            status="triage-drift",
            expected=expected,
            observed=observed,
            detail=f"auto-triage moved from "
            f"{expected['triage'] or 'open'!r} to "
            f"{observed['triage'] or 'open'!r}",
            family=bundle.family,
        )
    return ReplayResult(
        bundle_id=bundle.bundle_id,
        status="ok",
        expected=expected,
        observed=observed,
        family=bundle.family,
    )


def replay_bundle_json(document: str, check_versions: bool = True) -> dict:
    """Worker-friendly wrapper: canonical bundle JSON in, result dict out."""
    try:
        bundle = RegressionBundle.from_json(document)
    except ValueError as error:
        data = {}
        try:
            data = json.loads(document)
        except ValueError:
            pass
        return ReplayResult(
            bundle_id=str(data.get("id", "?")) if isinstance(data, dict) else "?",
            status="invalid-run",
            detail=f"unreadable bundle: {error}",
        ).to_dict()
    return replay_bundle(bundle, check_versions=check_versions).to_dict()


def replay_chunk(documents, check_versions: bool = True) -> list:
    """One chunk of a pooled replay: a result dict per bundle document.

    The bundles travel as canonical JSON, so this never touches the
    store directory — pure, and safe on the process backend.
    """
    return [
        replay_bundle_json(document, check_versions=check_versions)
        for document in documents
    ]


@record
class DriftReport:
    """Aggregated replay outcome over one store."""

    results: list = field(default_factory=list)
    versions: dict = field(default_factory=current_versions)

    @property
    def drifted(self) -> list:
        return [result for result in self.results if not result.ok]

    @property
    def clean(self) -> bool:
        return not self.drifted

    def sorted_results(self) -> list:
        return sorted(self.results, key=lambda r: r.bundle_id)

    def counts(self) -> dict:
        tally: dict = {}
        for result in self.results:
            tally[result.status] = tally.get(result.status, 0) + 1
        return dict(sorted(tally.items()))

    def to_dict(self) -> dict:
        return {
            "schema": REPLAY_SCHEMA,
            "versions": dict(sorted(self.versions.items())),
            "bundles": len(self.results),
            "counts": self.counts(),
            "clean": self.clean,
            "results": [result.to_dict() for result in self.sorted_results()],
        }

    def to_json(self) -> str:
        """Canonical byte-stable encoding (the CI drift artifact)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render(self) -> str:
        """Human-readable summary for the CLI."""
        counts = self.counts()
        lines = [
            f"replayed {len(self.results)} bundle(s): "
            + (
                ", ".join(f"{count} {status}" for status, count in counts.items())
                or "store is empty"
            )
        ]
        for result in self.sorted_results():
            if result.ok:
                continue
            lines.append(
                f"  [{result.status}] {result.bundle_id}"
                + (f" (family {result.family})" if result.family else "")
            )
            if result.detail:
                lines.append(f"      {result.detail}")
        if self.clean and self.results:
            lines.append("no drift: every recorded verdict reproduced")
        return "\n".join(lines)


#: Per-job deadline when a replay fans out over a worker pool.
REPLAY_TIMEOUT = 300.0


def replay_store(
    store,
    check_versions: bool = True,
    bundle_ids: Optional[list] = None,
    chunk_size: int = 8,
    pool=None,
) -> DriftReport:
    """Replay a store (or a subset of its bundle ids) in bundle-id order.

    ``store`` is a :class:`RegressionStore` or a directory path.
    Bundles travel in chunks of ``chunk_size`` to :func:`replay_chunk`,
    run inline (``pool=None``) or over ``pool``; results merge
    in chunk order, so the report is byte-identical for any worker
    count.  A chunk that fails or times out on the pool marks each of
    its bundles ``invalid-run`` rather than dropping them — a replay
    gate must never lose bundles.
    """
    from ..service.workers import JobFailed, run_jobs

    if not isinstance(store, RegressionStore):
        store = RegressionStore(store, create=False)
    documents = [
        store.load(bundle_id).to_json()
        for bundle_id in (bundle_ids if bundle_ids is not None else store.ids())
    ]
    chunk_size = max(1, chunk_size)
    chunks = [
        tuple(documents[start : start + chunk_size])
        for start in range(0, len(documents), chunk_size)
    ]
    arguments = [(chunk, check_versions) for chunk in chunks]
    report = DriftReport()
    handles = run_jobs(replay_chunk, arguments, pool, REPLAY_TIMEOUT)
    for chunk, handle in zip(chunks, handles):
        try:
            results = handle.result()
        except JobFailed as error:
            results = [
                {
                    "bundle_id": json.loads(document).get("id", "?"),
                    "status": "invalid-run",
                    "detail": f"replay chunk failed: {error}",
                }
                for document in chunk
            ]
        report.results.extend(ReplayResult.from_dict(entry) for entry in results)
    return report


def rebaseline_store(
    store: RegressionStore, bundle_ids: Optional[list] = None
) -> dict:
    """Re-run every bundle and rewrite its expectations and versions.

    Returns ``{"updated": [...], "unchanged": [...], "failed": {id:
    reason}}``.  A bundle whose run the harness can no longer judge is
    *failed*, never silently rewritten — delete it or fix the harness.
    Every bundle is loaded first, so an unknown id or an unreadable file
    raises before anything is rewritten.
    """
    from .store import bundle_from_observation

    updated: list = []
    unchanged: list = []
    failed: dict = {}
    named = [
        (bundle_id, store.load(bundle_id))
        for bundle_id in (bundle_ids if bundle_ids is not None else store.ids())
    ]
    for bundle_id, bundle in named:
        observation = run_oracles(
            bundle.source, bundle.stdin, bundle.oracle_config()
        )
        if not observation.valid and bundle.expected_kind != "invalid":
            failed[bundle_id] = (
                f"harness cannot judge the input: {observation.dynamic.reason}"
            )
            continue
        triage = bundle.triage
        if observation.valid and observation.divergence_kind is not None:
            fresh = auto_triage(
                Divergence(
                    fingerprint="",
                    kind=observation.divergence_kind,
                    static_rules=tuple(observation.static.rules),
                    dynamic_events=normalized_events(
                        observation.dynamic.events
                    ),
                    family=bundle.family,
                    entry=observation.entry,
                    source=bundle.source,
                    stdin=bundle.stdin,
                )
            ).triage
            # manual notes survive a rebaseline; auto labels refresh
            if not triage_label(bundle.triage) == "manual":
                triage = fresh
        rebased = bundle_from_observation(
            bundle.source,
            bundle.stdin,
            bundle.oracle_config(),
            observation,
            triage=triage,
            meta=bundle.meta,
        )
        rebased.family = bundle.family
        _, disposition = store.record(rebased, overwrite=True)
        (unchanged if disposition == "unchanged" else updated).append(bundle_id)
    return {"updated": updated, "unchanged": unchanged, "failed": failed}

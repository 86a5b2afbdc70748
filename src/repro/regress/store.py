"""The regression store: durable, replayable oracle disagreements.

A campaign's minimized divergence — or a deliberately recorded
agreement — lives here as one self-contained JSON *bundle*: the MiniC++
source, its scripted stdin, the :class:`~repro.fuzz.OracleConfig` knobs
it ran under, the expected static/dynamic verdicts, the triage label,
and the detector/rule/event-vocabulary versions current at recording
time.  Bundles are **content-addressed by their replay identity**
(source + stdin + oracle knobs): re-recording the same input updates
expectations in place instead of accumulating duplicates, and renaming
a file breaks the address check that :meth:`RegressionStore.gc` (and
the replay harness) enforce.

Version awareness is the load-bearing half: every bundle pins the
versions it was judged under, and :func:`current_versions` recomputes
them from the live code.  A replay over a bundle whose versions no
longer match is *stale*, never silently green — an intentional
``DETECTOR_VERSION`` bump demands an explicit ``repro-regress
rebaseline`` (see docs/REGRESSION.md).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

from .._record import field, record
from ..fileio import atomic_write_text, canonical_json
from ..fuzz.vocabulary import DEFAULT_STEP_BUDGET, TRIAGE_LABELS, VULNERABLE_EVENTS

if TYPE_CHECKING:
    from ..fuzz.divergence import Divergence
    from ..fuzz.oracles import Observation, OracleConfig

#: Bundle document schema revision.
BUNDLE_SCHEMA = 1

#: The expected-outcome kinds a bundle may record.
BUNDLE_KINDS = ("static-only", "dynamic-only", "agree", "invalid")


def current_versions() -> dict:
    """The version fingerprint of everything that can move a verdict.

    * ``detector`` / ``legacy_rules`` — the analysis revisions that
      already key the result caches;
    * ``event_vocabulary`` — a digest of the dynamic oracle's
      vulnerability-relevant event kinds, so adding or renaming an
      event kind invalidates recorded dynamic expectations;
    * ``triage_rules`` — a digest of the auto-triage rule labels, so a
      new or renamed triage class cannot silently re-label a corpus.
    """
    from ..analysis import DETECTOR_VERSION, LEGACY_RULE_VERSION

    vocabulary = hashlib.sha256(
        ",".join(sorted(VULNERABLE_EVENTS)).encode()
    ).hexdigest()[:12]
    triage = hashlib.sha256(
        "|".join(TRIAGE_LABELS).encode()
    ).hexdigest()[:12]
    return {
        "detector": DETECTOR_VERSION,
        "legacy_rules": LEGACY_RULE_VERSION,
        "event_vocabulary": vocabulary,
        "triage_rules": triage,
    }


def triage_label(triage: str) -> str:
    """The comparable head of a triage note (``"taint-quantifier"``,
    ``"manual"``, or ``""`` for an open divergence)."""
    return triage.split(":", 1)[0].strip() if triage else ""


@record
class RegressionBundle:
    """One recorded input with its expected oracle outcome."""

    source: str
    stdin: tuple = ()
    step_budget: int = DEFAULT_STEP_BUDGET
    canary: bool = True
    expected_kind: str = "agree"  # one of BUNDLE_KINDS
    expected_fingerprint: str = ""
    expected_rules: tuple = ()
    expected_events: tuple = ()  # normalized (see fuzz.divergence)
    triage: str = ""  # recorded triage note; "" = open divergence
    versions: dict = field(default_factory=current_versions)
    family: str = ""
    entry: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def bundle_id(self) -> str:
        """Content address over the replay identity only — the inputs,
        never the expectations, so a rebaseline updates in place."""
        digest = hashlib.sha256(
            canonical_json(
                {
                    "source": self.source,
                    "stdin": list(self.stdin),
                    "step_budget": self.step_budget,
                    "canary": self.canary,
                }
            ).encode()
        ).hexdigest()
        return f"rb-{digest[:20]}"

    def oracle_config(self) -> OracleConfig:
        from ..fuzz import oracles

        return oracles.OracleConfig(step_budget=self.step_budget, canary=self.canary)

    @property
    def status(self) -> str:
        if self.expected_kind == "agree":
            return "agree"
        return "known-benign" if self.triage else "open"

    def to_dict(self) -> dict:
        return {
            "schema": BUNDLE_SCHEMA,
            "id": self.bundle_id,
            "source": self.source,
            "stdin": list(self.stdin),
            "config": {
                "step_budget": self.step_budget,
                "canary": self.canary,
            },
            "expected": {
                "kind": self.expected_kind,
                "fingerprint": self.expected_fingerprint,
                "static_rules": list(self.expected_rules),
                "dynamic_events": list(self.expected_events),
                "triage": self.triage,
                "status": self.status,
            },
            "versions": dict(sorted(self.versions.items())),
            "family": self.family,
            "entry": self.entry,
            "meta": {str(k): self.meta[k] for k in sorted(self.meta)},
        }

    def to_json(self) -> str:
        """The canonical on-disk document (sorted, trailing newline)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "RegressionBundle":
        if data.get("schema") != BUNDLE_SCHEMA:
            raise ValueError(
                f"unsupported bundle schema {data.get('schema')!r} "
                f"(this build reads schema {BUNDLE_SCHEMA})"
            )
        config = data.get("config", {})
        expected = data.get("expected", {})
        kind = expected.get("kind", "agree")
        if kind not in BUNDLE_KINDS:
            raise ValueError(f"unknown expected kind {kind!r}")
        return cls(
            source=data["source"],
            stdin=tuple(data.get("stdin", ())),
            step_budget=config.get("step_budget", DEFAULT_STEP_BUDGET),
            canary=config.get("canary", True),
            expected_kind=kind,
            expected_fingerprint=expected.get("fingerprint", ""),
            expected_rules=tuple(expected.get("static_rules", ())),
            expected_events=tuple(expected.get("dynamic_events", ())),
            triage=expected.get("triage", ""),
            versions=dict(data.get("versions", {})),
            family=data.get("family", ""),
            entry=data.get("entry", ""),
            meta=dict(data.get("meta", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "RegressionBundle":
        return cls.from_dict(json.loads(text))


def bundle_from_divergence(
    div: Divergence, config: OracleConfig, meta: Optional[dict] = None
) -> RegressionBundle:
    """A bundle capturing one (preferably minimized) divergence."""
    if div.minimized_source:
        source, stdin = div.minimized_source, tuple(div.minimized_stdin)
    else:
        source, stdin = div.source, tuple(div.stdin)
    return RegressionBundle(
        source=source,
        stdin=stdin,
        step_budget=config.step_budget,
        canary=config.canary,
        expected_kind=div.kind,
        expected_fingerprint=div.fingerprint,
        expected_rules=tuple(div.static_rules),
        expected_events=tuple(div.dynamic_events),
        triage=div.triage,
        family=div.family,
        entry=div.entry,
        meta=dict(meta or {}),
    )


def bundle_from_observation(
    source: str,
    stdin: tuple,
    config: OracleConfig,
    observation: Observation,
    triage: str = "",
    meta: Optional[dict] = None,
) -> RegressionBundle:
    """A bundle pinning whatever the oracles currently say about one
    input — a divergence, an agreement, or (rarely) an invalid run."""
    from ..fuzz import divergence

    if not observation.valid:
        kind = "invalid"
        events: tuple = ()
    else:
        kind = observation.divergence_kind or "agree"
        events = divergence.normalized_events(observation.dynamic.events)
    fingerprint = ""
    if kind in ("static-only", "dynamic-only"):
        fingerprint = divergence.fingerprint_of(kind, observation.static.rules, events)
        if not triage:
            # Pin the auto-triage class too: replay recomputes it, and a
            # bundle recorded "open" would drift on its very first replay.
            triage = divergence.auto_triage(
                divergence.Divergence(
                    fingerprint=fingerprint,
                    kind=kind,
                    static_rules=tuple(observation.static.rules),
                    dynamic_events=events,
                    family="",
                    entry=observation.entry,
                    source=source,
                    stdin=tuple(stdin),
                )
            ).triage
    return RegressionBundle(
        source=source,
        stdin=tuple(stdin),
        step_budget=config.step_budget,
        canary=config.canary,
        expected_kind=kind,
        expected_fingerprint=fingerprint,
        expected_rules=tuple(observation.static.rules),
        expected_events=events,
        triage=triage,
        entry=observation.entry,
        meta=dict(meta or {}),
    )


class RegressionStore:
    """A directory of content-addressed regression bundles.

    One ``<bundle id>.json`` per bundle; ids are derived from the
    bundle's replay identity, so the store is append-mostly and
    naturally deduplicating.  All listing APIs are sorted by id —
    every consumer (replay, diff, the service fan-out) sees the same
    deterministic order.
    """

    def __init__(self, directory, create: bool = True):
        self.directory = Path(directory)
        if create:
            self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, bundle_id: str) -> Path:
        return self.directory / f"{bundle_id}.json"

    # -- writing -----------------------------------------------------------

    def record(
        self, bundle: RegressionBundle, overwrite: bool = False
    ) -> tuple:
        """Persist ``bundle``; returns ``(id, disposition)``.

        Dispositions: ``"created"`` (new id), ``"unchanged"`` (identical
        document already on disk), ``"kept"`` (same id, different
        expectations, ``overwrite=False`` — the recorded triage/baseline
        wins over an auto-recorder), ``"updated"`` (``overwrite=True``).
        """
        bundle_id = bundle.bundle_id
        path = self.path_for(bundle_id)
        document = bundle.to_json()
        if path.is_file():
            existing = path.read_text()
            if existing == document:
                return bundle_id, "unchanged"
            if not overwrite:
                return bundle_id, "kept"
            atomic_write_text(path, document)
            return bundle_id, "updated"
        atomic_write_text(path, document)
        return bundle_id, "created"

    def record_divergence(
        self,
        div: Divergence,
        config: OracleConfig,
        meta: Optional[dict] = None,
        overwrite: bool = False,
    ) -> tuple:
        """Record one fuzz divergence (minimized form when available)."""
        return self.record(
            bundle_from_divergence(div, config, meta=meta), overwrite=overwrite
        )

    def record_report(
        self, report, config: OracleConfig, meta: Optional[dict] = None
    ) -> dict:
        """Record every divergence of a campaign report; returns the
        disposition tally (``{"created": n, "unchanged": m, ...}``)."""
        tally: dict = {}
        for div in report.sorted_divergences():
            _, disposition = self.record_divergence(div, config, meta=meta)
            tally[disposition] = tally.get(disposition, 0) + 1
        return tally

    def remove(self, bundle_id: str) -> bool:
        path = self.path_for(bundle_id)
        if not path.is_file():
            return False
        path.unlink()
        return True

    # -- reading -----------------------------------------------------------

    def ids(self) -> list:
        return sorted(path.stem for path in self.directory.glob("rb-*.json"))

    def load(self, bundle_id: str) -> RegressionBundle:
        return RegressionBundle.from_json(self.path_for(bundle_id).read_text())

    def bundles(self) -> Iterator[RegressionBundle]:
        for bundle_id in self.ids():
            yield self.load(bundle_id)

    def __len__(self) -> int:
        return len(self.ids())

    # -- maintenance -------------------------------------------------------

    def gc(self, dry_run: bool = False) -> dict:
        """Sweep the store: drop documents that cannot be replayed.

        Removes files that are not valid bundle JSON, whose recorded
        ``id`` does not match their recomputed content address (tampered
        or hand-edited inputs), or whose filename does not match their
        id (renamed files).  Stray ``*.tmp`` files — partial writes
        orphaned by a crash before their atomic rename — are swept too.
        Returns ``{"scanned", "kept", "removed"}`` where ``removed``
        maps file name → reason.
        """
        removed: dict = {}
        kept = 0
        scanned = 0
        for path in sorted(self.directory.glob("*.tmp")):
            scanned += 1
            removed[path.name] = "orphaned partial write"
            if not dry_run:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass
        for path in sorted(self.directory.glob("*.json")):
            scanned += 1
            try:
                bundle = RegressionBundle.from_json(path.read_text())
            except (ValueError, KeyError) as error:
                removed[path.name] = f"unreadable: {error}"
            else:
                if path.stem != bundle.bundle_id:
                    removed[path.name] = (
                        f"address mismatch: content hashes to "
                        f"{bundle.bundle_id}"
                    )
                else:
                    kept += 1
                    continue
            if not dry_run:
                path.unlink()
        return {"scanned": scanned, "kept": kept, "removed": removed}

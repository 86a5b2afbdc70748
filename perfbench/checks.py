"""Output checks: each returns the list of problems with one report
(empty when the report is correct).  Any problem fails the run."""

from __future__ import annotations

import hashlib
import json

#: The generator's seed families; each family's vulnerable twin must be
#: reached by both oracles in every campaign (generator ground truth).
GENERATOR_FAMILIES = (
    "direct",
    "dos-loop",
    "guarded",
    "helper",
    "leak",
    "taint-source",
    "tainted-array",
)

#: The paper's section 4.4 loop-bound DoS family: its twin spins to the
#: step budget, which the dynamic oracle reports as ``dos-timeout`` and
#: the matrix as a crash.
DOS_FAMILY = "dos-loop"


def digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _load(raw: bytes, problems: list):
    try:
        report = json.loads(raw)
    except ValueError as error:
        problems.append(f"report is not JSON: {error}")
        return None
    if not isinstance(report, dict):
        problems.append("report is not a JSON object")
        return None
    return report


def _digest_problems(raw: bytes, expected) -> list:
    if expected and digest(raw) != expected:
        return [f"report bytes differ from the recorded digest {expected[:12]}"]
    return []


def fuzz_problems(raw: bytes, seed: int, expected_digest=None) -> list:
    """A ``repro-fuzz run`` report against generator ground truth.

    Un-triaged divergences are findings, not wrong output: some seeds
    find a real detector gap (a ``readFile`` past a pool that is only
    partly cleared before it is stored), so they do not fail the run.
    """
    problems: list = []
    report = _load(raw, problems)
    if report is None:
        return problems
    if report.get("seed") != seed:
        problems.append(f"report seed {report.get('seed')} is not {seed}")
    families = report.get("families") or {}
    for family in GENERATOR_FAMILIES:
        reach = families.get(family) or {}
        if not (reach.get("static") and reach.get("dynamic")):
            problems.append(f"family {family} not reached by both oracles")
    if "event:dos-timeout" not in (report.get("coverage") or ()):
        problems.append(f"the {DOS_FAMILY} family never reached dos-timeout")
    return problems + _digest_problems(raw, expected_digest)


def matrix_problems(raw: bytes, seed: int, baseline_raw: bytes) -> list:
    """A ``repro-matrix run`` report against the committed baseline.

    Gallery and regression rows do not depend on the seed and must match
    the baseline cell for cell.  Seed rows are the generator's twins for
    this seed: unprotected, every twin's attack wins except the DoS
    twin, which exhausts the step budget and crashes.  At the
    baseline's own seed (1) the report must be byte-identical.
    """
    problems: list = []
    report = _load(raw, problems)
    baseline = json.loads(baseline_raw)
    if report is None:
        return problems
    defenses = baseline["defenses"]
    if report.get("defenses") != defenses:
        problems.append(f"defense roster {report.get('defenses')} is not {defenses}")
    expected = {
        (row["kind"], row["id"]): row["cells"]
        for row in baseline["rows"]
        if row["kind"] != "seed"
    }
    seen = set()
    seed_families = []
    for row in report.get("rows") or ():
        key = (row.get("kind"), row.get("id"))
        cells = row.get("cells") or {}
        if sorted(cells) != sorted(defenses):
            problems.append(f"{key[0]}:{key[1]} lacks a cell for some defense")
        if key[0] == "seed":
            seed_families.append(key[1])
            want = "crashed" if key[1] == DOS_FAMILY else "ATTACK-WINS"
            if cells.get("none") != want:
                problems.append(
                    f"seed:{key[1]} unprotected is {cells.get('none')}, not {want}"
                )
            continue
        seen.add(key)
        if key not in expected:
            problems.append(f"{key[0]}:{key[1]} is not in the baseline")
        elif cells != expected[key]:
            drift = sorted(
                name for name in defenses if cells.get(name) != expected[key].get(name)
            )
            problems.append(f"{key[0]}:{key[1]} differs from the baseline under {drift}")
    for key in sorted(set(expected) - seen):
        problems.append(f"{key[0]}:{key[1]} is missing")
    if sorted(seed_families) != sorted(GENERATOR_FAMILIES):
        problems.append(f"seed rows {sorted(seed_families)} are not the generator families")
    if seed == 1 and raw != baseline_raw:
        problems.append("the seed-1 report is not byte-identical to the baseline")
    return problems


def score_problems(raw: bytes, names, expected_digest=None) -> list:
    """A ``repro-score rank --json`` report over the generated packages."""
    problems: list = []
    report = _load(raw, problems)
    if report is None:
        return problems
    names = sorted(names)
    totals = report.get("totals") or {}
    if totals.get("packages") != len(names):
        problems.append(f"totals cover {totals.get('packages')} of {len(names)} packages")
    scored = sorted(entry.get("name") for entry in report.get("packages") or ())
    if scored != names:
        problems.append(f"{len(set(names) - set(scored))} package(s) unscored")
    if sorted(report.get("ranking") or ()) != names:
        problems.append("the ranking does not cover every package")
    return problems + _digest_problems(raw, expected_digest)


def scored_count(raw: bytes) -> int:
    """Packages a score report covers, 0 when it cannot be read."""
    try:
        return len(json.loads(raw).get("packages") or ())
    except (ValueError, AttributeError):
        return 0

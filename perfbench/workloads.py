"""The three workloads: the CLI invocation each runs, the input it
generates, and how its output is judged.

Every invocation is one user-facing command: ``repro-fuzz run``,
``repro-matrix run`` or ``repro-score rank``, called through its
``repro.cli`` entry function in a fresh interpreter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import checks

#: Service workers for the commands that fan out (thread backend).
JOBS = 2

#: Fuzz iterations per campaign (one round of four 50-iteration batches).
FUZZ_ITERATIONS = 200

#: Packages per generated score corpus: its distinct sources exceed the
#: program's 256-entry analysis LRU, so the cache hit ratio is live.
SCORE_PACKAGES = 3000


@dataclass
class Outcome:
    """What one invocation did, as its output shows."""

    items: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


class Workload:
    name = ""
    entry = ""
    #: ``(module, function)`` whose first call ends set-up.
    first_unit = ("", "")
    #: Nominal seconds of one untraced invocation, input generation
    #: included, on a 2-cpu x86-64 host running CPython 3.11; sets how
    #: many invocations a run of a given length makes.
    cycle_s = 1.0

    def prepare(self, bench, seed: int, work: Path) -> list:
        """Generate the inputs (untimed) and return the command's argv."""
        raise NotImplementedError

    def judge(self, bench, seed: int, work: Path, code: int) -> Outcome:
        raise NotImplementedError


class Fuzz(Workload):
    name = "fuzz"
    entry = "fuzz_main"
    first_unit = ("repro.fuzz.oracles", "run_oracles")
    cycle_s = 4.5

    def prepare(self, bench, seed, work):
        return [
            "run", "--seed", str(seed), "--iterations", str(FUZZ_ITERATIONS),
            "--jobs", str(JOBS), "--checkpoint-dir", str(work / "checkpoints"),
            "--out", str(work / "report.json"),
        ]

    def judge(self, bench, seed, work, code):
        outcome = Outcome(attempted=FUZZ_ITERATIONS)
        raw = _read(work / "report.json")
        if code != 0 or raw is None:
            outcome.failed = FUZZ_ITERATIONS
            outcome.problems.append(f"repro-fuzz exited {code}")
            return outcome
        expected = bench.digests.get(f"fuzz/{FUZZ_ITERATIONS}", {}).get(str(seed))
        outcome.problems = checks.fuzz_problems(raw, seed, expected)
        report = json.loads(raw)
        outcome.items = report.get("execs", 0)
        outcome.failed = report.get("iterations_lost", 0)
        return outcome


class Matrix(Workload):
    name = "matrix"
    entry = "matrix_main"
    first_unit = ("repro.matrix.sweep", "evaluate_cell")
    cycle_s = 5.5

    def prepare(self, bench, seed, work):
        return [
            "run", "--jobs", str(JOBS), "--seed", str(seed),
            "--regress-dir", "corpus/regress", "--out", str(work / "report.json"),
        ]

    def judge(self, bench, seed, work, code):
        baseline = json.loads(bench.matrix_baseline)
        expected_cells = len(baseline["rows"]) * len(baseline["defenses"])
        outcome = Outcome(attempted=expected_cells)
        raw = _read(work / "report.json")
        if code != 0 or raw is None:
            outcome.failed = expected_cells
            outcome.problems.append(f"repro-matrix exited {code}")
            return outcome
        outcome.problems = checks.matrix_problems(raw, seed, bench.matrix_baseline)
        report = json.loads(raw)
        outcome.items = sum(len(row.get("cells") or {}) for row in report.get("rows") or ())
        outcome.attempted = max(expected_cells, outcome.items)
        outcome.failed = outcome.attempted - outcome.items
        return outcome


class Score(Workload):
    name = "score"
    entry = "score_main"
    first_unit = ("repro.score.propagate", "analyze_package_source")
    cycle_s = 4.0

    def prepare(self, bench, seed, work):
        from repro.score import generated_package_graph
        from repro.score.packages import render_package_source

        packages = work / "packages"
        packages.mkdir(parents=True, exist_ok=True)
        graph = generated_package_graph(seed, SCORE_PACKAGES)
        for name in graph.names():
            (packages / f"{name}.cpp").write_text(
                render_package_source(graph.package(name))
            )
        return ["rank", str(packages), "--json", "--out", str(work / "report.json")]

    def judge(self, bench, seed, work, code):
        outcome = Outcome(attempted=SCORE_PACKAGES)
        raw = _read(work / "report.json")
        if code != 0 or raw is None:
            outcome.failed = SCORE_PACKAGES
            outcome.problems.append(f"repro-score exited {code}")
            return outcome
        names = [path.stem for path in (work / "packages").glob("*.cpp")]
        expected = bench.digests.get(f"score/{SCORE_PACKAGES}", {}).get(str(seed))
        outcome.problems = checks.score_problems(raw, names, expected)
        outcome.items = checks.scored_count(raw)
        outcome.failed = max(0, SCORE_PACKAGES - outcome.items)
        return outcome


WORKLOADS = {workload.name: workload for workload in (Fuzz(), Matrix(), Score())}


def _read(path: Path):
    try:
        return path.read_bytes()
    except OSError:
        return None

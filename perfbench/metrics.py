"""Every metric the benchmark reports.  Names, units, directions and
bounds are read from ``BENCHMARK.json``; this module adds, for each
per-layer metric, the end-to-end metric and workload it should move.

The end-to-end times (and ``items_per_s``) are scaled to a reference
CPU speed measured while each command runs (see ``run.py`` and
``speed.py``); the per-layer ones are not.

A ``.self_s`` is thread CPU time (see ``spans.py``), and so is the time
behind ``execute.timeout_share``.

The end-to-end throughput is ``items_per_s`` on every workload: fuzz
executions per second on ``fuzz``, matrix cells per second on
``matrix``, scored packages per second on ``score``.  ``completed_frac``
is one minus the failed fraction (lost fuzz iterations, failed cells,
unscored packages over the number attempted), so it is never zero.
"""

from __future__ import annotations

import json
from pathlib import Path

_FUZZ = "items_per_s on fuzz"
_MATRIX = "items_per_s on matrix"
_SCORE = "items_per_s on score"
_EXEC = f"{_FUZZ}; {_MATRIX}; zero on score"
_SERVICE = "run_s on fuzz and matrix; unused on score"

#: per-layer name -> the end-to-end metric and workload it should move
MOVES = {
    # analysis
    "analysis.parse.calls_per_input": f"{_FUZZ}; {_MATRIX}; about one per distinct source on score",
    "analysis.parse.self_s": f"{_FUZZ}; {_MATRIX}; {_SCORE}",
    "analysis.detect.self_s": f"{_SCORE}; a minor share of {_FUZZ}",
    "analysis.legacy.self_s": _SCORE,
    "analysis.cache.ast_hit_ratio": _SCORE,
    "analysis.cache.ast_lookups": _SCORE,
    "analysis.cache.report_hit_ratio": _SCORE,
    "analysis.cache.report_lookups": _SCORE,
    # fuzz
    "fuzz.mutate.self_s": _FUZZ,
    "fuzz.mutate.useful_ratio": _FUZZ,
    "fuzz.oracle.valid_ratio": _FUZZ,
    "fuzz.static.self_s": _FUZZ,
    "fuzz.dynamic.self_s": _FUZZ,
    "fuzz.minimize.self_s": "run_s on fuzz",
    "fuzz.minimize.oracle_calls": "run_s on fuzz",
    "fuzz.checkpoint.writes": "run_s on fuzz",
    "fuzz.checkpoint.bytes": "run_s on fuzz",
    "fuzz.checkpoint.self_s": "run_s on fuzz",
    # execution, runtime, memory
    "execute.runs": _EXEC,
    "execute.self_s": _EXEC,
    "execute.p50_ms": _EXEC,
    "execute.tail_ms": _EXEC,
    "execute.tail_pct": "states the percentile of execute.tail_ms",
    "execute.samples": "states the sample count behind execute.tail_ms",
    "execute.steps": _EXEC,
    "execute.steps_per_s": _EXEC,
    "execute.timeouts": _EXEC,
    "execute.timeout_share": _EXEC,
    "runtime.machine_setup.self_s": _EXEC,
    "memory.accesses": _EXEC,
    "memory.tap.self_s": _EXEC,
    # attacks, defenses, matrix
    "matrix.attack_cell.self_s": _MATRIX,
    "matrix.program_cell.self_s": _MATRIX,
    "matrix.cell.p50_ms": _MATRIX,
    "matrix.cell.tail_ms": _MATRIX,
    "matrix.cell.tail_pct": "states the percentile of matrix.cell.tail_ms",
    "matrix.cell.samples": "states the sample count behind matrix.cell.tail_ms",
    "defenses.env.self_s": _MATRIX,
    # score
    "score.analyze.self_s": _SCORE,
    "score.propagate.self_s": _SCORE,
    "score.render.self_s": _SCORE,
    # service
    "service.jobs": _SERVICE,
    "service.jobs_failed": _SERVICE,
    "service.jobs_retried": _SERVICE,
    "service.queue_wait.p50_ms": _SERVICE,
    "service.queue_wait.tail_ms": _SERVICE,
    "service.queue_wait.tail_pct": "states the percentile of service.queue_wait.tail_ms",
    "service.job.p50_ms": _SERVICE,
    # the trace itself
    "trace.unattributed_frac": "run_s no layer span covers; below 0.05 on fuzz",
    "trace.overhead_frac": "traced run_s / untraced run_s - 1",
}


def load(path: Path) -> tuple:
    """``(end_to_end, per_layer)`` from the benchmark definition at
    ``path``: ``name -> (unit, better, bound)`` and
    ``name -> (unit, better, what it should move)``."""
    definition = json.loads(path.read_text())
    end_to_end = {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in definition["end_to_end"]
    }
    per_layer = {
        m["name"]: (m["unit"], m["better"], MOVES[m["name"]])
        for m in definition["per_layer"]
    }
    return end_to_end, per_layer

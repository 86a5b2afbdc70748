"""E27 — modern-mitigation sweep throughput: cells per second.

The repro-matrix sweep multiplies both axes of E14 (gallery + seed
programs + regression bundles × the ten-defense roster), so its cell
rate is the composite cost of one fully-armed defended execution:
fresh machine, armed mitigation hooks (shadow stack, VRT, tag map),
interpretation, oracle probes.  This experiment records ``cells_per_s``
for the sequential reference and the service-fanned path as
``extra_info``, so a hook that quietly turns every memory access into
a table scan shows in the printed table.  The end-to-end sweep cost is
perfbench's ``matrix`` workload (``python3 perfbench/run.py --workload
matrix``).
"""

import os
import time

from conftest import print_table

from repro.matrix import attack_rows, canonical_report_json, run_sweep, seed_rows
from repro.service import WorkerPool

#: Enough rows to amortize setup, small enough for CI: eight gallery
#: attacks plus every seed program, under the modern-mitigation columns.
DEFENSES = ("none", "checked-placement", "shadow-ret-stack", "vrt", "memory-tagging")

_CORES = os.cpu_count() or 1


def _rows():
    return attack_rows()[:8] + seed_rows()


def test_e27_sequential_cell_rate(benchmark):
    """Throughput of the in-process cell evaluator."""
    rows = _rows()
    cells = len(rows) * len(DEFENSES)

    report = benchmark.pedantic(
        run_sweep, kwargs={"rows": rows, "defenses": DEFENSES}, rounds=1
    )

    elapsed = benchmark.stats.stats.mean
    cells_per_s = cells / elapsed if elapsed else 0.0
    benchmark.extra_info["cells"] = cells
    benchmark.extra_info["cells_per_s"] = round(cells_per_s, 2)
    print_table(
        f"E27 sequential sweep ({len(rows)} rows x {len(DEFENSES)} defenses)",
        ["metric", "value"],
        [
            ["cells", str(cells)],
            ["cells/sec", f"{cells_per_s:.1f}"],
            ["attack rows winning (none)", str(report["attacks_succeeding"]["none"])],
            ["attack rows winning (vrt)", str(report["attacks_succeeding"]["vrt"])],
        ],
    )
    assert report["attacks_succeeding"]["vrt"] < report["attacks_succeeding"]["none"]


def test_e27_fanned_sweep_byte_identical_and_counted():
    """The fanned path must keep the workers busy without costing
    determinism: byte-identical to sequential, and the cell rate is
    recorded for both paths side by side."""
    rows = _rows()
    cells = len(rows) * len(DEFENSES)

    started = time.perf_counter()
    sequential = run_sweep(rows=rows, defenses=DEFENSES)
    sequential_s = time.perf_counter() - started

    started = time.perf_counter()
    with WorkerPool(4) as pool:
        fanned = run_sweep(rows=rows, defenses=DEFENSES, pool=pool)
    fanned_s = time.perf_counter() - started

    assert canonical_report_json(fanned) == canonical_report_json(sequential)

    print_table(
        f"E27 sweep scaling ({cells} cells, {_CORES} cores)",
        ["path", "elapsed (s)", "cells/s"],
        [
            ["sequential", f"{sequential_s:.2f}", f"{cells / sequential_s:.1f}"],
            ["4 workers", f"{fanned_s:.2f}", f"{cells / fanned_s:.1f}"],
        ],
    )

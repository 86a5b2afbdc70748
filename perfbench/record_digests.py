"""Record the report digests the output checks compare against.

    python3 perfbench/record_digests.py

For run seeds 1 to 10, runs every invocation an untraced run of
``BENCHMARK.json``'s ``run_seconds`` makes of the ``fuzz`` and ``score``
workloads, through the same fresh-interpreter launch the benchmark
uses, and writes the sha256 of each report to ``digests.json``.
Re-record only when a change is meant to alter those reports.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import FUZZ_ITERATIONS, SCORE_PACKAGES, WORKLOADS  # noqa: E402

#: Run seeds whose invocations get a recorded digest.
RUN_SEEDS = range(1, 11)


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    work = ROOT / ".perfbench" / "digests"
    bench = run.Bench(root=ROOT, work=work, digests={}, matrix_baseline=b"")
    keys = {"fuzz": f"fuzz/{FUZZ_ITERATIONS}", "score": f"score/{SCORE_PACKAGES}"}
    digests = {key: {} for key in keys.values()}
    try:
        for name, key in keys.items():
            workload = WORKLOADS[name]
            for run_seed in RUN_SEEDS:
                for index in range(run.invocation_count(workload, seconds, False)):
                    seed = run_seed + run.SEED_STRIDE * index
                    deadline = time.monotonic() + run.HARD_LIMIT_S
                    folder, code, *_ = run.launch(bench, workload, seed, False, deadline)
                    if code != 0:
                        print(f"{name} seed {seed} exited {code}", file=sys.stderr)
                        return 1
                    digests[key][str(seed)] = checks.digest(
                        (folder / "report.json").read_bytes()
                    )
                    print(f"{name} seed {seed}: {digests[key][str(seed)][:12]}", flush=True)
                    shutil.rmtree(folder)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {fuzz,matrix,score} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Load comes from this one process in a
closed loop: one command at a time, each in a fresh interpreter, with
``--jobs 2`` wherever the service pool is used.  A run makes a fixed
number of invocations, worked out from ``--seconds`` and the workload's
nominal cost (see :func:`invocation_count`), so which inputs a run
covers never depends on how fast the host is.  Invocation ``i`` uses
seed ``N + 1009 * i`` (so the first uses ``N`` itself); score inputs
are generated from that seed before the command starts, outside every
timed region.

While each command runs, a fixed pure-Python loop is timed on the CPU
under it (see ``speed.py``).  Each invocation's times are scaled by that
loop's mean speed to :data:`REFERENCE_OPS` (its throughput inversely)
and the run reports their medians, so a shared host slowing down for
part of a session slows the loop and the program alike and leaves the
figures in place.  The unscaled wall-time quartiles are printed beside
them.

Every report is checked (see ``checks.py``); a failed check makes the
result ``"correct": false``.  With ``--trace 0`` the end-to-end metrics
are printed; with ``--trace 1`` each untraced invocation is followed by
a traced one on the same seed, and the per-layer metrics come from the
traced ones.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import metrics  # noqa: E402
import stats  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Seed stride between the invocations of one run.
SEED_STRIDE = 1009

#: A traced run makes an untraced and a traced invocation per seed, and
#: tracing slows the second; together they cost this many plain ones.
TRACED_COST = 2.5

#: Loop speed (ops/s, see ``speed.py``) the reported times are scaled
#: to: each is reported as it would read on a CPU that runs the loop
#: this fast.
REFERENCE_OPS = 20e6

#: No invocation may run past this many seconds after the run started.
HARD_LIMIT_S = 150.0

#: Per-item latencies reported as median plus tail (see ``stats.tail``).
LATENCIES = ("execute", "matrix.cell", "service.queue_wait")


@dataclass
class Bench:
    root: Path
    work: Path
    digests: dict
    matrix_baseline: bytes


def host_fingerprint() -> dict:
    host = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
    host["id"] = hashlib.sha256(
        json.dumps(host, sort_keys=True).encode()
    ).hexdigest()[:12]
    return host


def invocation_count(workload, seconds: float, traced: bool) -> int:
    """Invocations one run makes: as many nominal invocation cycles as
    fit in ``seconds``, at least one."""
    cost = workload.cycle_s * (TRACED_COST if traced else 1.0)
    return max(1, int(seconds // cost))


def launch(bench: Bench, workload, seed: int, traced: bool, deadline: float) -> tuple:
    """Run one workload command in a fresh interpreter via ``launch.py``.

    Returns ``(work, code, usage, start, end, rates)``: the invocation's
    work directory (holding the report and ``timing.json``), the exit
    code, its resource usage, the monotonic clock at spawn and at exit,
    and the speed samples of the CPU under it (see ``speed.py``).  The
    caller removes ``work``.
    """
    work = bench.work / f"{workload.name}-{seed}-{'traced' if traced else 'plain'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    argv = workload.prepare(bench, seed, work)
    spec = work / "spec.json"
    spec.write_text(json.dumps({
        "src": str(bench.root / "src"),
        "entry": workload.entry,
        "argv": argv,
        "first_unit": workload.first_unit,
        "trace": traced,
        "spans": str(work / "spans.json"),
    }))
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        start = time.monotonic()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), str(spec)],
            cwd=bench.root, stdout=out, stderr=err,
        )
        killer = threading.Timer(max(1.0, deadline - start), child.kill)
        killer.start()
        try:
            with SpeedProbe(child.pid) as probe:
                _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    return work, os.waitstatus_to_exitcode(status), usage, start, end, probe.rates


def invoke(bench: Bench, workload, seed: int, traced: bool, deadline: float) -> dict:
    """Run one command in a fresh interpreter and judge its output."""
    work, code, usage, start, end, rates = launch(bench, workload, seed, traced, deadline)
    outcome = workload.judge(bench, seed, work, code)
    timing_path = work / "timing.json"
    timing = json.loads(timing_path.read_text()) if timing_path.exists() else {}
    result = {
        "seed": seed,
        "code": code,
        "outcome": outcome,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "rates": rates,
    }
    setup_end = timing.get("setup_end")
    if setup_end is None or not start < setup_end < end:
        outcome.problems.append("no unit of work started")
        outcome.failed = outcome.attempted
        return result
    result["setup_s"] = setup_end - start
    result["run_s"] = end - setup_end
    result["inner_run_s"] = timing["main_end_perf"] - timing["setup_end_perf"]
    if traced:
        document = json.loads((work / "spans.json").read_text())
        result["layers"] = layers.derive(
            document, timing["setup_end_perf"], timing["main_end_perf"]
        )
    if outcome.problems:
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"perfbench: {workload.name} seed {seed}: {outcome.problems}\n{tail}",
              file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    return result


def speed_scale(result: dict, fallback: float) -> float:
    """Factor that scales an invocation's times to :data:`REFERENCE_OPS`:
    the mean speed of the CPU under it over the reference, or
    ``fallback`` ops/s over the reference where it has no sample."""
    rates = result["rates"]
    return (sum(rates) / len(rates) if rates else fallback) / REFERENCE_OPS


def end_to_end(plain: list) -> dict:
    """End-to-end values of a run: medians over its invocations of their
    times scaled to :data:`REFERENCE_OPS`."""
    timed = [r for r in plain if "run_s" in r]
    fallback = stats.median(rate for r in plain for rate in r["rates"]) or REFERENCE_OPS
    scales = [speed_scale(r, fallback) for r in timed]
    attempted = sum(r["outcome"].attempted for r in plain)
    failed = sum(r["outcome"].failed for r in plain)
    return {
        "setup_s": stats.median(r["setup_s"] * s for r, s in zip(timed, scales)),
        "run_s": stats.median(r["run_s"] * s for r, s in zip(timed, scales)),
        # Peak memory is bimodal across fuzz seeds (some campaigns grow a
        # large simulated heap); the peak over the run's fixed seed set is
        # the steady statistic.
        "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
        "items_per_s": stats.median(
            r["outcome"].items / (r["run_s"] * s) for r, s in zip(timed, scales)
        ),
        "completed_frac": 1.0 - failed / attempted if attempted else 0.0,
    }


def per_layer(pairs: list, names) -> tuple:
    """Per-layer values (medians over traced invocations, pooled
    latency percentiles) and the pooled samples behind them."""
    traced = [t for _, t in pairs if "layers" in t]
    values = {}
    for name in names:
        per_run = [t["layers"][0][name] for t in traced if name in t["layers"][0]]
        if per_run:
            values[name] = stats.median(per_run)
    pooled = {}
    for t in traced:
        for key, samples in t["layers"][1].items():
            pooled.setdefault(key, []).extend(samples)
    for name in LATENCIES:
        samples = pooled.get(name, [])
        pct, value, n = stats.tail(samples)
        values[f"{name}.p50_ms"] = stats.percentile(samples, 50.0)
        values[f"{name}.tail_ms"] = value
        values[f"{name}.tail_pct"] = pct
        values[f"{name}.samples"] = n
    values["service.job.p50_ms"] = stats.percentile(pooled.get("service.job", []), 50.0)
    values["trace.overhead_frac"] = stats.median(
        t["inner_run_s"] / p["inner_run_s"] - 1.0
        for p, t in pairs
        if "inner_run_s" in p and "inner_run_s" in t
    )
    return {name: values.get(name, 0.0) for name in names}, pooled


def _describe(name, unit, value, samples=None) -> str:
    line = f"  {name:34s} {value:14.6g} {unit}"
    if samples:
        q1, q2, q3 = stats.quartiles(samples)
        line += f"   (over {len(samples)}: q1 {q1:.6g}, median {q2:.6g}, q3 {q3:.6g})"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    baseline = ROOT / "corpus" / "matrix" / "baseline.json"
    if not baseline.is_file():
        print(f"perfbench: missing {baseline}", file=sys.stderr)
        return 2
    end_to_end_spec, per_layer_spec = metrics.load(ROOT / "BENCHMARK.json")
    # Build step: byte-compile once, so no invocation pays for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(src), str(HERE)],
        check=True, stdout=subprocess.DEVNULL,
    )
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    bench = Bench(
        root=ROOT,
        work=ROOT / ".perfbench" / f"run-{os.getpid()}",
        digests=json.loads((HERE / "digests.json").read_text()),
        matrix_baseline=baseline.read_bytes(),
    )
    host = host_fingerprint()
    started = time.monotonic()
    hard_deadline = started + HARD_LIMIT_S
    pairs = []  # (untraced, traced or None)
    try:
        for index in range(invocation_count(workload, args.seconds, bool(args.trace))):
            seed = args.seed + SEED_STRIDE * index
            plain = invoke(bench, workload, seed, False, hard_deadline)
            traced = invoke(bench, workload, seed, True, hard_deadline) if args.trace else None
            pairs.append((plain, traced))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            bench.work.parent.rmdir()

    runs = [p for p, _ in pairs] + [t for _, t in pairs if t is not None]
    correct = all(r["code"] == 0 and not r["outcome"].problems for r in runs)
    attempted = sum(r["outcome"].attempted for r in runs)
    failed = sum(r["outcome"].failed for r in runs)
    q1, q2, q3 = stats.quartiles(rate for r in runs for rate in r["rates"])
    print(f"perfbench {workload.name}: seed {args.seed}, {len(pairs)} invocation(s), "
          f"{'traced' if args.trace else 'untraced'}, {time.monotonic() - started:.1f} s")
    print(f"host {host['id']}: {host['cpus']} cpu(s), {host['implementation']} "
          f"{host['python']}, {host['platform']}; calibration {q2:,.0f} ops/s "
          f"(q1 {q1:,.0f}, q3 {q3:,.0f}); compare runs only within one host id")
    if args.trace:
        values, pooled = per_layer(pairs, per_layer_spec)
        for name, (unit, _, moves) in per_layer_spec.items():
            print(_describe(name, unit, values[name]) + f"   -> {moves}")
        for name in LATENCIES:
            pct, value, n = stats.tail(pooled.get(name, []))
            print(f"  {name} latency: p50 {stats.percentile(pooled.get(name, []), 50.0):.4g} ms, "
                  f"p{pct:g} {value:.4g} ms over {n} samples (highest percentile "
                  f"with at least {stats.BEYOND} samples beyond it)")
        units = {name: spec[0] for name, spec in per_layer_spec.items()}
    else:
        plain_runs = [p for p, _ in pairs]
        values = end_to_end(plain_runs)
        print(f"  times scaled to a CPU running the calibration loop at "
              f"{REFERENCE_OPS:,.0f} ops/s; quartiles below are unscaled wall times")
        per_invocation = {
            "setup_s": [r["setup_s"] for r in plain_runs if "setup_s" in r],
            "run_s": [r["run_s"] for r in plain_runs if "run_s" in r],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain_runs],
        }
        for name, (unit, _, _) in end_to_end_spec.items():
            print(_describe(name, unit, values[name], per_invocation.get(name)))
        units = {name: spec[0] for name, spec in end_to_end_spec.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

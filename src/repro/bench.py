"""``repro-bench`` — run the benchmark suite and record the perf trajectory.

``repro-bench diff A.json B.json`` compares two recorded summaries
without re-running anything (CI's regression gate: it exits non-zero
when any well-sampled benchmark regressed past the threshold).

Every performance PR needs a before/after story that survives the PR
itself.  This front end runs the E-series pytest-benchmark suite (or
just the hot-path micro-benchmarks with ``--quick``), folds the raw
pytest-benchmark output into a compact summary, compares it against the
most recent previous run, and writes ``BENCH_<date>.json`` at the repo
root — so the next optimisation session starts from a recorded
baseline instead of folklore.

Summary format (``schema`` 1)::

    {
      "schema": 1,
      "created": "2026-08-05T12:34:56",
      "label": "pr3-fast-path",
      "quick": false,
      "benchmarks": {
        "test_e21_raw_access_unhooked": {
          "mean_s": 1.2e-4, "min_s": 1.1e-4, "stddev_s": 4e-6,
          "ops_per_s": 8300.0, "rounds": 120
        },
        ...
      },
      "comparison": {
        "baseline": "BENCH_2026-08-01.json",
        "speedups": {"test_e21_raw_access_unhooked": 3.4, ...},
        "geomean_speedup": 2.1,
        "regressions": ["test_e15_checked_placement"],
        "skipped": 12
      }
    }

``speedups`` are ``baseline_mean / new_mean`` (>1 is faster now) for
every benchmark sampled at least three times on both sides;
``regressions`` lists those more than 10% slower than baseline, and
``skipped`` counts the shared benchmarks too under-sampled to compare.
"""

from __future__ import annotations

import argparse
import datetime as _datetime
import json
import math
import re
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

#: Exit status for bad input, shared with the other front ends.
EX_USAGE = 2

#: File name pattern for trajectory files: BENCH_<date>[.<seq>].json
_BENCH_NAME = re.compile(r"^BENCH_(\d{4}-\d{2}-\d{2})(?:\.(\d+))?\.json$")

#: A benchmark counts as regressed when it got more than this many
#: percent slower (``repro-bench diff --max-regression`` overrides it).
MAX_REGRESSION_PCT = 10.0

#: Regression flagging needs at least this many rounds on both sides —
#: single-shot shape tests (``pedantic(rounds=1)``) are too noisy to
#: support a slower-than-baseline claim.
MIN_ROUNDS_FOR_REGRESSION = 3

#: The micro-benchmark file ``--quick`` restricts itself to.
QUICK_FILE = "test_e21_memory_hotpath.py"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EX_USAGE


def _bench_sort_key(path: Path) -> tuple:
    match = _BENCH_NAME.match(path.name)
    if match is None:
        return ("", 0)
    return (match.group(1), int(match.group(2) or 1))


def find_previous(output_dir: Path) -> Optional[Path]:
    """The most recent BENCH_*.json already in ``output_dir``."""
    candidates = [
        path
        for path in output_dir.glob("BENCH_*.json")
        if _BENCH_NAME.match(path.name)
    ]
    if not candidates:
        return None
    return max(candidates, key=_bench_sort_key)


def next_output_path(output_dir: Path, date: _datetime.date) -> Path:
    """First unused ``BENCH_<date>[.<seq>].json`` name for today."""
    stem = f"BENCH_{date.isoformat()}"
    path = output_dir / f"{stem}.json"
    seq = 2
    while path.exists():
        path = output_dir / f"{stem}.{seq}.json"
        seq += 1
    return path


def summarize(raw: dict) -> dict:
    """Collapse pytest-benchmark JSON into {name: stats} rows."""
    rows: dict = {}
    for bench in raw.get("benchmarks", ()):
        stats = bench.get("stats", {})
        mean = stats.get("mean")
        row = {
            "mean_s": mean,
            "min_s": stats.get("min"),
            "stddev_s": stats.get("stddev"),
            "ops_per_s": round(1.0 / mean, 4) if mean else None,
            "rounds": stats.get("rounds"),
        }
        # Domain metrics benchmarks attach (e.g. E22's execs_per_s /
        # divergence_rate) ride along into the trajectory file.
        if bench.get("extra_info"):
            row["extra_info"] = dict(bench["extra_info"])
        rows[bench["name"]] = row
    return rows


def compare(
    current: dict,
    baseline: dict,
    max_regression: float = MAX_REGRESSION_PCT,
    min_rounds: int = MIN_ROUNDS_FOR_REGRESSION,
) -> dict:
    """Per-benchmark speedups of ``current`` over ``baseline`` rows.

    Only benchmarks sampled at least ``min_rounds`` times on both sides
    are compared; the shared ones below that are counted in ``skipped``.
    A compared benchmark more than ``max_regression`` percent slower is
    listed in ``regressions``.
    """
    floor = 1.0 - max_regression / 100.0
    speedups: dict = {}
    regressions: list = []
    skipped = 0
    for name, row in sorted(current.items()):
        base_row = baseline.get(name)
        if not base_row or not base_row.get("mean_s") or not row.get("mean_s"):
            continue
        if (
            (row.get("rounds") or 0) < min_rounds
            or (base_row.get("rounds") or 0) < min_rounds
        ):
            skipped += 1
            continue
        speedup = base_row["mean_s"] / row["mean_s"]
        speedups[name] = round(speedup, 3)
        if speedup < floor:
            regressions.append(name)
    geomean = None
    if speedups:
        geomean = round(
            math.exp(sum(math.log(s) for s in speedups.values()) / len(speedups)),
            3,
        )
    return {
        "speedups": speedups,
        "geomean_speedup": geomean,
        "regressions": regressions,
        "skipped": skipped,
    }


def load_summary(path: Path) -> dict:
    """Read one BENCH_*.json summary, raising ValueError when malformed."""
    try:
        data = json.loads(path.read_text())
    except OSError as error:
        raise ValueError(f"cannot read {path}: {error}") from None
    except ValueError as error:
        raise ValueError(f"{path} is not JSON: {error}") from None
    if not isinstance(data, dict) or not isinstance(
        data.get("benchmarks"), dict
    ):
        raise ValueError(f"{path} is not a repro-bench summary")
    return data


def diff_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-bench diff`` — compare two summaries, gate on regressions.

    Exit status: 0 when every shared, well-sampled benchmark stays
    within the regression threshold; 1 when any regressed past it;
    EX_USAGE on unreadable input or no overlap to compare.
    """
    parser = argparse.ArgumentParser(
        prog="repro-bench diff",
        description="Compare two BENCH_*.json summaries (no benchmarks run)",
    )
    parser.add_argument("current", help="the fresh summary (e.g. this CI run)")
    parser.add_argument("baseline", help="the committed baseline summary")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=MAX_REGRESSION_PCT,
        metavar="PCT",
        help="fail when a benchmark is more than PCT%% slower "
        f"(default {MAX_REGRESSION_PCT:g})",
    )
    parser.add_argument(
        "--min-rounds",
        type=int,
        default=MIN_ROUNDS_FOR_REGRESSION,
        help="ignore benchmarks sampled fewer times than this on either "
        f"side (default {MIN_ROUNDS_FOR_REGRESSION}; single-shot shape "
        "tests are too noisy to gate on)",
    )
    args = parser.parse_args(argv)

    try:
        current = load_summary(Path(args.current))
        baseline = load_summary(Path(args.baseline))
    except ValueError as error:
        return _fail(str(error))
    comparison = compare(
        current["benchmarks"],
        baseline["benchmarks"],
        max_regression=args.max_regression,
        min_rounds=args.min_rounds,
    )
    speedups = comparison["speedups"]
    regressions = comparison["regressions"]
    if not speedups:
        return _fail(
            f"no well-sampled benchmarks shared between {args.current} "
            f"and {args.baseline}; nothing to gate on"
        )

    print(f"{args.current} vs baseline {args.baseline}:")
    for name, speedup in sorted(speedups.items(), key=lambda kv: -kv[1]):
        marker = "  REGRESSED" if name in regressions else ""
        print(f"  {speedup:7.2f}x  {name}{marker}")
    print(
        f"geomean speedup: {comparison['geomean_speedup']:.3f}x "
        f"over {len(speedups)} benchmarks"
    )
    if comparison["skipped"]:
        print(f"({comparison['skipped']} under-sampled benchmarks not gated)")
    # Domain throughput riders (execs_per_s, compile_ms, ...) are
    # advisory context, not gated: they track workload metrics, not
    # wall-clock means.
    for name, row in sorted(current["benchmarks"].items()):
        extra = row.get("extra_info")
        if extra:
            riders = ", ".join(
                f"{key}={value}" for key, value in sorted(extra.items())
            )
            print(f"  {name}: {riders}")
    if regressions:
        print(
            f"FAIL: {len(regressions)} benchmark(s) regressed more than "
            f"{args.max_regression:g}% vs {args.baseline}",
            file=sys.stderr,
        )
        return 1
    print(f"ok: no benchmark regressed more than {args.max_regression:g}%")
    return 0


def run_pytest_benchmarks(
    benchmarks_dir: Path, quick: bool, json_path: Path, extra: Sequence[str] = ()
) -> int:
    """Run the suite in-process with pytest-benchmark recording."""
    import pytest

    target = benchmarks_dir / QUICK_FILE if quick else benchmarks_dir
    argv = [
        str(target),
        "-q",
        "-p", "no:cacheprovider",
        "--benchmark-only",
        f"--benchmark-json={json_path}",
    ]
    if quick:
        # Fewer, shorter rounds: a smoke signal, not a publication run.
        argv += ["--benchmark-max-time=0.25", "--benchmark-min-rounds=3"]
    argv += list(extra)
    return pytest.main(argv)


def bench_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-bench`` (and ``repro-bench diff``)."""
    arg_list = list(sys.argv[1:] if argv is None else argv)
    if arg_list and arg_list[0] == "diff":
        return diff_main(arg_list[1:])
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run the E-series benchmarks and record BENCH_<date>.json",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"only the hot-path micro-benchmarks ({QUICK_FILE}), short rounds",
    )
    parser.add_argument(
        "--benchmarks-dir",
        default="benchmarks",
        help="directory holding the pytest-benchmark suite (default: ./benchmarks)",
    )
    parser.add_argument(
        "--output-dir",
        default=".",
        help="where BENCH_<date>.json is written (default: repo root / cwd)",
    )
    parser.add_argument(
        "--label", default="", help="free-form tag recorded in the summary"
    )
    parser.add_argument(
        "--no-compare",
        action="store_true",
        help="skip the comparison against the previous BENCH_*.json",
    )
    parser.add_argument(
        "--pytest-arg",
        action="append",
        default=[],
        metavar="ARG",
        help="extra argument passed through to pytest (repeatable)",
    )
    args = parser.parse_args(arg_list)

    benchmarks_dir = Path(args.benchmarks_dir)
    if not benchmarks_dir.is_dir():
        return _fail(f"benchmarks directory not found: {benchmarks_dir}")
    if args.quick and not (benchmarks_dir / QUICK_FILE).is_file():
        return _fail(f"micro-benchmark file not found: {benchmarks_dir / QUICK_FILE}")
    output_dir = Path(args.output_dir)
    if not output_dir.is_dir():
        return _fail(f"output directory not found: {output_dir}")

    baseline_path = None if args.no_compare else find_previous(output_dir)

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        raw_path = Path(tmp) / "benchmark.json"
        exit_code = run_pytest_benchmarks(
            benchmarks_dir, args.quick, raw_path, args.pytest_arg
        )
        if exit_code != 0:
            print(
                f"error: benchmark suite failed (pytest exit {exit_code}); "
                "no BENCH file written",
                file=sys.stderr,
            )
            return 1
        try:
            raw = json.loads(raw_path.read_text())
        except (OSError, ValueError) as error:
            print(f"error: cannot read benchmark output: {error}", file=sys.stderr)
            return 1

    rows = summarize(raw)
    if not rows:
        print("error: suite produced no benchmark rows", file=sys.stderr)
        return 1
    summary = {
        "schema": 1,
        "created": _datetime.datetime.now().isoformat(timespec="seconds"),
        "label": args.label,
        "quick": args.quick,
        "benchmarks": rows,
        "comparison": None,
    }
    if baseline_path is not None:
        try:
            baseline = json.loads(baseline_path.read_text())
        except (OSError, ValueError):
            baseline = None
        if isinstance(baseline, dict) and isinstance(
            baseline.get("benchmarks"), dict
        ):
            summary["comparison"] = {
                "baseline": baseline_path.name,
                **compare(rows, baseline["benchmarks"]),
            }

    out_path = next_output_path(output_dir, _datetime.date.today())
    out_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    print(f"\nwrote {out_path} ({len(rows)} benchmarks)")
    comparison = summary["comparison"]
    if comparison:
        print(
            f"vs {comparison['baseline']}: geomean speedup "
            f"{comparison['geomean_speedup']}x"
        )
        for name, speedup in sorted(
            comparison["speedups"].items(), key=lambda kv: -kv[1]
        ):
            print(f"  {speedup:7.2f}x  {name}")
        if comparison["regressions"]:
            print(f"regressions (>{MAX_REGRESSION_PCT:g}% slower):")
            for name in comparison["regressions"]:
                print(f"  {name}")
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entry
    sys.exit(bench_main())

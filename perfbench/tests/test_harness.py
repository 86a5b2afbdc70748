"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
from spans import FIELDS, SpanRecorder, ancestors, load_spans, self_times, union_seconds  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402


def _span(sid, parent, name, start, end, cpu=None, folded=0.0, thread=1):
    cpu = end - start if cpu is None else cpu
    return {
        "id": sid, "parent": parent, "name": name, "start": start, "end": end,
        "cpu": cpu, "input": 0, "thread": thread, "folded": folded,
        "status": "ok", "value": None,
    }


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_children_and_folded_leaves():
    spans = [
        _span(1, 0, "fuzz.oracle", 0.0, 10.0),
        _span(2, 1, "fuzz.static", 1.0, 4.0),
        _span(3, 2, "analysis.parse", 1.5, 2.5),
        _span(4, 1, "fuzz.dynamic", 5.0, 9.0, folded=0.5),
        _span(5, 4, "execute.run", 6.0, 8.0, folded=0.25),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(4.0 - 2.0 - 0.5)
    assert own[5] == pytest.approx(2.0 - 0.25)
    # Self times of a tree add up to the root's CPU time less folded leaves.
    assert sum(own.values()) == pytest.approx(10.0 - 0.75)


def test_self_time_uses_thread_cpu_not_wall():
    # A parent waited 6 s of its 10 s wall interval on another thread.
    spans = [
        _span(1, 0, "fuzz.batch", 0.0, 10.0, cpu=4.0),
        _span(2, 1, "analysis.parse", 2.0, 7.0, cpu=1.0),
    ]
    own = self_times(spans)
    assert own == {1: pytest.approx(3.0), 2: pytest.approx(1.0)}


def test_union_and_ancestors():
    assert union_seconds([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_seconds([(0, 2), (1, 3), (5, 6)], low=1.5, high=5.5) == pytest.approx(2.0)
    spans = [_span(1, 0, "a", 0, 3), _span(2, 1, "b", 1, 2), _span(3, 2, "c", 1, 1.5)]
    assert ancestors(spans)[3] == ("b", "a")


def test_timeout_share_counts_thread_cpu_not_wall():
    # Two workers: a timed-out run spans 0-6 s of wall but ran 2 s of its
    # thread's CPU while the other worker's run held the lock.
    spans = [
        _span(1, 0, "execute.run", 0.0, 6.0, cpu=2.0, thread=1),
        _span(2, 0, "execute.run", 1.0, 5.0, cpu=3.0, thread=2),
    ]
    spans[0]["status"] = "SimulatedTimeout"
    document = {"spans": [[span[field] for field in FIELDS] for span in spans]}
    values, _ = layers.derive(document, 0.0, 8.0)
    assert values["execute.timeouts"] == 1
    assert values["execute.timeout_share"] == pytest.approx(2.0 / 8.0)


def test_recorder_nests_spans_and_folds_leaves():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: next(ticks), cpu_clock=lambda: next(ticks))

    leaf = recorder.fold("leaf", lambda: None)
    inner = recorder.span("inner", lambda: leaf())
    outer = recorder.span("outer", lambda: inner(), boundary=True)
    outer()
    outer()
    spans = load_spans(recorder.spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    assert len(by_name["outer"]) == 2 and len(by_name["inner"]) == 2
    first_outer, first_inner = by_name["outer"][0], by_name["inner"][0]
    assert first_inner["parent"] == first_outer["id"]
    assert first_inner["input"] == first_outer["input"] != by_name["outer"][1]["input"]
    assert recorder.folded()["leaf"][0] == 2
    own = self_times(spans)
    assert own[first_inner["id"]] == pytest.approx(
        first_inner["cpu"] - first_inner["folded"]
    )


# -- restoring the originals ---------------------------------------------------

SOURCE = """
class Box { public: int a; };
void run() {
  char buf[8];
  Box* b = new (buf) Box();
  b->a = 3;
}
"""


def _bindings():
    """Every (module, name) -> object binding in the ``repro`` package."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for key, value in vars(module).items():
                if callable(value):
                    out[(name, key)] = value
    return out


def test_restore_returns_every_original():
    for name in layers.MODULES:
        __import__(name)
    from repro.execution.interpreter import Interpreter
    from repro.fuzz.oracles import run_oracles
    from repro.memory.address_space import AddressSpace

    before = _bindings()
    methods = (Interpreter.__dict__["run"], AddressSpace.__dict__["read"])
    recorder = SpanRecorder()
    layers.install(recorder)
    import repro.fuzz.oracles as oracles

    assert oracles.run_oracles is not run_oracles
    oracles.run_oracles(SOURCE)
    recorded = len(recorder.spans)
    assert recorded > 0 and recorder.counts()["memory.accesses"] > 0
    recorder.restore()

    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    assert (Interpreter.__dict__["run"], AddressSpace.__dict__["read"]) == methods
    # An untraced run after the traced one sees the originals.
    observation = oracles.run_oracles(SOURCE)
    assert observation.valid
    assert len(recorder.spans) == recorded


# -- percentiles ---------------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert stats.tail(range(1, 1001)) == (99.0, 990.0, 1000)
    assert stats.tail(range(1, 201)) == (95.0, 190.0, 200)
    assert stats.tail(range(1, 101)) == (90.0, 90.0, 100)
    assert stats.tail(range(1, 41)) == (75.0, 30.0, 40)
    assert stats.tail(range(1, 21)) == (50.0, 10.0, 20)
    # Too few samples: the median stands in, and n says so.
    assert stats.tail(range(1, 11)) == (50.0, 5.0, 10)
    assert stats.tail([]) == (50.0, 0.0, 0)


def test_quartiles_resist_an_outlier():
    assert stats.quartiles([4.0]) == (4.0, 4.0, 4.0)
    q1, q2, q3 = stats.quartiles([1, 2, 3, 4, 100])
    assert (q1, q2, q3) == (1.5, 3.0, 52.0)
    assert stats.median([1, 2, 3, 4, 100]) == 3.0


# -- output checks -------------------------------------------------------------


def _fuzz_report():
    return {
        "seed": 7,
        "untriaged": 0,
        "families": {
            family: {"static": True, "dynamic": True}
            for family in checks.GENERATOR_FAMILIES
        },
        "coverage": ["event:dos-timeout", "event:placement-fit"],
    }


def _raw(document) -> bytes:
    return json.dumps(document, sort_keys=True).encode()


def test_fuzz_check_accepts_ground_truth_and_rejects_perturbations():
    good = _fuzz_report()
    assert checks.fuzz_problems(_raw(good), 7) == []
    assert checks.fuzz_problems(_raw(good), 7, checks.digest(_raw(good))) == []
    perturbed = []
    report = copy.deepcopy(good)
    report["families"]["dos-loop"]["dynamic"] = False
    perturbed.append(report)
    report = copy.deepcopy(good)
    report["coverage"].remove("event:dos-timeout")
    perturbed.append(report)
    report = copy.deepcopy(good)
    del report["families"]["leak"]
    perturbed.append(report)
    for report in perturbed:
        assert checks.fuzz_problems(_raw(report), 7), report
    assert checks.fuzz_problems(_raw(good), 8)
    assert checks.fuzz_problems(_raw(good), 7, "0" * 64)
    assert checks.fuzz_problems(b"not json", 7)


def test_matrix_check_against_the_baseline():
    baseline = (ROOT / "corpus" / "matrix" / "baseline.json").read_bytes()
    assert checks.matrix_problems(baseline, 1, baseline) == []
    report = json.loads(baseline)
    # A re-encoded report with the same cells passes at another seed...
    assert checks.matrix_problems(_raw(report), 2, baseline) == []
    # ...but not at seed 1, where the bytes must match.
    assert checks.matrix_problems(_raw(report), 1, baseline)

    def perturb(edit):
        changed = copy.deepcopy(report)
        edit(changed)
        return checks.matrix_problems(_raw(changed), 2, baseline)

    gallery = next(i for i, row in enumerate(report["rows"]) if row["kind"] == "attack")
    regress = next(i for i, row in enumerate(report["rows"]) if row["kind"] == "regress")
    twin = next(i for i, row in enumerate(report["rows"]) if row["kind"] == "seed")
    assert perturb(lambda r: r["rows"][gallery]["cells"].update(vrt="ATTACK-WINS"))
    assert perturb(lambda r: r["rows"][regress]["cells"].update(none="prevented"))
    assert perturb(lambda r: r["rows"][twin]["cells"].update(none="prevented"))
    assert perturb(lambda r: r["rows"].pop(regress))
    assert perturb(lambda r: r["rows"][gallery]["cells"].pop("vrt"))
    assert perturb(lambda r: r.update(defenses=r["defenses"][:-1]))


def test_score_check_covers_every_package():
    names = ["pkg-a", "pkg-b", "pkg-c"]
    good = {
        "totals": {"packages": 3},
        "packages": [{"name": name} for name in names],
        "ranking": list(reversed(names)),
    }
    assert checks.score_problems(_raw(good), names) == []
    assert checks.score_problems(_raw(good), names, checks.digest(_raw(good))) == []
    missing = copy.deepcopy(good)
    missing["packages"].pop()
    assert checks.score_problems(_raw(missing), names)
    short_total = copy.deepcopy(good)
    short_total["totals"]["packages"] = 2
    assert checks.score_problems(_raw(short_total), names)
    unranked = copy.deepcopy(good)
    unranked["ranking"].pop()
    assert checks.score_problems(_raw(unranked), names)
    assert checks.score_problems(_raw(good), names, "0" * 64)


# -- the benchmark definition ---------------------------------------------------


def test_every_per_layer_metric_names_what_it_moves():
    end_to_end, per_layer = metrics.load(ROOT / "BENCHMARK.json")
    assert set(per_layer) == set(metrics.MOVES)
    assert end_to_end["setup_s"][2] == max(bound for _, _, bound in end_to_end.values())


def _invocation(run_s, setup_s, items, rates):
    return {"run_s": run_s, "setup_s": setup_s, "peak_rss_mb": 40.0, "rates": rates,
            "outcome": Outcome(items=items, attempted=items)}


def test_end_to_end_times_scale_with_the_cpu_under_each_invocation():
    ref = run.REFERENCE_OPS
    # The same work read 2 s on a CPU at reference speed and 4 s on one
    # running at half of it; both scale to 2 s.
    plain = [
        _invocation(2.0, 0.2, 100, [ref, ref]),
        _invocation(4.0, 0.4, 100, [ref / 2]),
        _invocation(2.0, 0.2, 100, []),  # no sample: the run's median speed
    ]
    values = run.end_to_end(plain)
    assert values["run_s"] == pytest.approx(2.0)
    assert values["setup_s"] == pytest.approx(0.2)
    assert values["items_per_s"] == pytest.approx(50.0)
    assert values["completed_frac"] == 1.0


def test_speed_probe_samples_the_cpu_under_a_busy_process():
    assert speed.loop_rate(10_000) > 0
    # This thread is running, so the process shows a running CPU.
    assert speed.running_cpus(os.getpid())
    child = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        with speed.SpeedProbe(child.pid) as probe:
            time.sleep(speed.INTERVAL * 4)
    finally:
        child.kill()
        child.wait(timeout=10)
    assert probe.rates and all(rate > 0 for rate in probe.rates)


def test_a_run_covers_a_fixed_seed_set():
    # The invocation count depends only on --seconds, never on host speed.
    fuzz = WORKLOADS["fuzz"]
    assert run.invocation_count(fuzz, 40, False) == int(40 // fuzz.cycle_s)
    assert run.invocation_count(fuzz, 40, True) < run.invocation_count(fuzz, 40, False)
    assert run.invocation_count(fuzz, 1, True) == 1

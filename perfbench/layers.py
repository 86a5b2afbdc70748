"""Which program functions the traced run wraps, and the per-layer
numbers derived from the spans they record.

Layers follow the package's modules: ``analysis``, ``fuzz``,
``execution``/``runtime``/``memory``, ``attacks``/``defenses``/``matrix``,
``score`` and ``service``.  Span names are ``<layer>.<part>``; the
metric each one feeds is listed in :mod:`metrics`.
"""

from __future__ import annotations

import importlib
import os

from spans import ancestors, load_spans, self_times, union_seconds

#: Modules imported before wrapping, so every binding exists to rebind.
MODULES = (
    "repro.cli",
    "repro.analysis",
    "repro.analysis.cache",
    "repro.fuzz",
    "repro.execution",
    "repro.matrix",
    "repro.score",
    "repro.service",
    "repro.attacks",
    "repro.defenses",
)

#: Scheduler histograms whose every observation the trace keeps.
WATCHED_HISTOGRAMS = ("scheduler.queue_wait_seconds", "scheduler.job_seconds")

#: Spans that open a new input id: a fuzz input, a matrix cell, a package.
BOUNDARIES = ("fuzz.oracle", "matrix.cell", "score.analyze")


def install(recorder) -> None:
    """Wrap every traced function; undo with ``recorder.restore()``."""
    for name in MODULES:
        importlib.import_module(name)
    from repro.analysis.legacy_tools import LegacyRuleScanner
    from repro.attacks.base import Environment
    from repro.defenses.base import Defense
    from repro.execution.interpreter import Interpreter
    from repro.execution.vm import BytecodeVM
    from repro.fuzz.campaign import DifferentialFuzzer
    from repro.fuzz.checkpoint import CheckpointStore
    from repro.fuzz.report import CampaignReport
    from repro.memory.address_space import AddressSpace
    from repro.memory.events import MemoryEventTap
    from repro.runtime.machine import Machine
    from repro.score.propagate import CorpusScore
    from repro.service.engine import ServiceEngine
    from repro.service.metrics import Histogram

    def function(module, attribute, name, **options):
        recorder.patch_function(
            module, attribute, lambda fn: recorder.span(name, fn, **options)
        )

    def method(cls, attribute, name, **options):
        recorder.patch_method(
            cls, attribute, lambda fn: recorder.span(name, fn, **options)
        )

    # analysis
    function("repro.analysis.parser", "parse", "analysis.parse")
    function("repro.analysis.detector", "analyze_source", "analysis.detect")
    method(LegacyRuleScanner, "scan_source", "analysis.legacy")

    # fuzz
    function("repro.fuzz.mutator", "mutate", "fuzz.mutate")
    function(
        "repro.fuzz.oracles", "run_oracles", "fuzz.oracle", boundary=True,
        value=lambda args, result: None if result is None else bool(result.valid),
    )
    function("repro.fuzz.oracles", "static_verdict", "fuzz.static")
    function("repro.fuzz.oracles", "dynamic_verdict", "fuzz.dynamic")
    function("repro.fuzz.minimize", "minimize_input", "fuzz.minimize")
    function("repro.fuzz.campaign", "run_batch", "fuzz.batch")
    method(DifferentialFuzzer, "observe", "fuzz.observe")
    method(DifferentialFuzzer, "finalize", "fuzz.finalize")
    function(
        "repro.fuzz.checkpoint", "checkpoint_from_fuzzer", "fuzz.checkpoint.build"
    )
    method(
        CheckpointStore, "save", "fuzz.checkpoint.save",
        value=lambda args, path: os.path.getsize(path) if path else None,
    )
    method(CampaignReport, "to_json", "fuzz.report")
    method(CampaignReport, "render", "fuzz.report")

    # execution, runtime, memory
    steps = lambda args, result: args[0].steps  # noqa: E731
    function("repro.execution.interpreter", "run_source", "execute.load")
    method(Interpreter, "run", "execute.run", value=steps)
    method(BytecodeVM, "run", "execute.run", value=steps)
    method(Machine, "__init__", "runtime.machine_setup")
    method(MemoryEventTap, "__init__", "runtime.machine_setup")
    for attribute in ("read", "write"):
        recorder.patch_method(
            AddressSpace, attribute,
            lambda fn: recorder.count("memory.accesses", fn),
        )
    recorder.patch_method(
        MemoryEventTap, "__call__", lambda fn: recorder.fold("memory.tap", fn)
    )

    # attacks, defenses, matrix
    function("repro.matrix.sweep", "evaluate_cell", "matrix.cell", boundary=True)
    function("repro.matrix.sweep", "run_attack_cell", "matrix.attack_cell")
    function("repro.matrix.sweep", "run_program_cell", "matrix.program_cell")
    function("repro.matrix.sweep", "build_report", "matrix.report")
    function("repro.matrix.sweep", "canonical_report_json", "matrix.report")
    function("repro.matrix.sweep", "render_report", "matrix.report")
    method(Defense, "fresh_environment", "defenses.env")
    method(Environment, "make_machine", "defenses.env")

    # score
    function(
        "repro.score.propagate", "analyze_package_source", "score.analyze",
        boundary=True,
    )
    function("repro.score.propagate", "score_packages", "score.propagate")
    method(CorpusScore, "to_json", "score.render")

    # service: per-observation scheduler latencies and the closing snapshot
    def observe_histogram(original):
        def observe(self, value):
            if self.name in WATCHED_HISTOGRAMS:
                recorder.sample(self.name, value)
            return original(self, value)

        return observe

    def close_engine(original):
        def close(self, *args, **kwargs):
            recorder.extras.setdefault("service", []).append(
                self.metrics_snapshot()["counters"]
            )
            return original(self, *args, **kwargs)

        return recorder.span("service.close", close)

    recorder.patch_method(Histogram, "observe", observe_histogram)
    recorder.patch_method(ServiceEngine, "close", close_engine)


# -- per-invocation numbers ---------------------------------------------------


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def derive(document: dict, setup_end: float, end: float) -> tuple:
    """Per-layer values and latency samples of one traced invocation.

    ``setup_end`` and ``end`` bound the traced ``run_s`` on the span
    clock.  Returns ``(values, samples)``; samples are millisecond
    lists the caller pools across invocations before taking
    percentiles.
    """
    spans = load_spans(document["spans"])
    own = self_times(spans)
    chains = ancestors(spans)
    named: dict = {}
    self_s: dict = {}
    for span in spans:
        named.setdefault(span["name"], []).append(span)
        self_s[span["name"]] = self_s.get(span["name"], 0.0) + own[span["id"]]

    def spans_of(name):
        return named.get(name, [])

    def self_of(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    def durations_ms(name):
        return [(s["end"] - s["start"]) * 1000.0 for s in spans_of(name)]

    run_s = end - setup_end
    counts = document.get("counts", {})
    folded = document.get("folded", {})
    cache = document.get("extras", {}).get("analysis_cache", {})
    service = {}
    for snapshot in document.get("extras", {}).get("service", ()):
        for key, value in snapshot.items():
            service[key] = service.get(key, 0) + value

    inputs = sum(len(spans_of(name)) for name in BOUNDARIES)
    parses = len(spans_of("analysis.parse"))
    oracles = spans_of("fuzz.oracle")
    campaign_oracles = [
        s for s in oracles if "fuzz.minimize" not in chains[s["id"]]
    ]
    mutants_run = sum(
        1 for s in spans_of("fuzz.observe") if "fuzz.batch" in chains[s["id"]]
    )
    runs = spans_of("execute.run")
    steps = sum(s["value"] or 0 for s in runs)
    run_seconds = sum(s["end"] - s["start"] for s in runs)
    # Thread CPU, not wall: a timed-out run's wall interval also holds
    # the other worker's time under the shared interpreter lock.
    timed_out = [s for s in runs if s["status"] == "SimulatedTimeout"]
    checkpoint_saves = spans_of("fuzz.checkpoint.save")
    covered = union_seconds(
        ((s["start"], s["end"]) for s in spans), low=setup_end, high=end
    )

    def hit_ratio(tier):
        stats = cache.get(tier, {})
        return _ratio(stats.get("hits", 0), stats.get("hits", 0) + stats.get("misses", 0))

    def lookups(tier):
        stats = cache.get(tier, {})
        return stats.get("hits", 0) + stats.get("misses", 0)

    values = {
        "analysis.parse.calls_per_input": _ratio(parses, inputs),
        "analysis.parse.self_s": self_of("analysis.parse"),
        "analysis.detect.self_s": self_of("analysis.detect"),
        "analysis.legacy.self_s": self_of("analysis.legacy"),
        "analysis.cache.ast_hit_ratio": hit_ratio("ast"),
        "analysis.cache.ast_lookups": lookups("ast"),
        "analysis.cache.report_hit_ratio": hit_ratio("reports"),
        "analysis.cache.report_lookups": lookups("reports"),
        "fuzz.mutate.self_s": self_of("fuzz.mutate"),
        "fuzz.mutate.useful_ratio": _ratio(mutants_run, len(spans_of("fuzz.mutate"))),
        "fuzz.oracle.valid_ratio": _ratio(
            sum(1 for s in campaign_oracles if s["value"]), len(campaign_oracles)
        ),
        "fuzz.static.self_s": self_of("fuzz.static"),
        "fuzz.dynamic.self_s": self_of("fuzz.dynamic"),
        "fuzz.minimize.self_s": self_of("fuzz.minimize"),
        "fuzz.minimize.oracle_calls": len(oracles) - len(campaign_oracles),
        "fuzz.checkpoint.writes": len(checkpoint_saves),
        "fuzz.checkpoint.bytes": sum(s["value"] or 0 for s in checkpoint_saves),
        "fuzz.checkpoint.self_s": self_of(
            "fuzz.checkpoint.build", "fuzz.checkpoint.save"
        ),
        "execute.runs": len(runs),
        "execute.self_s": self_of("execute.run", "execute.load"),
        "execute.steps": steps,
        "execute.steps_per_s": _ratio(steps, run_seconds),
        "execute.timeouts": len(timed_out),
        "execute.timeout_share": _ratio(sum(s["cpu"] for s in timed_out), run_s),
        "runtime.machine_setup.self_s": self_of("runtime.machine_setup"),
        "memory.accesses": counts.get("memory.accesses", 0),
        "memory.tap.self_s": folded.get("memory.tap", [0, 0.0])[1],
        "matrix.attack_cell.self_s": self_of("matrix.attack_cell"),
        "matrix.program_cell.self_s": self_of("matrix.program_cell"),
        "defenses.env.self_s": self_of("defenses.env"),
        "score.analyze.self_s": self_of("score.analyze"),
        "score.propagate.self_s": self_of("score.propagate"),
        "score.render.self_s": self_of("score.render"),
        "service.jobs": service.get("scheduler.jobs_submitted", 0),
        "service.jobs_failed": service.get("scheduler.jobs_failed", 0),
        "service.jobs_retried": service.get("scheduler.jobs_retried", 0),
        "trace.unattributed_frac": _ratio(run_s - covered, run_s),
    }
    samples = {
        "execute": durations_ms("execute.run"),
        "matrix.cell": durations_ms("matrix.cell"),
        "service.queue_wait": [
            value * 1000.0
            for value in document.get("samples", {}).get(WATCHED_HISTOGRAMS[0], ())
        ],
        "service.job": [
            value * 1000.0
            for value in document.get("samples", {}).get(WATCHED_HISTOGRAMS[1], ())
        ],
    }
    return values, samples

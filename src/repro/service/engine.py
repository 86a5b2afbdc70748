"""The service engine: one object wiring cache, pool, scheduler, metrics.

``ServiceEngine`` is the programmatic front door used by the HTTP
server, the CLI batch paths, and the benchmarks.  It owns the component
lifecycles (use it as a context manager) and exposes the high-level
operations — single analyses, parallel corpus sweeps, attack runs, the
E14 matrix — as blocking calls that internally fan out through the
scheduler.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional, Sequence, Tuple

from ..analysis import analysis_cache_stats
from ..attacks import all_attacks, attack_by_name
from ..defenses import ALL_DEFENSES, defense_by_name
from ..fuzz.oracles import DEFAULT_STEP_BUDGET
from ..matrix.sweep import MatrixRow, attack_rows, build_report, collect_rows
from ..workloads.corpus import corpus_sources
from .cache import ResultCache
from .jobs import (
    HIGH_PRIORITY,
    LOW_PRIORITY,
    NORMAL_PRIORITY,
    AnalyzeJob,
    AttackJob,
    ExecJob,
    MatrixCellJob,
)
from .metrics import MetricsRegistry, render_prometheus
from .scheduler import Scheduler
from .tracing import TraceBuffer
from .workers import WorkerPool


class ServiceEngine:
    """Configured job engine with a blocking convenience API."""

    def __init__(
        self,
        workers: int = 4,
        backend: str = "thread",
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
    ):
        self.metrics = MetricsRegistry()
        self.traces = TraceBuffer()
        self.cache = ResultCache(directory=cache_dir) if use_cache else None
        self.pool = WorkerPool(max_workers=workers, backend=backend)
        self.scheduler = Scheduler(
            pool=self.pool,
            cache=self.cache,
            metrics=self.metrics,
            max_queue=1024,
            traces=self.traces,
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        self.scheduler.shutdown(wait=wait)
        self.pool.shutdown()

    def __enter__(self) -> "ServiceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- analysis ----------------------------------------------------------

    def analyze(
        self,
        source: str,
        label: str = "",
        legacy: bool = False,
        priority: int = HIGH_PRIORITY,
    ) -> dict:
        """Analyze one source, served from cache when warm."""
        return self.scheduler.run(
            AnalyzeJob(source=source, label=label, legacy=legacy),
            priority=priority,
        )

    def sweep(
        self,
        sources: Iterable[Tuple[str, str]],
        legacy: bool = False,
        priority: int = LOW_PRIORITY,
    ) -> List[dict]:
        """Analyze ``(label, source)`` pairs in parallel, preserving order."""
        handles = self.scheduler.map(
            [
                AnalyzeJob(source=source, label=label, legacy=legacy)
                for label, source in sources
            ],
            priority=priority,
        )
        return [handle.result() for handle in handles]

    def corpus_sweep(self, legacy: bool = False) -> List[dict]:
        """Analyze the built-in paper corpus in parallel."""
        return self.sweep(corpus_sources(), legacy=legacy)

    # -- attacks -----------------------------------------------------------

    def attack(
        self,
        name: str,
        env: str = "unprotected",
        priority: int = HIGH_PRIORITY,
    ) -> dict:
        """Run one attack under one environment."""
        return self.scheduler.run(AttackJob(attack=name, env=env), priority=priority)

    def gallery(self, env: str = "unprotected") -> List[dict]:
        """Run the whole attack gallery in parallel under one environment."""
        handles = self.scheduler.map(
            [
                AttackJob(attack=scenario.name, env=env)
                for scenario in all_attacks()
            ]
        )
        return [handle.result() for handle in handles]

    def matrix(
        self, attacks: Sequence[str] = (), defenses: Sequence[str] = ()
    ) -> dict:
        """The E14 attack × defense matrix as a dict.

        The sweep's attack rows (one :class:`MatrixCellJob` per cell,
        fresh environment each), projected onto the ``/matrix`` shape:
        attacks in request order (default: the gallery), defenses in
        roster order (default: all of them).
        """
        for name in attacks:  # reject unknown names up front, not per-cell
            attack_by_name(name)
        for name in defenses:
            defense_by_name(name)
        rows = (
            [MatrixRow(kind="attack", row_id=name) for name in attacks]
            if attacks
            else attack_rows()
        )
        chosen = [
            defense.name
            for defense in ALL_DEFENSES
            if not defenses or defense.name in defenses
        ]
        cells = self._sweep_cells(rows, chosen)
        wins = dict.fromkeys(chosen, 0)
        for cell in cells:
            wins[cell["defense"]] += cell["succeeded"]
        return {
            "defenses": chosen,
            "cells": [
                {
                    "attack": cell["row_id"],
                    "defense": cell["defense"],
                    "summary": cell["summary"],
                    "succeeded": cell["succeeded"],
                    "detected_by": cell["detected_by"],
                    "crashed": cell["crashed"],
                }
                for cell in cells
            ],
            "attacks_succeeding": wins,
        }

    def matrix_sweep(
        self,
        rows=None,
        defenses: Sequence[str] = (),
        seed: int = 1,
        regress_dir: Optional[str] = None,
        step_budget: int = DEFAULT_STEP_BUDGET,
        timeout: float = 120.0,
    ) -> dict:
        """The full modern-mitigation sweep, fanned out cell-per-job.

        Rows default to gallery attacks + generator seed families (+
        regression bundles when ``regress_dir`` is given); cells are
        submitted row-major and collected in submission order, so the
        returned report is byte-identical to the sequential
        :func:`repro.matrix.run_sweep` at any worker count.
        """
        if rows is None:
            rows = collect_rows(seed=seed, regress_dir=regress_dir)
        defense_names = list(defenses) or [d.name for d in ALL_DEFENSES]
        for name in defense_names:
            defense_by_name(name)  # reject unknown names up front
        cells = self._sweep_cells(rows, defense_names, step_budget, timeout)
        report = build_report(rows, defense_names, cells)
        self.metrics.counter("matrix.sweeps_total").inc()
        self.metrics.counter("matrix.cells_total").inc(len(cells))
        self.metrics.gauge("matrix.rows").set(len(rows))
        self.metrics.gauge("matrix.defenses").set(len(defense_names))
        self.metrics.gauge("matrix.attack_wins").set(
            sum(report["attacks_succeeding"].values())
        )
        self.metrics.gauge("matrix.risks").set(len(report["risks"]))
        return report

    def _sweep_cells(
        self,
        rows,
        defense_names: Sequence[str],
        step_budget: int = DEFAULT_STEP_BUDGET,
        timeout: float = 120.0,
    ) -> List[dict]:
        """One :class:`MatrixCellJob` per (row, defense), submitted
        row-major; the cells come back in submission order."""
        handles = [
            self.scheduler.submit(
                MatrixCellJob(
                    row_kind=row.kind,
                    row_id=row.row_id,
                    source=row.source,
                    stdin=tuple(row.stdin),
                    defense=name,
                    step_budget=step_budget,
                ),
                priority=NORMAL_PRIORITY,
                timeout=timeout,
            )
            for row in rows
            for name in defense_names
        ]
        return [handle.result() for handle in handles]

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        source: str,
        entry: str = "main",
        args: Sequence = (),
        stdin: Sequence = (),
        canary: bool = False,
    ) -> dict:
        """Run MiniC++ source on a fresh simulated machine."""
        return self.scheduler.run(
            ExecJob(
                source=source,
                entry=entry,
                args=tuple(args),
                stdin=tuple(stdin),
                canary=canary,
            ),
            priority=HIGH_PRIORITY,
        )

    # -- fuzzing -----------------------------------------------------------

    def fuzz_campaign(
        self,
        seed: int = 1,
        iterations: int = 200,
        step_budget: int = DEFAULT_STEP_BUDGET,
        canary: bool = True,
        minimize: bool = True,
        max_corpus: int = 256,
        batch_size: int = 50,
        batch_timeout: float = 120.0,
        store=None,
        checkpoint_dir=None,
        resume: bool = False,
        skip_version_check: bool = False,
        stop_event=None,
        stop_after_rounds=None,
    ):
        """Run a differential fuzzing campaign over this worker pool.

        Returns a :class:`repro.fuzz.CampaignReport`.  Imported lazily:
        the fuzz package drives the service layer, not vice versa.
        ``checkpoint_dir``/``resume`` persist and continue long
        campaigns (see :mod:`repro.fuzz.checkpoint`); ``stop_event``
        requests a graceful round-boundary stop that raises
        :class:`repro.fuzz.CampaignInterrupted` after a final
        checkpoint is written.
        """
        from ..fuzz import FuzzConfig, run_campaign

        config = FuzzConfig(
            seed=seed,
            iterations=iterations,
            step_budget=step_budget,
            canary=canary,
            minimize=minimize,
            max_corpus=max_corpus,
        )
        return run_campaign(
            config,
            engine=self,
            batch_size=batch_size,
            batch_timeout=batch_timeout,
            store=store,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            skip_version_check=skip_version_check,
            stop_event=stop_event,
            stop_after_rounds=stop_after_rounds,
        )

    # -- regression replay -------------------------------------------------

    def regress_replay(
        self,
        store,
        chunk_size: int = 8,
        check_versions: bool = True,
        timeout: float = 300.0,
    ):
        """Replay a regression store over the worker pool.

        ``store`` is a :class:`repro.regress.RegressionStore` or a
        directory path.  Bundles are chunked in id order into
        ``regress-replay`` jobs; results merge in submission order and
        the returned :class:`repro.regress.DriftReport` is byte-identical
        to a sequential replay for any worker count.  A failed or
        timed-out chunk marks each of its bundles ``invalid-run`` rather
        than dropping them — a replay gate must never lose bundles.
        """
        from ..regress import DriftReport, RegressionStore, ReplayResult
        from .jobs import RegressReplayJob
        from .scheduler import JobFailed

        if not isinstance(store, RegressionStore):
            store = RegressionStore(store, create=False)
        chunk_size = max(1, chunk_size)
        chunks: List[List[str]] = []
        current: List[str] = []
        for bundle in store.bundles():
            current.append(bundle.to_json())
            if len(current) >= chunk_size:
                chunks.append(current)
                current = []
        if current:
            chunks.append(current)
        handles = [
            self.scheduler.submit(
                RegressReplayJob(
                    bundles=tuple(chunk), check_versions=check_versions
                ),
                priority=NORMAL_PRIORITY,
                timeout=timeout,
            )
            for chunk in chunks
        ]
        report = DriftReport()
        for chunk, handle in zip(chunks, handles):
            try:
                results = handle.result()["results"]
            except JobFailed as error:
                results = [
                    {
                        "bundle_id": json.loads(doc).get("id", "?"),
                        "status": "invalid-run",
                        "detail": f"replay chunk failed: {error}",
                    }
                    for doc in chunk
                ]
            for entry in results:
                report.results.append(ReplayResult.from_dict(entry))
        self.metrics.gauge("regress.bundles").set(len(report.results))
        self.metrics.counter("regress.replays_total").inc(len(report.results))
        drifted = len(report.drifted)
        if drifted:
            self.metrics.counter("regress.drift_total").inc(drifted)
        return report

    # -- risk scoring ------------------------------------------------------

    def score_corpus(self, graph, attenuation: Optional[float] = None):
        """Score a package graph over the worker pool.

        ``graph`` is a :class:`repro.score.PackageGraph` or a package
        directory path.  Per-package scoring fans out as ``score``
        jobs; propagation runs in-process once every package's risks
        are back.  Results are collected in submission (sorted-name)
        order, so the returned :class:`repro.score.CorpusScore` is
        byte-identical to :func:`repro.score.score_graph` at any
        worker count.
        """
        from ..score.packages import PackageGraph, load_package_dir
        from ..score.propagate import DEFAULT_ATTENUATION, score_packages
        from ..score.threats import registry_version
        from .jobs import ScoreJob

        if not isinstance(graph, PackageGraph):
            graph = load_package_dir(graph)
        if attenuation is None:
            attenuation = DEFAULT_ATTENUATION
        registry = registry_version()
        names = graph.names()
        handles = [
            self.scheduler.submit(
                ScoreJob(
                    source=graph.package(name).source,
                    label=name,
                    registry=registry,
                ),
                priority=NORMAL_PRIORITY,
            )
            for name in names
        ]
        risks_by_package = {
            name: handle.result()["risks"]
            for name, handle in zip(names, handles)
        }
        score = score_packages(graph, risks_by_package, attenuation)
        totals = score.totals
        self.metrics.counter("score.packages_scored").inc(totals["packages"])
        self.metrics.counter("score.risks_found").inc(totals["risks"])
        self.metrics.gauge("score.flawed_packages").set(
            totals["flawed_packages"]
        )
        self.metrics.gauge("score.max_blast_radius").set(
            totals["max_blast_radius"]
        )
        return score

    # -- introspection -----------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Scheduler + cache + pool state for the ``/metrics`` endpoint.

        ``analysis_cache`` is this process's AST and report LRUs; workers
        of the process backend keep their own, which it does not count.
        """
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.cache.stats() if self.cache else {"enabled": False}
        snapshot["analysis_cache"] = analysis_cache_stats()
        snapshot["pool"] = {
            "backend": self.pool.backend,
            "workers": self.pool.size,
            "extra_workers": self.pool.extra_workers,
        }
        return snapshot

    def metrics_prometheus(self) -> str:
        """The snapshot in Prometheus text exposition format."""
        return render_prometheus(self.metrics_snapshot())

    def trace(self, key: str) -> Optional[dict]:
        """The span record of the latest submission of ``key``, if traced."""
        trace = self.traces.get(key)
        return trace.to_dict() if trace is not None else None

    def health(self) -> dict:
        """Liveness payload for ``/healthz``."""
        from .. import __version__

        return {
            "status": "ok",
            "version": __version__,
            "workers": self.pool.size,
            "backend": self.pool.backend,
            "cache": self.cache is not None,
        }

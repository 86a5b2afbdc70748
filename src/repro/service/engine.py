"""The service engine: one object wiring cache, pool, scheduler, metrics.

``ServiceEngine`` is the programmatic front door used by the HTTP
server and ``repro-analyze --jobs N``.  It owns the component
lifecycles (use it as a context manager) and exposes the interactive
operations — single analyses, parallel corpus sweeps, attack runs, the
E14 matrix — as blocking calls that internally fan out through the
scheduler.  The batch workloads need none of it: they are plain
functions that take a :class:`~repro.service.workers.WorkerPool` as
``pool=`` (:func:`repro.matrix.run_sweep`,
:func:`repro.fuzz.run_campaign`, :func:`repro.regress.replay_store` and
:func:`repro.score.score_graph`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..analysis import analysis_cache_stats, parse_cached
from ..attacks import all_attacks, attack_by_name
from ..defenses import ALL_DEFENSES, defense_by_name
from ..errors import ParseError
from ..matrix.sweep import CELL_TIMEOUT, MatrixRow, attack_rows, cell_jobs
from ..workloads.corpus import corpus_sources
from .cache import ResultCache
from .jobs import (
    HIGH_PRIORITY,
    LOW_PRIORITY,
    AnalyzeJob,
    AttackJob,
    ExecJob,
)
from .metrics import MetricsRegistry, render_prometheus
from .scheduler import Scheduler
from .workers import WorkerPool


def _parsed(source: str):
    """The program ``source`` parses to; a source that does not parse
    is bad input (``ValueError``), refused before any job is queued."""
    try:
        return parse_cached(source)
    except ParseError as error:
        raise ValueError(f"'source' does not parse: {error}") from None


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
        self.cache = ResultCache(directory=cache_dir) if use_cache else None
        self.pool = WorkerPool(max_workers=workers, backend=backend)
        self.scheduler = Scheduler(
            pool=self.pool, cache=self.cache, metrics=self.metrics, max_queue=1024
        )
        self.traces = self.scheduler.traces

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
        _parsed(source)
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
        handles = [
            self.scheduler.submit_waiting(job, timeout=CELL_TIMEOUT)
            for job in cell_jobs(rows, chosen)
        ]
        cells = [handle.result() for handle in handles]
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

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        source: str,
        entry: str = "main",
        args: Sequence = (),
        stdin: Sequence = (),
        canary: bool = False,
    ) -> dict:
        """Run MiniC++ source on a fresh simulated machine; a program the
        interpreter refuses to run is bad input (``ValueError``)."""
        program = _parsed(source)
        if all(function.name != entry for function in program.functions):
            raise ValueError(f"no function '{entry}'")
        result = self.scheduler.run(
            ExecJob(
                source=source,
                entry=entry,
                args=tuple(args),
                stdin=tuple(stdin),
                canary=canary,
            ),
            priority=HIGH_PRIORITY,
        )
        if "refused" in result:
            raise ValueError(result["refused"])
        return result

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

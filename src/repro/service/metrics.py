"""Service metrics: counters, gauges, and histograms with a JSON snapshot.

A deliberately small, stdlib-only metrics surface in the shape of the
usual exporters: monotonically increasing counters, last-value gauges,
and summary histograms (count/total/min/max/mean).  Everything is
thread-safe and snapshots to a deterministic, sorted dict served
by the ``/metrics`` endpoint — or, via :func:`render_prometheus`, to
the Prometheus text exposition format for scrapers
(``GET /metrics?format=prom``).
"""

from __future__ import annotations

import threading
from typing import Optional


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A last-set value (queue depth)."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """Summary statistics over observed values (latencies, sizes)."""

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            self.vmin = value if self.vmin is None else min(self.vmin, value)
            self.vmax = value if self.vmax is None else max(self.vmax, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        with self._lock:
            return {
                "count": self.count,
                "total": round(self.total, 6),
                "mean": round(self.mean, 6),
                "min": round(self.vmin, 6) if self.vmin is not None else None,
                "max": round(self.vmax, 6) if self.vmax is not None else None,
            }


class MetricsRegistry:
    """Create-or-get metric instruments plus a snapshot of all of them."""

    def __init__(self):
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            return self._gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            return self._histograms.setdefault(name, Histogram(name))

    def snapshot(self) -> dict:
        """All instruments, deterministically ordered."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name: counters[name].value for name in sorted(counters)
            },
            "gauges": {name: gauges[name].value for name in sorted(gauges)},
            "histograms": {
                name: histograms[name].summary() for name in sorted(histograms)
            },
        }


# -- Prometheus text exposition --------------------------------------------


def _prom_name(*parts: str) -> str:
    """Join metric name parts into a legal Prometheus identifier."""
    return "_".join(parts).replace(".", "_").replace("-", "_")


def _prom_number(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return repr(value)


def render_prometheus(snapshot: dict, prefix: str = "repro") -> str:
    """A metrics snapshot in the Prometheus text exposition format.

    Counters gain the conventional ``_total`` suffix, histograms become
    summaries (``_count``/``_sum`` plus ``_min``/``_max`` gauges), and
    any extra sections in the snapshot (``cache``, ``analysis_cache``,
    ``pool``) are flattened into gauges, with string values collected into one
    ``<prefix>_<section>_info{...} 1`` metric per section.  Output is
    sorted, so identical state renders byte-identically.
    """
    lines: list = []

    def emit(name: str, kind: str, value) -> None:
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name} {_prom_number(value)}")

    for name in sorted(snapshot.get("counters", ())):
        emit(
            _prom_name(prefix, name, "total"),
            "counter",
            snapshot["counters"][name],
        )
    for name in sorted(snapshot.get("gauges", ())):
        emit(_prom_name(prefix, name), "gauge", snapshot["gauges"][name])
    for name in sorted(snapshot.get("histograms", ())):
        summary = snapshot["histograms"][name]
        base = _prom_name(prefix, name)
        lines.append(f"# TYPE {base} summary")
        lines.append(f"{base}_count {_prom_number(summary['count'])}")
        lines.append(f"{base}_sum {_prom_number(summary['total'])}")
        for stat in ("min", "max"):
            if summary.get(stat) is not None:
                emit(f"{base}_{stat}", "gauge", summary[stat])
    for section in sorted(snapshot):
        mapping = snapshot[section]
        if section in ("counters", "gauges", "histograms"):
            continue
        if not isinstance(mapping, dict):
            continue
        info: list = []
        flat: list = []

        def _walk(path, value, flat=flat, info=info):
            if isinstance(value, dict):
                for child in sorted(value):
                    _walk(path + (child,), value[child])
            elif isinstance(value, (int, float, bool)):
                flat.append((path, value))
            elif isinstance(value, str):
                info.append(("_".join(path), value))

        _walk((), mapping)
        for path, value in flat:
            emit(_prom_name(prefix, section, *path), "gauge", value)
        if info:
            rendered = ",".join(f'{key}="{val}"' for key, val in info)
            name = _prom_name(prefix, section, "info")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name}{{{rendered}}} 1")
    return "\n".join(lines) + "\n"

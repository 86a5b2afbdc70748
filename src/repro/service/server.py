"""``repro-serve``: a stdlib-only JSON API over the service engine.

Endpoints (all responses are ``application/json``):

``GET /healthz``
    Liveness: engine version, worker count, cache state.
``GET /metrics``
    The full metrics snapshot (scheduler counters/histograms, cache
    accounting, analysis-cache accounting, pool shape).  JSON by default;
    ``?format=prom`` — or an ``Accept`` header asking for ``text/plain``
    / OpenMetrics, as Prometheus scrapers send — switches to the
    Prometheus text exposition format.
``GET /trace/<key>``
    The span record (trace id + per-stage spans) of the most recent
    submission of job ``<key>``; ``GET /trace`` lists traced keys.
``POST /analyze``
    ``{"source": "..."}`` or ``{"corpus": true}`` — detector findings.
    Optional ``label`` and ``legacy`` fields.
``POST /attacks``
    ``{"attack": "name", "env": "label"}`` — one attack; omit
    ``attack`` to run the whole gallery in parallel.
``POST /matrix``
    ``{"attacks": [...], "defenses": [...]}`` (both optional) — the E14
    matrix, decomposed into parallel per-cell jobs.
``POST /exec``
    ``{"source": "...", "entry": "main", "args": [], "stdin": [],
    "canary": false}`` — run on the simulated machine.

Requests are executed through the engine's scheduler, so repeated
identical requests are served from the result cache, and the server
stays responsive under load: ``ThreadingHTTPServer`` handles sockets
while the bounded work queue sheds excess load as HTTP 503.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple
from urllib.parse import parse_qs, urlsplit

from .engine import ServiceEngine
from .scheduler import JobFailed, QueueFull


def _list_field(body: dict, name: str, types: tuple, noun: str) -> tuple:
    """``body[name]`` as a tuple (absent or null: empty); anything but a
    list of ``types`` is bad input naming the field."""
    value = body.get(name)
    if value is None:
        return ()
    if not isinstance(value, list) or not all(
        isinstance(item, types) and not isinstance(item, bool) for item in value
    ):
        raise ValueError(f"'{name}' must be a list of {noun}")
    return tuple(value)


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the engine for its handlers."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], engine: ServiceEngine):
        super().__init__(address, _ServiceHandler)
        self.engine = engine


class _ServiceHandler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # requests are accounted in metrics, not stderr

    def _send_json(self, status: int, body: dict) -> None:
        data = json.dumps(body, sort_keys=True).encode()
        self._send_bytes(status, data, "application/json")

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_bytes(status, text.encode(), content_type)

    def _send_bytes(self, status: int, data: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self) -> dict:
        """The request's JSON object; ``ValueError`` says what is wrong."""
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            raise ValueError(f"bad Content-Length header: {header!r}")
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw or b"{}")
        except ValueError:
            body = None
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    @property
    def engine(self) -> ServiceEngine:
        return self.server.engine

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server convention)
        self.engine.metrics.counter("http.requests").inc()
        parts = urlsplit(self.path)
        path = parts.path
        if path == "/healthz":
            self._send_json(200, self.engine.health())
        elif path == "/metrics":
            if self._wants_prometheus(parts.query):
                self._send_text(
                    200,
                    self.engine.metrics_prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            else:
                self._send_json(200, self.engine.metrics_snapshot())
        elif path == "/trace" or path == "/trace/":
            self._send_json(200, {"keys": self.engine.traces.keys()})
        elif path.startswith("/trace/"):
            key = path[len("/trace/"):]
            trace = self.engine.trace(key)
            if trace is None:
                self._send_json(404, {"error": f"no trace recorded for job '{key}'"})
            else:
                self._send_json(200, trace)
        else:
            self.engine.metrics.counter("http.not_found").inc()
            self._send_json(404, {"error": f"unknown path {self.path}"})

    def _wants_prometheus(self, query: str) -> bool:
        """Prometheus text via ``?format=prom`` or scraper Accept headers."""
        requested = parse_qs(query).get("format", [""])[0]
        if requested:
            return requested in ("prom", "prometheus", "text")
        accept = self.headers.get("Accept", "")
        return "text/plain" in accept or "openmetrics" in accept

    def do_POST(self) -> None:  # noqa: N802
        self.engine.metrics.counter("http.requests").inc()
        try:
            body = self._read_body()
        except ValueError as error:
            self.engine.metrics.counter("http.bad_request").inc()
            self._send_json(400, {"error": str(error)})
            return
        try:
            if self.path == "/analyze":
                self._send_json(200, self._analyze(body))
            elif self.path == "/attacks":
                self._send_json(200, self._attacks(body))
            elif self.path == "/matrix":
                self._send_json(
                    200,
                    self.engine.matrix(
                        attacks=_list_field(body, "attacks", (str,), "strings"),
                        defenses=_list_field(body, "defenses", (str,), "strings"),
                    ),
                )
            elif self.path == "/exec":
                if not isinstance(body.get("source"), str):
                    raise ValueError("'source' must be a string")
                self._send_json(
                    200,
                    self.engine.execute(
                        source=body["source"],
                        entry=body.get("entry", "main"),
                        args=_list_field(body, "args", (int,), "integers"),
                        stdin=_list_field(
                            body, "stdin", (int, str), "integers or strings"
                        ),
                        canary=bool(body.get("canary")),
                    ),
                )
            else:
                self.engine.metrics.counter("http.not_found").inc()
                self._send_json(404, {"error": f"unknown path {self.path}"})
        except (KeyError, TypeError, ValueError) as error:
            self.engine.metrics.counter("http.bad_request").inc()
            # KeyError's str() wraps its message in an extra repr layer
            message = (
                error.args[0]
                if isinstance(error, KeyError) and error.args
                else str(error)
            )
            self._send_json(400, {"error": str(message)})
        except QueueFull as error:
            self.engine.metrics.counter("http.overloaded").inc()
            self._send_json(503, {"error": str(error)})
        except JobFailed as error:
            self.engine.metrics.counter("http.job_failed").inc()
            self._send_json(500, {"error": str(error)})

    def _analyze(self, body: dict) -> dict:
        legacy = bool(body.get("legacy"))
        if body.get("corpus"):
            return {"reports": self.engine.corpus_sweep(legacy=legacy)}
        source = body.get("source")
        if not isinstance(source, str):
            raise ValueError("'source' must be a string (or pass corpus=true)")
        return self.engine.analyze(
            source=source, label=body.get("label", ""), legacy=legacy
        )

    def _attacks(self, body: dict) -> dict:
        from ..attacks import attack_by_name, environment_by_label

        env = body.get("env", "unprotected")
        environment_by_label(env)  # validate before queueing (KeyError → 400)
        if body.get("attack"):
            attack_by_name(body["attack"])
            return self.engine.attack(body["attack"], env=env)
        return {"results": self.engine.gallery(env=env)}


def create_server(
    engine: ServiceEngine, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Bind (but do not start) the API server; ``port=0`` picks a free one."""
    return ServiceHTTPServer((host, port), engine)

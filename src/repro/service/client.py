"""A small stdlib client for the ``repro-serve`` JSON API.

The transport is :mod:`http.client`, whose one ``timeout`` bounds the
connect and every read: a server that accepts the TCP handshake but
then stalls mid-response trips it instead of hanging a CLI user
forever.  Transient socket failures (connection
refused during server startup, resets, timeouts) are retried a bounded
number of times with deterministic, key-seeded exponential backoff
(:func:`backoff_delay`); a server that *responds* with a non-2xx status
is never retried — that is a :class:`ServiceError` for the caller to
interpret.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import time
from typing import Callable, Optional, Sequence
from urllib.parse import urlsplit

#: The first retry's backoff ceiling, in seconds; it doubles per attempt.
BACKOFF_BASE = 0.05
#: No retry waits longer than this, in seconds.
BACKOFF_CAP = 2.0


class ServiceError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceUnavailable(ServiceError):
    """The service could not be reached after every retry attempt."""

    def __init__(self, url: str, attempts: int, cause: Exception):
        RuntimeError.__init__(
            self,
            f"service at {url} unreachable after {attempts} "
            f"attempt{'s' if attempts != 1 else ''}: {cause}",
        )
        self.status = 0
        self.message = str(cause)
        self.attempts = attempts


def backoff_delay(key: str, attempt: int, base: float, cap: float) -> float:
    """Exponential backoff with deterministic, key-seeded jitter.

    Hashing ``key:attempt`` gives every (request, attempt) pair its own stable
    fraction in ``[0, 1)``, spreading retry herds across clients while
    staying byte-for-byte reproducible across runs and processes.
    """
    ceiling = min(base * (2 ** (attempt - 1)), cap)
    digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2**64
    return min(cap, ceiling * (0.5 + fraction))


class ServiceClient:
    """Typed wrappers over the service endpoints.

    ``timeout`` bounds the connect and each read, in seconds.
    ``retries`` bounds re-attempts after transient socket errors (0
    disables); ``sleep`` is injectable so tests can count backoff delays
    without waiting them out.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 2,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, retries)
        self._sleep = sleep
        parsed = urlsplit(self.base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"unsupported URL scheme '{parsed.scheme}'")
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80

    def _request(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        return json.loads(self._request_raw(method, path, body))

    def _request_raw(self, method: str, path: str, body: Optional[dict] = None) -> bytes:
        data = json.dumps(body).encode() if body is not None else None
        attempts = 0
        while True:
            attempts += 1
            try:
                return self._attempt(method, path, data)
            except (OSError, http.client.HTTPException) as error:
                if attempts > self.retries:
                    raise ServiceUnavailable(self.base_url + path, attempts, error) from error
                key = f"{method} {path}"
                self._sleep(backoff_delay(key, attempts, BACKOFF_BASE, BACKOFF_CAP))

    def _attempt(self, method: str, path: str, data: Optional[bytes]) -> bytes:
        connection = http.client.HTTPConnection(self._host, self._port, timeout=self.timeout)
        try:
            connection.request(
                method, path, body=data, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            payload = response.read()
        finally:
            connection.close()
        if 200 <= response.status < 300:
            return payload
        try:
            message = json.loads(payload).get("error", response.reason)
        except (ValueError, AttributeError):
            message = response.reason
        raise ServiceError(response.status, str(message))

    # -- endpoints ---------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def metrics_text(self) -> str:
        """The Prometheus text exposition of the metrics snapshot."""
        return self._request_raw("GET", "/metrics?format=prom").decode()

    def trace(self, key: str) -> dict:
        """The span record for job ``key`` (404 → :class:`ServiceError`)."""
        return self._request("GET", f"/trace/{key}")

    def traces(self) -> dict:
        """``{"keys": [...]}`` — every job key with a retained trace."""
        return self._request("GET", "/trace")

    def analyze(
        self,
        source: Optional[str] = None,
        label: str = "",
        legacy: bool = False,
        corpus: bool = False,
    ) -> dict:
        body: dict = {"legacy": legacy}
        if corpus:
            body["corpus"] = True
        else:
            body["source"] = source
            body["label"] = label
        return self._request("POST", "/analyze", body)

    def attacks(self, attack: Optional[str] = None, env: Optional[str] = None) -> dict:
        body: dict = {} if env is None else {"env": env}
        if attack:
            body["attack"] = attack
        return self._request("POST", "/attacks", body)

    def matrix(
        self, attacks: Sequence[str] = (), defenses: Sequence[str] = ()
    ) -> dict:
        return self._request(
            "POST",
            "/matrix",
            {"attacks": list(attacks), "defenses": list(defenses)},
        )

    def execute(
        self,
        source: str,
        entry: str = "main",
        args: Sequence = (),
        stdin: Sequence = (),
        canary: bool = False,
    ) -> dict:
        return self._request(
            "POST",
            "/exec",
            {
                "source": source,
                "entry": entry,
                "args": list(args),
                "stdin": list(stdin),
                "canary": canary,
            },
        )

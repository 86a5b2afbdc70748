"""ServiceClient transport hardening: timeouts, bounded deterministic retry."""

import socket
import threading

import pytest

from repro.service import (
    ServiceClient,
    ServiceEngine,
    ServiceError,
    ServiceUnavailable,
    backoff_delay,
    create_server,
)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestBackoffDelay:
    def test_deterministic_across_calls(self):
        first = [backoff_delay("GET /healthz", n, 0.05, 2.0) for n in (1, 2, 3)]
        second = [backoff_delay("GET /healthz", n, 0.05, 2.0) for n in (1, 2, 3)]
        assert first == second

    def test_jitter_spreads_distinct_keys(self):
        delays = {backoff_delay(f"GET /{i}", 1, 0.05, 2.0) for i in range(32)}
        assert len(delays) == 32  # every request key lands differently

    def test_bounded_by_half_base_and_cap(self):
        for attempt in (1, 2, 3, 10):
            delay = backoff_delay("k", attempt, 0.05, 2.0)
            assert 0.025 <= delay <= 2.0


class TestTransientRetry:
    def test_connection_refused_retries_then_raises_unavailable(self):
        sleeps = []
        client = ServiceClient(
            f"http://127.0.0.1:{free_port()}",
            retries=3,
            sleep=sleeps.append,
        )
        with pytest.raises(ServiceUnavailable) as excinfo:
            client.healthz()
        assert excinfo.value.attempts == 4  # 1 try + 3 retries
        assert excinfo.value.status == 0
        assert len(sleeps) == 3
        # the recorded delays are exactly the deterministic schedule
        assert sleeps == [
            backoff_delay("GET /healthz", n, client.backoff_base, client.backoff_cap)
            for n in (1, 2, 3)
        ]

    def test_unavailable_is_a_service_error(self):
        # callers catching the old exception type keep working
        client = ServiceClient(
            f"http://127.0.0.1:{free_port()}", retries=0, sleep=lambda _: None
        )
        with pytest.raises(ServiceError):
            client.healthz()

    def test_retries_zero_disables_retry(self):
        sleeps = []
        client = ServiceClient(
            f"http://127.0.0.1:{free_port()}", retries=0, sleep=sleeps.append
        )
        with pytest.raises(ServiceUnavailable):
            client.healthz()
        assert sleeps == []

    def test_recovery_mid_retry_schedule(self):
        # the first attempt hits a closed port; the server comes up
        # during the backoff and the retry must succeed transparently
        port = free_port()
        with ServiceEngine(workers=1) as engine:
            server = None
            started = threading.Event()

            def bring_up(_delay: float) -> None:
                nonlocal server
                if not started.is_set():
                    server = create_server(engine, host="127.0.0.1", port=port)
                    threading.Thread(
                        target=server.serve_forever, daemon=True
                    ).start()
                    started.set()

            client = ServiceClient(
                f"http://127.0.0.1:{port}", retries=2, sleep=bring_up
            )
            try:
                health = client.healthz()
                assert health["status"] == "ok"
                assert started.is_set(), "succeeded without any retry"
            finally:
                if server is not None:
                    server.shutdown()
                    server.server_close()


class TestStatusErrorsAreNotRetried:
    @pytest.fixture(scope="class")
    def service(self):
        with ServiceEngine(workers=1) as engine:
            server = create_server(engine, host="127.0.0.1", port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                yield f"http://127.0.0.1:{server.server_address[1]}"
            finally:
                server.shutdown()
                server.server_close()

    def test_404_raises_without_retry(self, service):
        sleeps = []
        client = ServiceClient(service, retries=3, sleep=sleeps.append)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        assert sleeps == []

    def test_400_carries_server_message(self, service):
        client = ServiceClient(service, retries=1, sleep=lambda _: None)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/analyze", {})
        assert excinfo.value.status == 400
        assert "source" in excinfo.value.message

    def test_separate_connect_and_read_timeouts(self, service):
        client = ServiceClient(
            service, connect_timeout=0.5, read_timeout=30.0, retries=0
        )
        assert client.connect_timeout == 0.5
        assert client.read_timeout == 30.0
        assert client.healthz()["status"] == "ok"

"""End-to-end repro-serve round trips on an ephemeral port."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import (
    AnalyzeJob,
    ServiceClient,
    ServiceEngine,
    ServiceError,
    create_server,
)

VULN_SOURCE = """
class A { public: double d; };
class B : public A { public: int x[8]; };
void f() { A a; B *b = new (&a) B(); }
"""


@pytest.fixture(scope="module")
def service():
    with ServiceEngine(workers=2) as engine:
        server = create_server(engine, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base_url = "http://127.0.0.1:%d" % server.server_address[1]
        try:
            yield ServiceClient(base_url), engine, base_url
        finally:
            server.shutdown()
            server.server_close()


class TestEndpoints:
    def test_healthz(self, service):
        client, engine, _ = service
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2

    def test_analyze_round_trip(self, service):
        client, _, _ = service
        response = client.analyze(source=VULN_SOURCE, label="vuln")
        assert response["label"] == "vuln"
        assert "PN-OVERSIZE" in [f["rule"] for f in response["findings"]]

    def test_analyze_corpus(self, service):
        client, _, _ = service
        response = client.analyze(corpus=True)
        labels = [report["label"] for report in response["reports"]]
        assert "listing4-construction" in labels

    def test_attack_round_trip(self, service):
        client, _, _ = service
        response = client.attacks(attack="data-bss-overflow")
        assert response["summary"] == "ATTACK-WINS"

    def test_matrix_round_trip(self, service):
        client, _, _ = service
        response = client.matrix(
            attacks=["data-bss-overflow"], defenses=["none", "checked-placement"]
        )
        assert response["defenses"] == ["none", "checked-placement"]
        assert len(response["cells"]) == 2

    def test_exec_round_trip(self, service):
        client, _, _ = service
        response = client.execute("int main(int a, char b) { return 9; }")
        assert response["return_value"] == 9
        assert response["died"] is False

    @pytest.mark.parametrize(
        ("canary", "expected"),
        [
            (
                False,
                {
                    "died": False,
                    "return_value": None,
                    "steps": 54,
                    "hijacked": True,
                    "outputs": [],
                    "events": ["system() invoked"],
                    "placements": [
                        {
                            "type": "GradStudent",
                            "size": 32,
                            "address": 0xBFFFFEE0,
                            "arena_size": 16,
                            "overflow": True,
                        }
                    ],
                },
            ),
            (
                True,
                {
                    "died": True,
                    "error": "*** stack smashing detected ***: addStudent "
                    "terminated (canary 0x00000001 != 0x9e250d00)",
                    "error_type": "StackSmashingDetected",
                    "events": ["*** stack smashing detected ***: addStudent"],
                },
            ),
        ],
    )
    def test_exec_result_is_pinned(self, service, canary, expected):
        # Listing 13: the second SSN overwrites the return slot with the
        # simulated system() entry (0x08048010).
        from repro.workloads.corpus import FULL_CORPUS

        client, _, _ = service
        source = next(
            program.source
            for program in FULL_CORPUS
            if program.key == "listing13-stack-return"
        )
        response = client.execute(
            source,
            entry="addStudent",
            args=[1],
            stdin=[1, 0x08048010, 3],
            canary=canary,
        )
        assert {key: response[key] for key in expected} == expected

    def test_exec_reports_the_hijack_target(self, service):
        from repro.workloads.corpus import FULL_CORPUS

        client, _, _ = service
        source = next(
            program.source
            for program in FULL_CORPUS
            if program.key == "listing13-stack-return"
        )
        hijacked = client.execute(
            source, entry="addStudent", args=[1], stdin=[1, 0x08048010, 3]
        )
        assert hijacked["hijack_target"] == 0x08048010
        normal = client.execute("int main(int a, char b) { return 9; }")
        assert normal["hijacked"] is False
        assert normal["hijack_target"] is None

    def test_metrics_include_http_and_cache(self, service):
        client, _, _ = service
        metrics = client.metrics()
        assert metrics["counters"]["http.requests"] >= 1
        assert "hit_rate" in metrics["cache"]
        assert set(metrics["analysis_cache"]) == {"ast", "reports"}
        assert set(metrics["analysis_cache"]["ast"]) == {"entries", "hits", "misses"}

    def test_repeat_request_hits_cache(self, service):
        client, engine, _ = service
        client.analyze(source=VULN_SOURCE, label="warm")
        hits_before = engine.cache.hits
        client.analyze(source=VULN_SOURCE, label="warm")
        assert engine.cache.hits == hits_before + 1

    def test_metrics_prometheus_text(self, service):
        client, _, base_url = service
        client.healthz()  # ensure at least one counted request
        text = client.metrics_text()
        assert "# TYPE repro_http_requests_total counter" in text
        assert "repro_scheduler_queue_depth" in text
        assert "repro_cache_write_errors" in text
        assert "repro_analysis_cache_ast_hits" in text
        assert "repro_analysis_cache_reports_entries" in text
        # scraper-style Accept negotiation reaches the same renderer
        request = urllib.request.Request(
            base_url + "/metrics",
            headers={"Accept": "text/plain;version=0.0.4"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert "text/plain" in response.headers["Content-Type"]
            assert b"repro_scheduler_jobs_submitted_total" in response.read()

    def test_trace_endpoint_round_trip(self, service):
        client, _, _ = service
        client.analyze(source=VULN_SOURCE, label="traced")
        key = AnalyzeJob(source=VULN_SOURCE, label="traced").key()
        trace = client.trace(key)
        assert trace["key"] == key
        stages = [span["stage"] for span in trace["spans"]]
        assert stages[0] == "submitted"
        assert stages[-1] == "resolved"
        assert key in client.traces()["keys"]

    def test_trace_unknown_key_404(self, service):
        client, _, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.trace("analyze-0000000000000000dead")
        assert excinfo.value.status == 404


class TestErrorHandling:
    def test_unknown_path_404(self, service):
        client, _, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_missing_source_400(self, service):
        client, _, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/analyze", {})
        assert excinfo.value.status == 400

    def test_malformed_json_400(self, service):
        _, _, base_url = service
        request = urllib.request.Request(
            base_url + "/analyze",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(request, timeout=10)
            raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as error:
            assert error.code == 400
            assert "JSON" in json.loads(error.read())["error"]

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_400(self, service, length):
        # The socket stays open for writing: a server that tried to read
        # a body of the bad length would wait here until the timeout.
        _, engine, base_url = service
        before = engine.metrics.snapshot()["counters"].get("http.bad_request", 0)
        port = int(base_url.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
            conn.sendall(
                b"POST /analyze HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n{}"
            )
            response = b""
            while chunk := conn.recv(4096):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split(b" ")[1] == b"400"
        assert "Content-Length" in json.loads(body)["error"]
        after = engine.metrics.snapshot()["counters"]["http.bad_request"]
        assert after == before + 1

    @pytest.mark.parametrize("path", ["/analyze", "/exec"])
    @pytest.mark.parametrize(
        ("source", "reason"),
        [
            ("int main( {", "1:11: expected identifier, got '{'"),
            ("int main() { return 010; }", "1:21: invalid integer literal '010'"),
        ],
        ids=["unparsable", "octal-literal"],
    )
    def test_unparsable_source_400(self, service, path, source, reason):
        client, engine, _ = service
        before = engine.metrics.snapshot()["counters"].get("http.bad_request", 0)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", path, {"source": source})
        assert excinfo.value.status == 400
        assert excinfo.value.message == f"'source' does not parse: {reason}"
        after = engine.metrics.snapshot()["counters"]["http.bad_request"]
        assert after == before + 1

    def test_unknown_exec_entry_400(self, service):
        client, engine, _ = service
        before = engine.metrics.snapshot()["counters"].get("http.bad_request", 0)
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST", "/exec", {"source": "int f(){return 0;}", "entry": "nope"}
            )
        assert excinfo.value.status == 400
        assert excinfo.value.message == "no function 'nope'"
        after = engine.metrics.snapshot()["counters"]["http.bad_request"]
        assert after == before + 1

    @pytest.mark.parametrize(
        ("body", "reason"),
        [
            ("return g(a);", "unknown function 'g'"),
            ("return y;", "undefined variable 'y'"),
            ("int x; cin >> x; return x;", "simulated stdin exhausted"),
        ],
        ids=["undefined-function", "undefined-variable", "stdin-exhausted"],
    )
    def test_refused_program_400(self, service, body, reason):
        client, engine, _ = service
        before = engine.metrics.snapshot()["counters"]
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST", "/exec", {"source": f"int main(int a, int b) {{ {body} }}"}
            )
        assert excinfo.value.status == 400
        assert excinfo.value.message == reason
        after = engine.metrics.snapshot()["counters"]
        assert after["http.bad_request"] == before.get("http.bad_request", 0) + 1
        assert after.get("http.job_failed", 0) == before.get("http.job_failed", 0)

    @pytest.mark.parametrize(
        ("op", "operation"),
        [("/", "integer division"), ("%", "integer modulo")],
        ids=["divide", "modulo"],
    )
    def test_zero_divisor_is_a_simulated_death(self, service, op, operation):
        client, engine, _ = service
        before = engine.metrics.snapshot()["counters"]
        response = client.execute(
            f"int main(int a, int b) {{ return a {op} b; }}", args=[7, 0]
        )
        assert response == {
            "died": True,
            "error": f"arithmetic fault (SIGFPE): {operation} by zero",
            "error_type": "ArithmeticFault",
            "events": [],
        }
        after = engine.metrics.snapshot()["counters"]
        for counter in ("http.bad_request", "http.job_failed"):
            assert after.get(counter, 0) == before.get(counter, 0)

    @pytest.mark.parametrize(
        ("path", "body", "reason"),
        [
            ("/matrix", {"attacks": "data-bss-overflow"}, "'attacks' must be a list of strings"),
            ("/matrix", {"defenses": ["none", 3]}, "'defenses' must be a list of strings"),
            ("/exec", {"args": {"a": 1}}, "'args' must be a list of integers"),
            ("/exec", {"args": [None]}, "'args' must be a list of integers"),
            ("/exec", {"args": [True]}, "'args' must be a list of integers"),
            ("/exec", {"stdin": "12"}, "'stdin' must be a list of integers or strings"),
            ("/exec", {"stdin": [1.5]}, "'stdin' must be a list of integers or strings"),
        ],
        ids=[
            "attacks-string",
            "defenses-int-item",
            "args-object",
            "args-null-item",
            "args-bool-item",
            "stdin-string",
            "stdin-float-item",
        ],
    )
    def test_mistyped_list_field_400(self, service, path, body, reason):
        client, engine, _ = service
        before = engine.metrics.snapshot()["counters"].get("http.bad_request", 0)
        if path == "/exec":
            body = {"source": "int main(int a, int b) { return 0; }", **body}
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", path, body)
        assert excinfo.value.status == 400
        assert excinfo.value.message == reason
        after = engine.metrics.snapshot()["counters"]["http.bad_request"]
        assert after == before + 1

    def test_unknown_attack_400(self, service):
        client, _, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.attacks(attack="nope")
        assert excinfo.value.status == 400
        assert excinfo.value.message == "no attack named 'nope'"

    def test_unknown_matrix_defense_400(self, service):
        client, _, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.matrix(defenses=["bogus"])
        assert excinfo.value.status == 400
        assert "no defense named 'bogus'" in excinfo.value.message

    def test_unknown_matrix_attack_400(self, service):
        client, _, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.matrix(attacks=["bogus"])
        assert excinfo.value.status == 400

    def test_exec_ignores_engine_key(self, service):
        # Older clients still send "engine"; like any unused body key it
        # is ignored, and the response names no engine.
        client, _, _ = service
        response = client._request(
            "POST",
            "/exec",
            {"source": "int main(int a, char b) { return 9; }", "engine": "qemu"},
        )
        assert response["return_value"] == 9
        assert "engine" not in response

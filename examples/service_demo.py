"""A tour of the repro.service job engine and the repro-serve API.

Runs entirely in-process: builds a ServiceEngine, sweeps the corpus in
parallel (cold, then cache-warm), decomposes the E14 matrix into
parallel cell jobs, then starts the HTTP server on an ephemeral port
and talks to it with the stdlib client.

    PYTHONPATH=src python examples/service_demo.py
"""

import tempfile
import threading
import time

from repro.service import ServiceClient, ServiceEngine, create_server

VULN = """
class Student { public: double gpa; int year, semester; };
class GradStudent : public Student { public: int ssn[3]; };
void addStudent(double gpa) {
  Student stud;
  GradStudent *st = new (&stud) GradStudent();
}
"""


def main() -> None:
    # A fresh cache directory per run, so the first sweep is always cold.
    with tempfile.TemporaryDirectory() as cache_dir, ServiceEngine(
        workers=4, cache_dir=cache_dir
    ) as engine:
        # -- parallel corpus sweep, cold vs warm --------------------------
        started = time.perf_counter()
        reports = engine.corpus_sweep()
        cold = time.perf_counter() - started

        started = time.perf_counter()
        engine.corpus_sweep()
        warm = time.perf_counter() - started

        flagged = sum(1 for report in reports if report["flagged"])
        print(f"corpus sweep: {len(reports)} programs, {flagged} flagged")
        print(f"  cold {cold * 1000:.1f}ms → warm {warm * 1000:.1f}ms "
              f"(hit rate {engine.cache.hit_rate:.0%})")

        # -- single analysis (served from cache if repeated) --------------
        report = engine.analyze(VULN, label="listing4")
        print("listing4 findings:", [f["rule"] for f in report["findings"]])

        # -- the E14 matrix as parallel per-cell jobs ---------------------
        matrix = engine.matrix()
        print("attacks succeeding per defense:")
        for defense, wins in matrix["attacks_succeeding"].items():
            print(f"  {defense:20s} {wins}")

        # -- the HTTP front end -------------------------------------------
        server = create_server(engine, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = ServiceClient("http://127.0.0.1:%d" % server.server_address[1])
        print("healthz:", client.healthz())
        response = client.attacks(attack="overflow-via-construction",
                                  env="checked-placement")
        print("via HTTP:", response["name"], "→", response["summary"])
        snapshot = client.metrics()
        print("jobs succeeded:",
              snapshot["counters"]["scheduler.jobs_succeeded"],
              "| cache:", snapshot["cache"]["hits"], "hits /",
              snapshot["cache"]["misses"], "misses")
        server.shutdown()
        server.server_close()


if __name__ == "__main__":
    main()

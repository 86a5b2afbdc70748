"""Reachability inventory: the function bodies in ``src/repro`` that never run.

Runs, in one traced process:

- every console command and subcommand (the fuzz checkpoint resume, the
  regression store's record/rebaseline/gc and the error exits included);
- ``repro-serve`` itself, with one request on every route;
- the E-series (``pytest benchmarks/ --benchmark-disable``, one call per
  benchmark);
- every script under ``examples/``.

It then prints, file by file, each function body that never started,
with its line count, and a total.  A body nested in an unreached body is
counted with its parent, not again.

    python tools/reach.py

Calls are recorded with ``sys.settrace`` and ``threading.settrace``
(``call`` events only; no line tracing).  pytest-benchmark's fixture
pauses both hooks only while it times a round, and a disabled fixture
times none, so the E-series is traced like every other step.  Work done in
child processes (``--backend process`` pools, tests that spawn an
interpreter) is not traced, so each command runs on the in-process
backend.  Uses the standard library only; the E-series step needs
pytest and pytest-benchmark and is skipped with a note when they are
missing.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

_called: set = set()


def _tracer(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _called.add((code.co_filename, code.co_firstlineno))
    return None


def _install() -> None:
    """(Re)install the tracer; a traced step may have cleared it."""
    sys.settrace(_tracer)
    threading.settrace(_tracer)


# -- the inventory -----------------------------------------------------------


def function_bodies(path: Path):
    """Yield ``(first_line, end_line, qualname, parent_first_line)`` for
    every ``def`` in a module; ``first_line`` is what the code object's
    ``co_firstlineno`` reports (the first decorator's line)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def walk(node, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{prefix}{child.name}"
                yield first, child.end_lineno, name, parent
                yield from walk(child, f"{name}.", first)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", parent)
            else:
                yield from walk(child, prefix, parent)

    yield from walk(tree, "", None)


def unreached(called: set) -> dict:
    """``{relative path: [(first_line, lines, qualname), ...]}``."""
    report = {}
    for path in sorted(SRC.rglob("*.py")):
        filename = str(path)
        bodies = list(function_bodies(path))
        missing = {first for first, _, _, _ in bodies if (filename, first) not in called}
        rows = [
            (first, end - first + 1, name)
            for first, end, name, parent in bodies
            if first in missing and parent not in missing
        ]
        if rows:
            report[str(path.relative_to(ROOT))] = rows
    return report


# -- the traced workload -----------------------------------------------------

_FAILURES: list = []


def _step(label: str, func, *args) -> None:
    """Run one step with its output discarded; record, never raise, a failure."""
    _install()
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            func(*args)
    except SystemExit:
        pass
    except Exception as error:  # a step's fault must not end the inventory
        _FAILURES.append(f"{label}: {type(error).__name__}: {error}")


def _cli(name: str, *argv: str) -> None:
    from repro import cli

    _step(f"{name} {' '.join(argv)}", getattr(cli, f"{name}_main"), list(argv))


_PROGRAM = """
class Student { public: double gpa; int year, semester; };
class GradStudent : public Student { public: int ssn[3]; };
int main(int argc, int argv) {
  Student stud;
  int n;
  cin >> n;
  GradStudent *st = new (&stud) GradStudent();
  st->ssn[0] = n;
  return 0;
}
"""


def run_commands(work: Path) -> None:
    from repro.attacks import ALL_ENVIRONMENTS, ATTACK_FACTORIES

    source = work / "program.cpp"
    source.write_text(_PROGRAM, encoding="utf-8")
    broken = work / "broken.cpp"
    broken.write_text("int main( {", encoding="utf-8")
    store = work / "regress"
    shutil.copytree(ROOT / "corpus" / "regress", store)
    packages = str(ROOT / "corpus" / "packages")

    for name in ("attacks", "analyze", "exec", "serve", "fuzz", "matrix", "regress", "score"):
        _cli(name, "--help")

    _cli("attacks", "--list")
    _cli("attacks")
    _cli("attacks", "--matrix")
    _cli("attacks", "--attack", ATTACK_FACTORIES[0]().name, "--verbose")
    _cli("attacks", "--attack", "no-such-attack")
    for environment in ALL_ENVIRONMENTS:
        _cli("attacks", "--env", environment.label, "--verbose")

    _cli("analyze")
    _cli("analyze", "--legacy")
    _cli("analyze", "--json", "--legacy")
    for _ in range(2):  # cold, then warm
        _cli("analyze", "--json", "--cache-dir", str(work / "analyze-cache"))
    _cli("analyze", str(source), str(broken))

    _cli("exec", str(source), "--stdin", "7")
    _cli("exec", str(source), "--stdin", "7", "--canary")
    _cli("exec", str(source), "--entry", "missing")
    _cli("exec", str(broken))

    fuzz = ("--seed", "7", "--iterations", "60", "--batch-size", "20", "--jobs", "0")
    report = str(work / "fuzz.json")
    _cli("fuzz", "run", *fuzz, "--record", str(store), "--out", report)
    _cli("fuzz", "run", *fuzz, "--checkpoint-dir", str(work / "ckpt"), "--stop-after", "1")
    _cli("fuzz", "run", *fuzz, "--checkpoint-dir", str(work / "ckpt"), "--resume", "--json")
    _cli("fuzz", "report", report)
    _cli("fuzz", "report", report, "--json", "--fail-on-untriaged")
    _cli("fuzz", "triage", report)
    divergences = json.loads(Path(report).read_text(encoding="utf-8"))["divergences"]
    if divergences:
        first = divergences[0]
        _cli("fuzz", "triage", report, "--fingerprint", first["fingerprint"], "--note", "x")
        diverging = work / "diverging.cpp"
        diverging.write_text(first["source"], encoding="utf-8")
        stdin = ",".join(str(token) for token in first["stdin"])
        _cli("fuzz", "minimize", str(diverging), "--stdin", stdin)

    _cli("regress", "record", "--store", str(store), "--from-report", report)
    _cli("regress", "record", "--store", str(store), "--source", str(source), "--stdin", "7")
    _cli("regress", "list", "--store", str(store))
    _cli("regress", "replay", "--store", str(store), "--json", "--out", str(work / "drift.json"))
    _cli("regress", "replay", "--store", str(store), "--jobs", "0", "--fail-on-drift")
    _cli("regress", "diff", "--store", str(store))
    _cli("regress", "rebaseline", "--store", str(store))
    (store / "rb-unreadable.json").write_text("{", encoding="utf-8")
    _cli("regress", "list", "--store", str(store))
    _cli("regress", "gc", "--store", str(store), "--dry-run")
    _cli("regress", "gc", "--store", str(store))

    sweep = str(work / "matrix.json")
    _cli("matrix", "run", "--jobs", "0", "--regress-dir", str(store), "--out", sweep)
    _cli("matrix", "run", "--jobs", "0", "--no-regress", "--defenses", "nx", "--json")
    _cli("matrix", "report", sweep)
    _cli("matrix", "report", sweep, "--json")
    _cli("matrix", "diff", str(ROOT / "corpus" / "matrix" / "baseline.json"), sweep)

    ranked = str(work / "rank.json")
    _cli("score", "score", packages)
    _cli("score", "score", packages, "--json")
    _cli("score", "rank", packages, "--json", "--out", ranked)
    _cli("score", "rank", "--demo", "--top", "5")
    _cli("score", "rank", packages, "--attenuation", "0.3", "--json", "--out", str(work / "r3.json"))
    _cli("score", "diff", ranked, str(work / "r3.json"))


def _post(base: str, path: str, body) -> None:
    data = json.dumps(body).encode() if not isinstance(body, bytes) else body
    request = urllib.request.Request(base + path, data=data, method="POST")
    with contextlib.suppress(OSError):
        urllib.request.urlopen(request, timeout=120).read()


def _get(base: str, path: str, accept: str = "") -> bytes:
    request = urllib.request.Request(base + path, headers={"Accept": accept} if accept else {})
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.read()
    except OSError:
        return b""


def _drive_server(base: str) -> None:
    _install()
    for _ in range(100):  # wait for the listener
        if _get(base, "/healthz"):
            break
        time.sleep(0.1)
    else:
        return  # it never listened: repro-serve has already exited
    _post(base, "/analyze", {"source": _PROGRAM, "label": "p", "legacy": True})
    _post(base, "/analyze", {"corpus": True})
    _post(base, "/analyze", b"{not json")
    _post(base, "/attacks", {"attack": "overflow-via-construction"})
    _post(base, "/attacks", {"env": "stackguard"})
    _post(base, "/matrix", {"attacks": ["overflow-via-construction"], "defenses": ["nx"]})
    _post(base, "/exec", {"source": _PROGRAM, "stdin": [7], "canary": True})
    _post(base, "/exec", {"source": "int main( {"})
    _post(base, "/nowhere", {})
    _get(base, "/metrics")
    _get(base, "/metrics?format=prom")
    _get(base, "/metrics", accept="text/plain")
    for key in json.loads(_get(base, "/trace") or b"{}").get("keys", [])[:1]:
        _get(base, f"/trace/{key}")
    _get(base, "/trace/no-such-key")
    _get(base, "/nowhere")
    os.kill(os.getpid(), signal.SIGTERM)  # repro-serve drains as on Ctrl-C


def run_server(work: Path) -> None:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    requests = threading.Thread(target=_drive_server, args=(f"http://127.0.0.1:{port}",))
    requests.start()
    _cli("serve", "--port", str(port), "--workers", "2", "--cache-dir", str(work / "serve-cache"))
    requests.join(timeout=300)


def run_benchmarks() -> None:
    try:
        import pytest
        import pytest_benchmark  # noqa: F401 (the benchmark fixture's plugin)
    except ImportError:
        _FAILURES.append("benchmarks: skipped (pytest and pytest-benchmark are needed)")
        return
    _install()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        status = pytest.main(
            [
                str(ROOT / "benchmarks"),
                "-q",
                "-p",
                "no:cacheprovider",
                "--benchmark-disable",
            ]
        )
    if status != 0:
        summary = sink.getvalue().strip().splitlines()
        _FAILURES.append(f"benchmarks: exit {int(status)}: {summary[-1] if summary else ''}")


def run_examples() -> None:
    for script in sorted((ROOT / "examples").glob("*.py")):
        sys.argv = [str(script)]
        _step(f"example {script.name}", runpy.run_path, str(script), None, "__main__")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    origin = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reach-") as directory:
        work = Path(directory)
        os.chdir(work)  # commands and examples write their files here
        try:
            run_commands(work)
            run_server(work)
            run_examples()
            os.chdir(ROOT)  # benchmarks read corpus/ relative to the root
            run_benchmarks()
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.chdir(origin)

    report = unreached(_called)
    total_bodies = total_lines = 0
    for path, rows in report.items():
        lines = sum(count for _, count, _ in rows)
        total_bodies += len(rows)
        total_lines += lines
        print(f"{path}: {len(rows)} unreached, {lines} lines")
        for first, count, name in rows:
            print(f"  {first:5d}  {name} ({count})")
    print(f"total: {total_bodies} function bodies ({total_lines:,} lines) never ran")
    for failure in _FAILURES:
        print(f"note: {failure}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

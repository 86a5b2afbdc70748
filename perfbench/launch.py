"""Run one workload command in this fresh interpreter.

Usage: ``python3 perfbench/launch.py SPEC.json``.  The spec names the
program's ``src`` directory, the ``repro.cli`` entry function and its
argv, the function whose first call starts the first unit of work, and
whether to trace.  The program's source is used as shipped: the only
wrapper in an untraced run is a one-shot stamp on that first-unit
function, which unbinds itself on its first call.

Timings go to ``timing.json`` beside the spec; a traced run also writes
its spans there, once, after every original function is restored.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

from spans import SpanRecorder


def _stamp_first_call(module_name: str, attribute: str, stamp: dict) -> None:
    """Record the clocks at the first call of ``module.attribute``."""
    binder = SpanRecorder()
    lock = threading.Lock()

    def make(original):
        def first(*args, **kwargs):
            with lock:
                if not stamp:
                    stamp["monotonic"] = time.monotonic()
                    stamp["perf"] = time.perf_counter()
                    binder.restore()
            return original(*args, **kwargs)

        return binder.register(first, original)

    binder.patch_function(module_name, attribute, make)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"launch: repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 3
    recorder = None
    if spec["trace"]:
        import layers

        recorder = SpanRecorder()
        layers.install(recorder)
    module_name, attribute = spec["first_unit"]
    importlib.import_module(module_name)
    stamp: dict = {}
    _stamp_first_call(module_name, attribute, stamp)
    entry = getattr(importlib.import_module("repro.cli"), spec["entry"])
    try:
        code = entry(spec["argv"])
    finally:
        main_end = time.perf_counter()
        timing = {
            "setup_end": stamp.get("monotonic"),
            "setup_end_perf": stamp.get("perf"),
            "main_end_perf": main_end,
        }
        if recorder is not None:
            recorder.restore()
            from repro.analysis import analysis_cache_stats

            recorder.extras["analysis_cache"] = analysis_cache_stats()
            recorder.dump(spec["spans"])
        Path(spec_path).with_name("timing.json").write_text(json.dumps(timing))
    return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

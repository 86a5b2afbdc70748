"""Outside-in span recorder for the traced run.

The recorder wraps named functions and methods of the program from the
benchmark's own files; the program's source is never edited.  A wrapped
module-level function is rebound in every ``repro`` module that holds
it (``parse``, for example, is bound in the parser, the analysis cache,
the fuzz oracles, the interpreter and the mutator), so every call site
sees the wrapper.  :meth:`SpanRecorder.restore` puts every original
back, including in modules imported after the wrappers were installed.

Three kinds of wrapper keep the cost proportional to what is needed:

* ``span`` -- a span per call: name, wall start and end, thread CPU
  seconds, parent, input id, thread, status and an optional value
  (steps run, bytes written).
  Calls marked ``boundary`` open a new input id (a fuzz input, a
  matrix cell, a package); nested spans inherit it.
* ``fold`` -- a hot leaf timed without a span: its CPU time is added to
  the enclosing span's ``folded`` field, so that span's self time
  excludes it, and to a per-name total.
* ``count`` -- a hot leaf that is only counted.

Self time is thread CPU time.  Worker threads share one interpreter
lock, so a span's wall interval also holds the time other threads ran;
its thread's CPU time does not.  Wall times place spans on the timeline
(latencies, coverage of ``run_s``).

Spans stay in memory and are written once, by :meth:`dump`.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time

#: Span record fields, in the order :meth:`SpanRecorder.dump` writes them.
FIELDS = ("id", "parent", "name", "start", "end", "cpu", "input", "thread",
          "folded", "status", "value")


class _ThreadState:
    __slots__ = ("stack", "counts", "folded")

    def __init__(self):
        self.stack = []  # open frames: [span id, folded seconds, input id]
        self.counts = {}
        self.folded = {}  # name -> [calls, seconds]


class SpanRecorder:
    """Wraps program functions and records what their calls cost."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans = []
        self.samples = {}  # name -> observed values (e.g. queue waits)
        self.extras = {}  # end-of-run snapshots keyed by name
        self._ids = itertools.count(1)
        self._inputs = itertools.count(1)
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._patches = []  # (owner, attribute, original)
        self._originals = {}  # id(wrapper) -> (wrapper, original)

    # -- per-thread state --------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, boundary=False, value=None):
        """``fn`` recording one span per call.

        ``value(args, result)`` runs after every call, also when ``fn``
        raised (``result`` is then ``None``), and its return value is
        stored on the span.
        """
        recorder, clock, cpu_clock = self, self.clock, self.cpu_clock
        ids, inputs = self._ids, self._inputs
        spans = self.spans

        def wrapper(*args, **kwargs):
            stack = recorder._state().stack
            parent = stack[-1] if stack else None
            sid = next(ids)
            if boundary:
                input_id = next(inputs)
            else:
                input_id = parent[2] if parent is not None else 0
            frame = [sid, 0.0, input_id]
            stack.append(frame)
            status = "ok"
            result = None
            start = clock()
            cpu_start = cpu_clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                status = type(error).__name__
                raise
            finally:
                cpu = cpu_clock() - cpu_start
                end = clock()
                stack.pop()
                spans.append((
                    sid,
                    parent[0] if parent is not None else 0,
                    name,
                    start,
                    end,
                    cpu,
                    input_id,
                    threading.get_ident(),
                    frame[1],
                    status,
                    value(args, result) if value is not None else None,
                ))

        return self.register(wrapper, fn)

    def fold(self, name, fn):
        """``fn`` timed into its enclosing span, without a span of its own."""
        recorder, clock = self, self.cpu_clock

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                state = recorder._state()
                if state.stack:
                    state.stack[-1][1] += elapsed
                total = state.folded.get(name)
                if total is None:
                    state.folded[name] = [1, elapsed]
                else:
                    total[0] += 1
                    total[1] += elapsed

        return self.register(wrapper, fn)

    def count(self, name, fn):
        """``fn`` counted per call."""
        recorder = self

        def wrapper(*args, **kwargs):
            counts = recorder._state().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return self.register(wrapper, fn)

    def sample(self, name, value):
        """Record one observed value under ``name`` (thread-safe)."""
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def register(self, wrapper, fn):
        """Mark ``wrapper`` as standing for ``fn``, so :meth:`restore` can
        undo bindings made after patching."""
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        self._originals[id(wrapper)] = (wrapper, fn)
        return wrapper

    # -- installing --------------------------------------------------------

    def patch_function(self, module_name: str, attribute: str, make) -> None:
        """Replace a module-level function everywhere it is bound.

        ``make(original)`` builds the wrapper.  Every loaded module in
        the same top-level package that holds the original under any
        name is rebound to the wrapper.
        """
        module = sys.modules[module_name]
        original = getattr(module, attribute)
        wrapper = make(original)
        package = module_name.split(".")[0]
        for holder in _package_modules(package):
            for key, held in list(vars(holder).items()):
                if held is original:
                    setattr(holder, key, wrapper)
                    self._patches.append((holder, key, original))

    def patch_method(self, cls, attribute: str, make) -> None:
        """Replace a method defined on ``cls`` itself."""
        original = cls.__dict__[attribute]
        setattr(cls, attribute, make(original))
        self._patches.append((cls, attribute, original))

    def restore(self) -> None:
        """Put every original back, newest patch first.

        Modules imported after the wrappers went in may have bound a
        wrapper by ``from ... import``; those bindings are reset too.
        """
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        packages = {
            getattr(owner, "__name__", "").split(".")[0]
            for owner, _, _ in self._patches
            if isinstance(owner, type(sys))
        }
        for package in packages:
            for holder in _package_modules(package):
                for key, held in list(vars(holder).items()):
                    entry = self._originals.get(id(held))
                    if entry is not None and entry[0] is held:
                        setattr(holder, key, entry[1])
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def counts(self) -> dict:
        merged: dict = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, value in state.counts.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def folded(self) -> dict:
        merged: dict = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, seconds) in state.folded.items():
                total = merged.setdefault(name, [0, 0.0])
                total[0] += calls
                total[1] += seconds
        return merged

    def dump(self, path, **extra) -> None:
        """Write every span, count and sample once, as one JSON document."""
        document = {
            "fields": FIELDS,
            "spans": self.spans,
            "counts": self.counts(),
            "folded": self.folded(),
            "samples": self.samples,
            "extras": self.extras,
        }
        document.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def _package_modules(package: str) -> list:
    prefix = package + "."
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == package or name.startswith(prefix))
    ]


# -- deriving numbers from spans ---------------------------------------------


def load_spans(records) -> list:
    """Span records (lists, as dumped) as dicts keyed by :data:`FIELDS`."""
    return [dict(zip(FIELDS, record)) for record in records]


def self_times(spans) -> dict:
    """Self CPU seconds per span id: the span's thread CPU time minus
    that of its child spans and folded leaves.

    A child always runs on its parent's thread, inside the parent's
    interval, and siblings never overlap, so the children's summed CPU
    time is exactly the part of the parent's they account for.
    """
    covered: dict = {}
    for span in spans:
        if span["parent"]:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + span["cpu"]
    return {
        span["id"]: span["cpu"] - covered.get(span["id"], 0.0) - span["folded"]
        for span in spans
    }


def union_seconds(intervals, low=None, high=None) -> float:
    """Length of the union of ``(start, end)`` intervals, clipped to
    ``[low, high]`` when given."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if low is not None:
            start = max(start, low)
        if high is not None:
            end = min(end, high)
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def ancestors(spans) -> dict:
    """Span id -> tuple of ancestor names, nearest first."""
    by_id = {span["id"]: span for span in spans}
    chains: dict = {}
    for span in spans:
        chain = []
        parent = span["parent"]
        while parent:
            owner = by_id.get(parent)
            if owner is None:
                break
            chain.append(owner["name"])
            parent = owner["parent"]
        chains[span["id"]] = tuple(chain)
    return chains

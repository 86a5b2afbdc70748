"""E21 — memory-simulator and analysis-pipeline hot-path micro-benchmarks.

Every attack, defense, forensics pass and service job funnels through
``AddressSpace.read``/``write``, and every analysis job funnels through
``analyze_source`` — so these two paths are the tax on the whole E1–E20
suite.  This file times them directly:

* raw 4-byte read/write throughput with **no observers** (the zero-hook
  fast path) and with a counting hook armed (the dispatch cost any
  runtime defense pays),
* NUL-terminated string scans (``read_c_string``),
* bulk sanitization fills (``fill``),
* cold vs. warm ``analyze_source`` (the content-hash AST/report cache).

The shape tests assert the semantics the fast path must preserve: a
registered hook still observes *every* accessed byte, and a warm
re-analysis reports exactly what the cold one did.

The timings are printed, not gated; the end-to-end cost of every
workload these paths serve is measured by ``perfbench/run.py`` (see
``BENCHMARK.json``).
"""

from __future__ import annotations

import pytest

from repro import analysis
from repro.analysis import analyze_source
from repro.memory import AddressSpace, SegmentKind
from repro.workloads.corpus import FULL_CORPUS

#: 4-byte accesses per benchmark round.
ACCESSES_PER_ROUND = 256

#: The largest corpus program: the heaviest single parse+analyze job.
ANALYZE_SOURCE = max((program.source for program in FULL_CORPUS), key=len)


def _clear_analysis_caches() -> None:
    """Drop the AST/report caches (no-op on trees that predate them)."""
    clear = getattr(analysis, "clear_analysis_caches", None)
    if clear is not None:
        clear()


@pytest.fixture
def space():
    return AddressSpace()


def _access_loop(space, base):
    write, read = space.write, space.read
    payload = b"\xab\xcd\xef\x01"
    for i in range(ACCESSES_PER_ROUND):
        offset = base + (i * 16) % 4096
        write(offset, payload)
        read(offset, 4)


def test_e21_raw_access_unhooked(benchmark, space):
    """4-byte write+read pairs with no observers registered."""
    base = space.segment(SegmentKind.HEAP).base
    benchmark(_access_loop, space, base)
    assert space.read(base, 4) == b"\xab\xcd\xef\x01"


def test_e21_raw_access_hooked(benchmark, space):
    """The same loop with a counting hook armed — and verified complete."""
    base = space.segment(SegmentKind.HEAP).base
    events = []
    space.add_access_hook(lambda addr, data, is_write: events.append(is_write))

    # Pre-flight: one un-timed round must notify once per access.
    _access_loop(space, base)
    assert len(events) == 2 * ACCESSES_PER_ROUND
    assert sum(events) == ACCESSES_PER_ROUND  # half writes, half reads

    events.clear()
    benchmark(_access_loop, space, base)
    assert events and len(events) % (2 * ACCESSES_PER_ROUND) == 0


def test_e21_c_string_scan(benchmark, space):
    """Scanning a 2 KiB NUL-terminated string out of the heap."""
    base = space.segment(SegmentKind.HEAP).base
    text = "A" * 2048
    space.write_c_string(base, text)
    result = benchmark(space.read_c_string, base, 4096)
    assert result == text


def test_e21_fill(benchmark, space):
    """memset-style sanitization of a 4 KiB arena."""
    base = space.segment(SegmentKind.HEAP).base
    benchmark(space.fill, base, 4096, 0)
    assert space.read(base + 4000, 8) == b"\x00" * 8


def test_e21_analyze_cold(benchmark):
    """Full lex+parse+analyze of the heaviest corpus program."""

    def cold():
        _clear_analysis_caches()
        return analyze_source(ANALYZE_SOURCE)

    report = benchmark(cold)
    assert report.findings  # the corpus program is vulnerable by design


def test_e21_analyze_warm(benchmark):
    """Re-analysis of an already-seen source (content-hash cache hit)."""
    _clear_analysis_caches()
    analyze_source(ANALYZE_SOURCE)  # prime
    report = benchmark(analyze_source, ANALYZE_SOURCE)
    assert report.findings


# -- shape: semantics the fast path must not change -------------------------


def test_e21_shape_hooks_observe_every_byte():
    """With a hook armed, every byte of every access is observed —
    including bulk fills and c-string scans on the fast path."""
    space = AddressSpace()
    base = space.segment(SegmentKind.HEAP).base
    reads: list = []
    writes: list = []

    def hook(address, data, is_write):
        (writes if is_write else reads).append((address, len(data), bytes(data)))

    space.add_access_hook(hook)

    space.write(base, b"hello")
    space.read(base, 5)
    space.fill(base + 64, 128, 0xAA)
    space.write_c_string(base + 256, "observe me")
    reads.clear()
    space.read_c_string(base + 256)

    # The write and the fill were observed with their exact bytes.
    assert (base, 5, b"hello") in writes
    fill_events = [w for w in writes if w[0] == base + 64]
    assert fill_events and fill_events[0][2] == b"\xaa" * 128

    # Every byte of the scanned string (and its terminator) was observed
    # as read, whether the scan was notified per-byte or in bulk.
    observed = set()
    for address, length, _ in reads:
        observed.update(range(address, address + length))
    expected = set(range(base + 256, base + 256 + len("observe me") + 1))
    assert expected <= observed


def test_e21_shape_warm_equals_cold():
    """The cached re-analysis reports exactly what the cold run did."""
    _clear_analysis_caches()
    cold = analyze_source(ANALYZE_SOURCE)
    warm = analyze_source(ANALYZE_SOURCE)
    assert warm.tool == cold.tool
    assert warm.render() == cold.render()
    assert warm.rules_fired() == cold.rules_fired()

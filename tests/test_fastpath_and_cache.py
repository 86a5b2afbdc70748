"""Fast-path semantics: bisect segment lookup and the analysis caches.

The PR 3 hot paths must be invisible — identical faults, identical hook
traffic, identical findings — so these tests pin the edges: lookups
exactly at segment ``base`` and ``end - 1``, gap addresses between
segments, permission and straddle faults through the inlined path, and
warm-vs-cold equality for the memoized analysis pipeline.
"""

import pytest

from repro.analysis import (
    analysis_cache_stats,
    analyze_source,
    cached_report,
    clear_analysis_caches,
    parse_cached,
    run_tool_suite,
    simulated_tool_suite,
)
from repro.analysis.reports import AnalysisReport, Finding, Severity
from repro.errors import ApiMisuseError, SegmentationFault
from repro.memory import AddressSpace, Permissions, SegmentKind


@pytest.fixture
def space():
    return AddressSpace()


@pytest.fixture(autouse=True)
def _fresh_analysis_caches():
    clear_analysis_caches()
    yield
    clear_analysis_caches()


PLACEMENT_SOURCE = """
class Student { public: double gpa; int id; char name[8]; };
class Staff { public: double salary; int id; char name[40]; };
int main() {
    char arena[16];
    Staff *st = new (arena) Staff();
    return 0;
}
"""

LEGACY_SOURCE = """
int main() {
    char buf[16];
    char fmt[8];
    strcpy(buf, "hello");
    printf(fmt);
    return 0;
}
"""


class TestBisectLookupEdges:
    def test_segments_are_address_ordered(self, space):
        bases = [seg.base for seg in space.segments]
        assert bases == sorted(bases)
        assert len(bases) == len(set(bases))

    def test_find_segment_at_base_and_last_byte(self, space):
        for seg in space.segments:
            assert space.find_segment(seg.base) is seg
            assert space.find_segment(seg.end - 1) is seg

    def test_find_segment_misses(self, space):
        first = space.segments[0]
        assert space.find_segment(first.base - 1) is None
        assert space.find_segment(0) is None
        for seg, after in zip(space.segments, space.segments[1:]):
            if seg.end < after.base:  # a gap exists between them
                assert space.find_segment(seg.end) is None

    def test_read_write_at_base_and_end_minus_one(self, space):
        for kind in (SegmentKind.DATA, SegmentKind.HEAP, SegmentKind.STACK):
            seg = space.segment(kind)
            space.write(seg.base, b"\x5a")
            assert space.read(seg.base, 1) == b"\x5a"
            space.write(seg.end - 1, b"\xa5")
            assert space.read(seg.end - 1, 1) == b"\xa5"

    def test_access_one_past_end_is_unmapped_or_outside(self, space):
        heap = space.segment(SegmentKind.HEAP)
        with pytest.raises(SegmentationFault):
            space.read(heap.end, 1)
        with pytest.raises(SegmentationFault):
            space.write(heap.end, b"x")

    def test_straddle_keeps_precise_fault_message(self, space):
        heap = space.segment(SegmentKind.HEAP)
        with pytest.raises(SegmentationFault, match="outside heap segment"):
            space.read(heap.end - 2, 4)
        with pytest.raises(SegmentationFault, match="outside heap segment"):
            space.write(heap.end - 2, b"\x00" * 4)

    def test_permission_faults_survive_fast_path(self, space):
        text = space.segment(SegmentKind.TEXT)
        with pytest.raises(SegmentationFault, match="not writable"):
            space.write(text.base, b"\x90")
        # Reads of text stay fine (r-x).
        assert space.read(text.base, 4) == b"\x00\x00\x00\x00"

    def test_alternating_segments_defeat_locality_cache_safely(self, space):
        """Ping-pong across segments: the last-hit cache must never
        serve a stale segment."""
        heap = space.segment(SegmentKind.HEAP)
        stack = space.segment(SegmentKind.STACK)
        for round_no in range(8):
            space.write(heap.base + round_no, bytes([round_no]))
            space.write(stack.base + round_no, bytes([0xF0 | round_no]))
        for round_no in range(8):
            assert space.read(heap.base + round_no, 1) == bytes([round_no])
            assert space.read(stack.base + round_no, 1) == bytes([0xF0 | round_no])

    def test_unmapped_between_segments_faults_both_ways(self, space):
        data = space.segment(SegmentKind.DATA)
        bss = space.segment(SegmentKind.BSS)
        if data.end < bss.base:
            gap = data.end
            with pytest.raises(SegmentationFault, match="unmapped"):
                space.read(gap, 1)
            with pytest.raises(SegmentationFault, match="unmapped"):
                space.write(gap, b"x")

    def test_zero_length_access_at_one_past_end_faults(self, space):
        """A 0-byte access at an unmapped address is still a fault —
        `read(end, 0)` must not sneak through the fast path."""
        heap = space.segment(SegmentKind.HEAP)
        with pytest.raises(SegmentationFault, match="unmapped"):
            space.read(heap.end, 0)
        with pytest.raises(SegmentationFault, match="unmapped"):
            space.write(heap.end, b"")
        stack = space.segment(SegmentKind.STACK)
        with pytest.raises(SegmentationFault, match="unmapped"):
            space.read(stack.end, 0)

    def test_zero_length_access_inside_segment_is_fine(self, space):
        heap = space.segment(SegmentKind.HEAP)
        assert space.read(heap.base, 0) == b""
        space.write(heap.end - 1, b"")  # no fault


class TestHookTrafficOnFastPath:
    def test_bytearray_write_notifies_bytes_once(self, space):
        events = []
        space.add_access_hook(lambda a, d, w: events.append((a, d, w)))
        base = space.segment(SegmentKind.HEAP).base
        payload = bytearray(b"abc")
        space.write(base, payload)
        assert events == [(base, b"abc", True)]
        assert isinstance(events[0][1], bytes)

    def test_fill_notifies_expanded_pattern(self, space):
        events = []
        space.add_access_hook(lambda a, d, w: events.append((a, d, w)))
        base = space.segment(SegmentKind.BSS).base
        space.fill(base, 32, 0xCC)
        assert events == [(base, b"\xcc" * 32, True)]

    def test_fill_negative_length_is_noop(self, space):
        base = space.segment(SegmentKind.BSS).base
        space.write(base, b"keep")
        space.fill(base, -8)
        assert space.read(base, 4) == b"keep"

    def test_fill_rejects_out_of_range_byte(self, space):
        base = space.segment(SegmentKind.BSS).base
        with pytest.raises(ApiMisuseError):
            space.fill(base, 4, 256)

    def test_read_c_string_hook_covers_string_and_nul(self, space):
        events = []
        base = space.segment(SegmentKind.HEAP).base
        space.write_c_string(base, "alice")
        space.add_access_hook(lambda a, d, w: events.append((a, d, w)))
        assert space.read_c_string(base) == "alice"
        assert events == [(base, b"alice\x00", False)]


class TestReadCStringEdges:
    def test_unterminated_to_segment_end_faults_at_end(self, space):
        heap = space.segment(SegmentKind.HEAP)
        start = heap.end - 8
        space.write(start, b"\x41" * 8)  # no NUL before the segment ends
        with pytest.raises(SegmentationFault) as info:
            space.read_c_string(start)
        assert info.value.address == heap.end

    def test_max_length_caps_scan_without_fault(self, space):
        base = space.segment(SegmentKind.HEAP).base
        space.write(base, b"\x42" * 64)
        assert space.read_c_string(base, max_length=8) == "B" * 8

    def test_string_ending_at_last_byte(self, space):
        heap = space.segment(SegmentKind.HEAP)
        start = heap.end - 4
        space.write(start, b"abc\x00")
        assert space.read_c_string(start) == "abc"

    def test_string_straddling_adjacent_segments(self, space):
        """data and bss are contiguous in DEFAULT_LAYOUT: a string
        overflowing data must read through into bss, exactly as the old
        per-byte loop did (this is the paper's data→bss overflow
        scenario)."""
        data = space.segment(SegmentKind.DATA)
        bss = space.segment(SegmentKind.BSS)
        assert data.end == bss.base  # layout precondition
        space.write(data.end - 3, b"ABC")
        space.write(bss.base, b"DE\x00")
        assert space.read_c_string(data.end - 3) == "ABCDE"

    def test_straddling_string_notifies_whole_range_once(self, space):
        data = space.segment(SegmentKind.DATA)
        bss = space.segment(SegmentKind.BSS)
        space.write(data.end - 3, b"ABC")
        space.write(bss.base, b"DE\x00")
        events = []
        space.add_access_hook(lambda a, d, w: events.append((a, d, w)))
        space.read_c_string(data.end - 3)
        assert events == [(data.end - 3, b"ABCDE\x00", False)]

    def test_straddling_string_respects_max_length(self, space):
        data = space.segment(SegmentKind.DATA)
        bss = space.segment(SegmentKind.BSS)
        space.write(data.end - 2, b"AB")
        space.write(bss.base, b"CDEF\x00")
        assert space.read_c_string(data.end - 2, max_length=4) == "ABCD"

    def test_string_into_unreadable_next_segment_faults_at_boundary(self):
        space = AddressSpace()
        # Make bss unreadable so the data→bss crossing must fault.
        bss = space.segment(SegmentKind.BSS)
        bss.permissions = Permissions(read=False, write=True, execute=False)
        bss._readable = False
        space._rebuild_index()
        data = space.segment(SegmentKind.DATA)
        space.write(data.end - 4, b"\x41" * 4)
        with pytest.raises(SegmentationFault, match="not readable") as info:
            space.read_c_string(data.end - 4)
        assert info.value.address == data.end


class TestAnalysisCaches:
    def test_warm_equals_cold(self):
        cold = analyze_source(PLACEMENT_SOURCE)
        warm = analyze_source(PLACEMENT_SOURCE)
        assert warm.render() == cold.render()
        assert warm.rules_fired() == cold.rules_fired()
        assert "PN-OVERSIZE" in warm.rules_fired()

    def test_warm_hit_is_recorded(self):
        analyze_source(PLACEMENT_SOURCE)
        before = analysis_cache_stats()["reports"]["hits"]
        analyze_source(PLACEMENT_SOURCE)
        assert analysis_cache_stats()["reports"]["hits"] == before + 1

    def test_cached_reports_are_not_aliased(self):
        first = analyze_source(PLACEMENT_SOURCE)
        first.add(
            Finding(
                rule="X-INJECTED",
                severity=Severity.INFO,
                message="caller-side mutation",
                line=1,
            )
        )
        second = analyze_source(PLACEMENT_SOURCE)
        assert "X-INJECTED" not in second.rules_fired()

    def test_parse_cached_shares_the_ast(self):
        assert parse_cached(PLACEMENT_SOURCE) is parse_cached(PLACEMENT_SOURCE)

    def test_clear_drops_entries(self):
        parse_cached(PLACEMENT_SOURCE)
        analyze_source(PLACEMENT_SOURCE)
        clear_analysis_caches()
        stats = analysis_cache_stats()
        assert stats["ast"]["entries"] == 0
        assert stats["reports"]["entries"] == 0

    def test_version_keying_recomputes(self):
        calls = []

        def build(program):
            calls.append(1)
            return AnalysisReport(tool="t")

        cached_report("tool-x", "1", PLACEMENT_SOURCE, build)
        cached_report("tool-x", "1", PLACEMENT_SOURCE, build)
        assert len(calls) == 1  # same version: warm
        cached_report("tool-x", "2", PLACEMENT_SOURCE, build)
        assert len(calls) == 2  # bumped version: recomputed

    def test_parse_errors_are_not_cached(self):
        bad = "int main() { return 0"  # unbalanced
        with pytest.raises(Exception):
            parse_cached(bad)
        with pytest.raises(Exception):
            parse_cached(bad)
        assert analysis_cache_stats()["ast"]["entries"] == 0

    def test_run_tool_suite_matches_per_scanner_scan(self):
        projected = dict(run_tool_suite(LEGACY_SOURCE))
        for scanner in simulated_tool_suite():
            individual = scanner.scan_source(LEGACY_SOURCE)
            assert projected[scanner.name].render() == individual.render()
            assert all(
                finding.tool == scanner.name
                for finding in projected[scanner.name].findings
            )

    def test_same_name_same_rule_id_different_matcher_not_shared(self):
        """Two scanners may not share cache entries just because their
        names and rule ids collide — the matcher is part of the key."""
        from repro.analysis.legacy_tools import CLASSIC_RULES, LegacyRule, LegacyRuleScanner

        classic = LegacyRuleScanner(name="clone", rules=(CLASSIC_RULES[0],))
        reuses_id = LegacyRuleScanner(
            name="clone",
            rules=(
                LegacyRule(
                    rule_id=CLASSIC_RULES[0].rule_id,
                    severity=Severity.WARNING,
                    message="flag every printf",
                    matcher=lambda expr: getattr(expr, "func", None) == "printf",
                ),
            ),
        )
        first = classic.scan_source(LEGACY_SOURCE)
        second = reuses_id.scan_source(LEGACY_SOURCE)
        assert {f.line for f in first.findings} == {5}  # the strcpy call
        assert {f.line for f in second.findings} == {6}  # the printf call

    def test_identical_rule_tuples_still_share_cache(self):
        """The content-keyed fingerprint must not defeat caching for
        scanners built fresh with equal rules (simulated_tool_suite
        builds new tuples per call)."""
        from repro.analysis.legacy_tools import CLASSIC_RULES, LegacyRuleScanner

        LegacyRuleScanner(name="twin", rules=tuple(CLASSIC_RULES)).scan_source(
            LEGACY_SOURCE
        )
        before = analysis_cache_stats()["reports"]["hits"]
        LegacyRuleScanner(name="twin", rules=tuple(CLASSIC_RULES)).scan_source(
            LEGACY_SOURCE
        )
        assert analysis_cache_stats()["reports"]["hits"] == before + 1

    def test_rule_signature_is_computed_once_per_rule_tuple(self, monkeypatch):
        """Scanning many sources re-hashes no rule: the signature of a
        rule tuple is computed on its first scan only."""
        from repro.analysis import legacy_tools

        rules = tuple(legacy_tools.CLASSIC_RULES)
        calls = []
        fingerprint = legacy_tools._rule_fingerprint
        monkeypatch.setattr(
            legacy_tools,
            "_rule_fingerprint",
            lambda rule: calls.append(rule) or fingerprint(rule),
        )
        for index in range(5):
            legacy_tools.LegacyRuleScanner(name="once", rules=rules).scan_source(
                LEGACY_SOURCE + f"\nvoid extra{index}() {{}}\n"
            )
        assert len(calls) <= len(rules)

    def test_report_dedup_with_preloaded_findings(self):
        finding = Finding(
            rule="R", severity=Severity.ERROR, message="m", line=3, function="f"
        )
        report = AnalysisReport(tool="t", findings=[finding])
        report.add(finding)  # duplicate of a constructor-supplied finding
        assert len(report.findings) == 1
        report.add(
            Finding(rule="R", severity=Severity.ERROR, message="m", line=4, function="f")
        )
        assert len(report.findings) == 2


class TestParseOnce:
    """Every consumer of a source shares one memoized parse.

    The counter patches ``Parser.parse_program`` on the class, so a parse
    is seen whichever module-level ``parse`` binding triggered it.
    """

    @pytest.fixture
    def parses(self, monkeypatch):
        from repro.analysis.parser import Parser

        programs = []
        original = Parser.parse_program

        def counting(self):
            program = original(self)
            programs.append(program)
            return program

        monkeypatch.setattr(Parser, "parse_program", counting)
        return programs

    @staticmethod
    def _seed():
        from repro.fuzz.seeds import generator_seeds

        return next(
            entry
            for entry in generator_seeds(7)
            if entry.family == "direct" and entry.label == "vulnerable"
        )

    def test_run_oracles_parses_a_fresh_source_once(self, parses):
        from repro.fuzz.oracles import run_oracles

        seed = self._seed()
        first = run_oracles(seed.source, seed.stdin)
        assert len(parses) == 1
        assert run_oracles(seed.source, seed.stdin) == first
        assert len(parses) == 1

    def test_mutant_is_parsed_once_from_mutate_to_oracles(self, parses):
        import random

        from repro.fuzz.mutator import mutate
        from repro.fuzz.oracles import run_oracles

        parent = self._seed()
        # Find an rng seed whose mutation rewrites the program.
        rng_seed = next(
            n
            for n in range(200)
            if (m := mutate(random.Random(n), parent)) is not None
            and m.source != parent.source
        )
        clear_analysis_caches()
        parse_cached(parent.source)
        del parses[:]
        mutant = mutate(random.Random(rng_seed), parent)
        run_oracles(mutant.source, mutant.stdin)
        assert len(parses) == 1

    def test_program_row_is_parsed_once_across_the_roster(self, parses):
        from repro.defenses import ALL_DEFENSES
        from repro.matrix.sweep import run_program_cell

        seed = self._seed()
        cells = [
            run_program_cell(seed.source, seed.stdin, defense.name)
            for defense in ALL_DEFENSES
        ]
        assert len(cells) == len(ALL_DEFENSES) > 1
        assert len(parses) == 1

    def test_minimizer_parses_each_candidate_at_most_once(self, parses):
        from collections import Counter

        from repro.fuzz.minimize import minimize_input
        from repro.fuzz.oracles import run_oracles
        from repro.fuzz.seeds import seed_inputs

        diverging, kind = next(
            (entry, kind)
            for entry in seed_inputs(7)
            if (kind := run_oracles(entry.source, entry.stdin).divergence_kind)
        )
        del parses[:]
        smallest = minimize_input(
            diverging,
            lambda c: run_oracles(c.source, c.stdin).divergence_kind == kind,
        )
        assert smallest.source != diverging.source  # the minimizer did work
        assert parses  # ... and had candidates to parse
        assert max(Counter(parses).values()) == 1


class TestSharedAstConcurrency:
    """One cached ``Program`` observed from many threads at once."""

    @staticmethod
    def _observe_from_threads(source, stdin, count=4):
        import sys
        import threading

        from repro.fuzz.oracles import run_oracles

        barrier = threading.Barrier(count)
        results = [None] * count

        def worker(index):
            barrier.wait(timeout=30)
            results[index] = run_oracles(source, stdin)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(count)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        return results

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_threads_observe_what_a_sequential_run_observes(self, warm):
        from repro.fuzz.oracles import run_oracles
        from repro.fuzz.seeds import seed_inputs

        for entry in seed_inputs(7)[:6]:
            clear_analysis_caches()
            expected = run_oracles(entry.source, entry.stdin)
            clear_analysis_caches()
            if warm:
                # A freshly cached tree: its lazy name index is built by
                # whichever thread looks a function up first.
                program = parse_cached(entry.source)
                assert "_function_index" not in vars(program)
            observed = self._observe_from_threads(entry.source, entry.stdin)
            assert observed == [expected] * 4, entry.family

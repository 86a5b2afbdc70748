"""Tests for the placement-new detector and legacy tools."""

import pytest

from repro.analysis import (
    Severity,
    SymbolTable,
    analyze_source,
    parse,
    simulated_tool_suite,
)
from repro.workloads.corpus import (
    CLASSIC_CORPUS,
    PLACEMENT_CORPUS,
    SAFE_CORPUS,
)


class TestSymbolTable:
    def test_sizeof_matches_simulator(self):
        from repro.workloads.corpus import LISTING_4

        symbols = SymbolTable(parse(LISTING_4.source))
        assert symbols.sizeof_name("Student") == 16
        assert symbols.sizeof_name("GradStudent") == 32
        assert symbols.sizeof_name("int") == 4
        assert symbols.sizeof_name("double") == 8

    def test_virtual_classes_grow_by_vptr(self):
        from repro.workloads.corpus import VTABLE_VARIANT

        symbols = SymbolTable(parse(VTABLE_VARIANT.source))
        assert symbols.sizeof_name("Student") == 24
        assert symbols.sizeof_name("GradStudent") == 40
        assert symbols.is_polymorphic("Student")

    def test_pointer_sizes(self):
        symbols = SymbolTable(parse("class A { public: int x; };"))
        assert symbols.sizeof_name("A*") == 4

    def test_unknown_type_is_none(self):
        symbols = SymbolTable(parse("class A { public: int x; };"))
        assert symbols.sizeof_name("Mystery") is None


class TestDetectorRules:
    @pytest.mark.parametrize(
        "program", PLACEMENT_CORPUS, ids=lambda p: p.key
    )
    def test_expected_rules_fire(self, program):
        report = analyze_source(program.source)
        fired = report.rules_fired()
        missing = set(program.expected_rules) - fired
        assert not missing, f"{program.key}: missing {missing}, fired {fired}"

    @pytest.mark.parametrize("program", SAFE_CORPUS, ids=lambda p: p.key)
    def test_no_false_positives_on_safe_code(self, program):
        report = analyze_source(program.source)
        noisy = report.at_least(Severity.WARNING)
        assert not noisy, [f.render() for f in noisy]

    def test_oversize_message_carries_sizes(self):
        from repro.workloads.corpus import LISTING_4

        report = analyze_source(LISTING_4.source)
        oversize = [f for f in report.findings if f.rule == "PN-OVERSIZE"]
        assert "32 bytes" in oversize[0].message
        assert "16" in oversize[0].message

    def test_findings_point_at_placement_lines(self):
        from repro.workloads.corpus import LISTING_4

        report = analyze_source(LISTING_4.source)
        source_lines = LISTING_4.source.splitlines()
        for finding in report.findings:
            assert "new" in source_lines[finding.line - 1]

    def test_sizeof_guard_makes_branch_dead(self):
        report = analyze_source(
            """
class A { public: double d; };
class B : public A { public: int extra[4]; };
A arena;
void f() {
  if (sizeof(B) <= sizeof(A)) {
    B *b = new (&arena) B();
  }
}
"""
        )
        assert "PN-OVERSIZE" not in report.rules_fired()

    def test_unguarded_variant_flagged(self):
        report = analyze_source(
            """
class A { public: double d; };
class B : public A { public: int extra[4]; };
A arena;
void f() {
  B *b = new (&arena) B();
}
"""
        )
        assert "PN-OVERSIZE" in report.rules_fired()

    def test_unknown_arena_is_info_grade(self):
        report = analyze_source(
            """
class A { public: double d; };
void f(char *p) {
  A *a = new (p) A();
}
"""
        )
        findings = [f for f in report.findings if f.rule == "PN-UNKNOWN-ARENA"]
        assert findings and findings[0].severity is Severity.INFO

    def test_pointer_arena_resolved_through_assignment(self):
        # "a pointer could have been assigned the address of a scalar
        # variable" — the must-alias the paper says is hard; we resolve
        # the easy flow-sensitive case.
        report = analyze_source(
            """
class A { public: double d; };
class B : public A { public: int extra[4]; };
void f() {
  A small;
  A *p = &small;
  B *b = new (p) B();
}
"""
        )
        assert "PN-OVERSIZE" in report.rules_fired()

    def test_tainted_count_via_parameter(self):
        report = analyze_source(
            """
char pool[64];
void f(int n) {
  char *buf = new (pool) char[n];
}
"""
        )
        assert "PN-TAINTED-COUNT" in report.rules_fired()

    def test_constant_count_within_arena_is_clean(self):
        report = analyze_source(
            """
char pool[64];
void f() {
  char *buf = new (pool) char[64];
}
"""
        )
        assert not report.at_least(Severity.WARNING)

    def test_constant_count_oversize_flagged(self):
        report = analyze_source(
            """
char pool[64];
void f() {
  char *buf = new (pool) char[65];
}
"""
        )
        assert "PN-OVERSIZE" in report.rules_fired()

    def test_memset_between_reuse_suppresses_leak(self):
        report = analyze_source(
            """
char pool[64];
void f() {
  readFile("/etc/passwd", pool, 64);
  memset(pool, 0, 64);
  char *userdata = new (pool) char[64];
  store(userdata);
}
"""
        )
        assert "PN-NO-SANITIZE" not in report.rules_fired()

    def test_misalignment_note(self):
        report = analyze_source(
            """
class A { public: double d; };
void f() {
  char c;
  A *a = new (&c) A();
}
"""
        )
        assert "PN-MISALIGNED" in report.rules_fired()
        assert "PN-OVERSIZE" in report.rules_fired()

    def test_report_renders(self):
        from repro.workloads.corpus import LISTING_11

        text = analyze_source(LISTING_11.source).render()
        assert "PN-OVERSIZE" in text


class TestLegacyTools:
    def test_zero_placement_detections(self):
        """The E13 headline: classic rule sets flag 0 of the paper's
        placement listings as errors."""
        strict, _, grep = simulated_tool_suite()
        for tool in (strict, grep):
            for program in PLACEMENT_CORPUS:
                report = tool.scan_source(program.source)
                errors = report.at_least(Severity.ERROR)
                assert not errors, (tool.name, program.key)

    def test_classic_corpus_caught(self):
        strict, audit, grep = simulated_tool_suite()
        for program in CLASSIC_CORPUS:
            assert strict.scan_source(program.source).flagged, program.key

    def test_audit_profile_flags_strncpy_review(self):
        # The one nuance: the audit profile asks to review Listing 19's
        # strncpy — but cannot name the placement-new root cause.
        from repro.workloads.corpus import LISTING_19

        _, audit, _ = simulated_tool_suite()
        report = audit.scan_source(LISTING_19.source)
        rules = report.rules_fired()
        assert rules == {"CLASSIC-BOUNDED-COPY-REVIEW"}

    def test_scanner_covers_methods(self):
        report = simulated_tool_suite()[0].scan_source(
            "class A { public: int x; void f(char *p) { char b[4]; strcpy(b, p); } };"
        )
        assert report.flagged

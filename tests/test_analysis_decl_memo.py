"""Differential test: the declaration memo behind ``parse_cached``.

A miss in the AST cache parses through a memo of top-level declarations
keyed by their source text (first token through last), their first
token's line and column, and the type names known before them.
Whatever the memo holds, the tree
must be the parser's own for the text: equal by ``==`` and by ``repr``
(``==`` ignores ``line``), and a source that does not parse must fail
with the same message at the same place.  Inputs are sequences of
programs that share declarations, at the same and at shifted lines and
followed by other text, and fuzz mutant chains, whose mutants keep every
declaration before the mutated one.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analysis_cache_stats, clear_analysis_caches, parse_cached
from repro.analysis import ast_nodes as ast
from repro.analysis.parser import parse
from repro.errors import ParseError
from repro.fuzz.mutator import mutate
from repro.fuzz.seeds import seed_inputs


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_analysis_caches()
    yield
    clear_analysis_caches()


def _outcome(parser, source: str):
    """The tree and its repr, or the ParseError's message and place."""
    try:
        program = parser(source)
    except ParseError as error:
        return ("ParseError", str(error), error.line, error.column)
    return program, repr(program)


def _check(source: str):
    """``parse_cached`` on ``source`` against a bare ``parse``."""
    cached, fresh = _outcome(parse_cached, source), _outcome(parse, source)
    assert cached == fresh, source
    return cached[0]


def _declaration_hits() -> int:
    return analysis_cache_stats()["declarations"]["hits"]


def _declaration_entries() -> int:
    return analysis_cache_stats()["declarations"]["entries"]


# -- hand cases -----------------------------------------------------------


class TestKnownClasses:
    def test_a_times_b_depends_on_the_classes_before_it(self):
        """``A * b;`` is a declaration only once ``class A`` is known: the
        same function text on the same line must not share its tree."""
        without = _check("class B {};\nvoid f() { A * b; }")
        with_a = _check("class A {};\nvoid f() { A * b; }")
        assert isinstance(without.functions[0].body.statements[0], ast.ExprStmt)
        assert isinstance(with_a.functions[0].body.statements[0], ast.VarDecl)
        # And back: the memo holds both readings.
        _check("class B {};\nvoid f() { A * b; }\nint g;")
        _check("class A {};\nvoid f() { A * b; }\nint g;")

    def test_a_global_of_class_type_needs_the_class(self):
        _check("class A {};\nA *shared;")
        _check("class B {};\nA *shared;")  # unexpected top-level token 'A'


class TestSpans:
    @pytest.mark.parametrize("tail", [";", ""])
    def test_a_class_with_and_without_a_trailing_semicolon(self, tail):
        source = f"class A {{ int x; }}{tail}\nint main() {{ return 0; }}\n"
        _check(source)
        before = _declaration_hits()
        program = _check(source + "int z;")
        # The class and main come from the memo; only the new global is parsed.
        assert _declaration_hits() == before + 2
        assert [cls.name for cls in program.classes] == ["A"]

    def test_braces_inside_strings_and_comments(self):
        source = (
            "void s() {\n"
            '  cout << "}" << \'{\' << "{{";  /* } { */\n'
            "  // }\n"
            "  char c = '}';\n"
            "}\n"
            "int main() { return 0; }\n"
        )
        _check(source)
        before = _declaration_hits()
        _check(source + "int z;")
        assert _declaration_hits() == before + 2

    def test_multi_declarator_globals(self):
        source = "int a, *b, c[3];\nint main() { return a; }\n"
        first = _check(source)
        assert [decl.name for decl in first.globals] == ["a", "b", "c"]
        before = _declaration_hits()
        second = _check(source + "int z;")
        assert _declaration_hits() == before + 2
        assert second.globals[:3] == first.globals
        assert all(a is b for a, b in zip(second.globals, first.globals))

    def test_two_identical_declarations_on_one_line(self):
        source = "int f() { return 1; } int f() { return 1; }\n"
        first = _check(source)
        assert first.functions[0] is not first.functions[1]
        before = _declaration_hits()
        second = _check(source + "int z;")
        assert _declaration_hits() == before + 2
        assert second.functions[0] is first.functions[0]
        assert second.functions[1] is first.functions[1]
        assert second.functions[0] is not second.functions[1]

    @pytest.mark.parametrize(
        "first,second",
        [
            ("", "\nint main() { return f(1); }"),  # ends one source, not the other
            (" // one\n", " /* two */ int z;"),  # different trailing comments
            ("\n\n", "\n"),
        ],
    )
    def test_what_follows_a_declaration_is_not_in_its_key(self, first, second):
        declaration = "int f(int x) {\n  return x + 1;\n}"
        _check(declaration + first)
        before = _declaration_hits()
        _check(declaration + second)
        assert _declaration_hits() == before + 1

    def test_a_shifted_declaration_is_parsed_again(self):
        source = "int f() {\n  return 1;\n}"
        _check(source)
        before = _declaration_hits()
        shifted = _check("\n" + source)
        assert _declaration_hits() == before
        assert shifted.functions[0].line == 2

    @pytest.mark.parametrize(
        "failing",
        [
            "int broken() { return 1 }",  # expected ';'
            "int x = 1 int y;",  # the span runs past what parses
            "class A { int x; ",  # no closing brace
        ],
    )
    def test_a_failing_span_is_not_cached(self, failing):
        prefix = "int ok;\n"
        _check(prefix + failing)
        entries = _declaration_entries()
        assert entries <= 1  # at most ``int ok;``
        # The same text again, in a new source: parsed, and failing, again.
        before = _declaration_hits()
        _check(prefix + failing + "\n")
        assert _declaration_entries() == entries
        assert _declaration_hits() == before + (entries == 1)


class TestTierAccounting:
    def test_stats_count_declaration_hits_and_misses(self):
        before = analysis_cache_stats()["declarations"]
        parse_cached("class A {};\nint g;\n")
        parse_cached("class A {};\nint g;\nint h;")
        after = analysis_cache_stats()["declarations"]
        assert after["entries"] == 3
        assert after["hits"] - before["hits"] == 2
        assert after["misses"] - before["misses"] == 3

    def test_clear_drops_the_declaration_tier(self):
        parse_cached("class A {};\nint g;")
        assert _declaration_entries() == 2
        clear_analysis_caches()
        assert _declaration_entries() == 0
        before = _declaration_hits()
        parse_cached("class A {};\nint g;\nint h;")
        assert _declaration_hits() == before


class TestThreads:
    def test_threads_sharing_the_memo_parse_as_the_parser(self):
        """Six threads (more than the cores CI has) parse overlapping
        sources through one memo with a short switch interval; every
        tree must still be the parser's own."""
        classes = [f"class K{i} {{ int x; }};\n" for i in range(6)]
        sources = [
            "".join(classes[:k]) + f"void f() {{ K{k % 6} * b; }}\nint g{k};\n"
            for k in range(1, 7)
        ]
        expected = {source: repr(parse(source)) for source in sources}
        failures: list = []

        def work(offset: int) -> None:
            for round_ in range(40):
                source = sources[(offset + round_) % len(sources)]
                try:
                    if round_ % 10 == offset:
                        clear_analysis_caches()
                    got = repr(parse_cached(source + " " * round_))
                except Exception as error:  # reported through ``failures``
                    failures.append(repr(error))
                    return
                if got != expected[source]:
                    failures.append(source)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


# -- generated sequences ----------------------------------------------------

#: Top-level declarations, some of which do not parse or parse only when
#: a class before them is known.
_DECLARATIONS = (
    "class A { int x; };",
    "class A { int x; }",
    "class B { int x; };",
    "struct A { char name[8]; int *p, q; };",
    "class C : public A {\n  public:\n    C();\n    virtual int get() { return x; }\n};",
    "int g;",
    "int a, *b, c[3];",
    "A *shared = NULL;",
    "int one() { return 1; }",
    "void f() { A * b; }",
    "void f() {\n  A * b;\n  b = new A();\n}",
    "void s() { cout << \"}\" << '{'; /* { */ }",
    "void s() { // }\n  int k = 0; }",
    "int main() {\n  int i = 0;\n  while (i < 3) { i = i + 1; }\n  return i;\n}",
    "int broken() { return 1 }",
    "int x = 1 int y;",
    "void f() {};",
)
_SEPARATORS = ("\n", " ", "", "\n\n", "  // x {\n", " /* } ; */ ", "\n#include <x>\n")
_LEADS = ("", "\n", "\n\n\n", " ", "// lead }\n")
_SPLICES = ("{", "}", ";", "class A {};", "*", "\n", " ", "A", "\"")
_PIECES = st.tuples(st.sampled_from(_DECLARATIONS), st.sampled_from(_SEPARATORS))


@st.composite
def _sequences(draw) -> list:
    """Variants of one program: the same declarations with one edit each,
    at the same or at shifted lines."""
    base = draw(st.lists(_PIECES, min_size=1, max_size=6))
    sources = []
    for _ in range(draw(st.integers(2, 6))):
        parts = list(base)
        edit = draw(
            st.sampled_from(("none", "replace", "drop", "append", "splice", "follow"))
        )
        if edit == "follow":  # the same declarations, other text after one
            index = draw(st.integers(0, len(parts) - 1))
            same_lines = [
                s for s in _SEPARATORS if s.count("\n") == parts[index][1].count("\n")
            ]
            parts[index] = (parts[index][0], draw(st.sampled_from(same_lines)))
        elif edit == "replace":  # another declaration with as many lines
            index = draw(st.integers(0, len(parts) - 1))
            old, separator = parts[index]
            same_lines = [d for d in _DECLARATIONS if d.count("\n") == old.count("\n")]
            parts[index] = (draw(st.sampled_from(same_lines)), separator)
        elif edit == "drop" and len(parts) > 1:
            del parts[draw(st.integers(0, len(parts) - 1))]
        elif edit == "append":
            parts.append(draw(_PIECES))
        text = draw(st.sampled_from(_LEADS)) + "".join(d + s for d, s in parts)
        if edit == "splice":
            at = draw(st.integers(0, len(text)))
            cut = draw(st.integers(0, 3))
            text = text[:at] + draw(st.sampled_from(_SPLICES)) + text[at + cut :]
        sources.append(text)
    return sources


@settings(deadline=None)
@given(_sequences())
def test_generated_sequences_parse_as_the_parser(sources):
    clear_analysis_caches()
    for source in sources:
        _check(source)


@settings(deadline=None)
@given(
    seed=st.integers(1, 4),
    index=st.integers(0, 50),
    chain=st.integers(1, 12),
    salt=st.integers(0, 2**16),
)
def test_mutant_chains_parse_as_the_parser(seed, index, chain, salt):
    """A seed-panel input, then each mutant of a chain."""
    clear_analysis_caches()
    panel = seed_inputs(seed)
    current = panel[index % len(panel)]
    rng = random.Random(f"decl-memo/{seed}/{index}/{salt}")
    _check(current.source)
    for _ in range(chain):
        mutant = mutate(rng, current)
        if mutant is not None:
            current = mutant
            _check(current.source)

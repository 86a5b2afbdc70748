"""Differential test: the declaration memo behind ``parse_cached``.

A miss in the AST cache parses through a memo of top-level declarations
keyed by their source text (first token through last), their first
token's line and column, and the type names known before them.  The
walk finds each span's end in the text and lexes only the spans the
memo misses; it trusts the text only where no literal, comment or ``#``
line can hide a ``;``, ``{`` or ``}``, and lexes the span first
elsewhere.  Whatever the memo holds, the tree
must be the parser's own for the text: equal by ``==`` and by ``repr``
(``==`` ignores ``line``), and a source that does not parse must fail
with the same message at the same place.  Inputs are sequences of
programs that share declarations, at the same and at shifted lines and
followed by other text (braces and semicolons in literals and comments,
comments after a class's ``}``, ``#`` lines, ``\r\n`` line ends, tabs,
and literals and comments left open), and fuzz mutant chains, whose
mutants keep every declaration before the mutated one.
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


class TestRawSpans:
    """The walk finds a span's end in the text, and trusts it only where
    no literal, comment or ``#`` line can hide a ``;``, ``{`` or ``}``."""

    @pytest.mark.parametrize(
        "gap", [" /* c */ ", " // c\n", "\n#pragma x\n", " /* } ; { */\n"]
    )
    def test_a_comment_between_a_class_and_its_semicolon(self, gap):
        source = f"class A {{ int x; }}{gap};\nint main() {{ return 0; }}\n"
        program = _check(source)
        assert [cls.name for cls in program.classes] == ["A"]
        before = _declaration_hits()
        _check(source + "int z;")
        assert _declaration_hits() == before + 2

    def test_structure_in_literals_and_comments_with_crlf_and_tabs(self):
        source = (
            "class P {\tint x; };\r\n"
            "void s() {\r\n"
            "\tcout << \";{}\" << ';' << '{';\r\n"
            "\t/* }\r\n\t; { */ int k = 0; // } ;\r\n"
            "}\r\n"
            "#define X {\r\n"
            "int\tmain() {\treturn 0;\t}\r\n"
        )
        _check(source)
        before = _declaration_hits()
        _check(source + "int z;")
        assert _declaration_hits() == before + 3

    @pytest.mark.parametrize(
        "later",
        [
            'char *s = "open;',
            "char c = 'x;",
            "void f() { /* never closed }",
            "int y; /* never closed",
            'void g() { cout << "}; }',
        ],
    )
    def test_an_unterminated_literal_or_comment_in_a_later_declaration(self, later):
        prefix = "class A { int x; };\nint main() { return 0; }\n"
        _check(prefix)
        outcome = _check(prefix + later + "\nint z;\n")
        assert outcome == "ParseError"
        # The walk may store the declarations before the failing one, but
        # the bare parser's error is the one raised.
        _check("\n" + prefix + later)

    @pytest.mark.parametrize(
        "body",
        [
            "/* } */ return 2;",
            "// }\n  return 2;",
            "/* { */ return 2;",
            "return 2; // ;",
            "return '}';",
            'cout << "{"; return 2;',
            "return 2;\n#pragma }",
        ],
    )
    def test_structure_in_literals_comments_and_hash_lines(self, body):
        source = f"int t() {{\n  {body}\n}}\nint main() {{ return t(); }}\n"
        _check(source)
        before = _declaration_hits()
        _check(source + "int z;")
        assert _declaration_hits() == before + 2

    def test_keys_carry_each_declaration_s_place_after_a_hit(self):
        """A hit moves the lexer past the span without lexing it: the
        declarations after it, on the span's last line, keep their
        columns."""

        class Recorder(dict):
            """A memo that records the line and column of each lookup."""

            lookups: list = []

            def get(self, key):
                self.lookups.append(key[1:3])
                return dict.get(self, key)

            def put(self, key, value):
                self[key] = value

        memo = Recorder()
        shared = "int f() {\n  return 1;\n}"
        parse(shared + "\n", memo)
        memo.lookups.clear()
        source = shared + " int g; int h() { return 2; }\n"
        assert repr(parse(source, memo)) == repr(parse(source))
        assert memo.lookups == [(1, 1), (3, 3), (3, 10)]

    def test_a_hit_lexes_only_each_declaration_s_first_token(self, monkeypatch):
        from repro.analysis import parser as parser_module

        source = "class A { int x; };\nint g;\nint main() {\n  return g;\n}\n"
        _check(source)
        lexed = []
        real_lex = parser_module.lex

        def counting_lex(source, tokens, *state):
            count = len(tokens)
            result = real_lex(source, tokens, *state)
            lexed.extend(tokens[count:])
            return result

        monkeypatch.setattr(parser_module, "lex", counting_lex)
        _check(source + "\n")
        assert [token.text for token in lexed] == ["class", "int", "int"]


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
    # ``;``, ``{`` and ``}`` in literals and comments
    "void q() { cout << \"a;b{\" << ';' << '}'; }",
    "int t() {\n  /* } ;\n  { */ return 2;\n}",
    "void u() { // ; {\n  int k = 1;\n}",
    "char *z = \"}\";",
    # a comment or ``#`` line between a class's ``}`` and its ``;``
    "class D { int y; } /* } */ ;",
    "class D { int y; } // ;\n;",
    "struct E { int z; }\n#pragma pack\n;",
    # tabs
    "int\tw()\t{\treturn 3;\t}",
    # unterminated literals and comments
    "char *open = \"never;",
    "char c = 'x;",
    "void v() { /* never closed }",
)
_SEPARATORS = (
    "\n", " ", "", "\n\n", "  // x {\n", " /* } ; */ ", "\n#include <x>\n",
    "\r\n", "\t", "\n\t", "\r\n#define X {\r\n", " /* a\n ; b */\n", "\n  # x ;\n",
)
_LEADS = ("", "\n", "\n\n\n", " ", "// lead }\n", "#x {\n", "\r\n", "\t", "/* ;\n{ */")
_SPLICES = (
    "{", "}", ";", "class A {};", "*", "\n", " ", "A", "\"", "'", "/*", "*/", "//", "#", "\r\n",
)
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
        if draw(st.integers(0, 5)) == 0:  # every line end as ``\r\n``
            text = text.replace("\n", "\r\n")
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

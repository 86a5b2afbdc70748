"""Tests for the MiniC++ lexer and parser."""

from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import Parser, TokenKind, parse, tokenize
from repro.analysis import ast_nodes as ast
from repro.analysis.lexer import KEYWORDS, MULTI_OPS, SINGLE_OPS, Token
from repro.errors import ParseError
from repro.workloads.corpus import FULL_CORPUS

ROOT = Path(__file__).resolve().parents[1]


class TestLexer:
    def test_identifiers_and_keywords(self):
        tokens = tokenize("class Student int x")
        kinds = [(t.kind, t.text) for t in tokens[:-1]]
        assert kinds[0] == (TokenKind.KEYWORD, "class")
        assert kinds[1] == (TokenKind.IDENT, "Student")
        assert kinds[2] == (TokenKind.IDENT, "int")

    def test_numbers(self):
        tokens = tokenize("42 3.14 0x1F")
        assert tokens[0].kind is TokenKind.NUMBER and tokens[0].text == "42"
        assert tokens[1].kind is TokenKind.FLOAT
        assert int(tokens[2].text, 0) == 31

    def test_multichar_operators(self):
        tokens = tokenize("a->b >> c :: ++d")
        ops = [t.text for t in tokens if t.kind is TokenKind.OP]
        assert "->" in ops and ">>" in ops and "::" in ops and "++" in ops

    def test_comments_skipped(self):
        tokens = tokenize("a // line comment\n/* block */ b")
        idents = [t.text for t in tokens if t.kind is TokenKind.IDENT]
        assert idents == ["a", "b"]

    def test_string_and_char_literals(self):
        tokens = tokenize('"hello" \'x\'')
        assert tokens[0].kind is TokenKind.STRING and tokens[0].text == "hello"
        assert tokens[1].kind is TokenKind.CHARLIT

    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:3]] == [1, 2, 3]

    def test_unterminated_string_rejected(self):
        with pytest.raises(ParseError):
            tokenize('"never closed')

    def test_preprocessor_skipped(self):
        tokens = tokenize("#include <iostream>\nint x;")
        assert tokens[0].text == "int"

    def test_tokens_are_immutable_hashable_values(self):
        first, second = tokenize("a a")[:2]
        assert first == Token(TokenKind.IDENT, "a", 1, 1)
        assert first != second and hash(first) == hash(Token(*first))
        with pytest.raises(AttributeError):
            first.text = "b"


class TestParserClasses:
    def test_class_with_inheritance(self):
        program = parse(
            "class A { public: int x; };"
            "class B : public A { public: int y[3]; };"
        )
        b = program.class_decl("B")
        assert b.bases == ("A",)
        assert b.fields[0].type.is_array

    def test_virtual_method(self):
        program = parse(
            "class A { public: virtual char* info(); double d; };"
        )
        a = program.class_decl("A")
        assert a.has_virtual
        assert a.methods[0].name == "info"

    def test_constructor_with_initializer_list(self):
        program = parse(
            "class S { public: S():gpa(0.0), year(0) { } double gpa; int year; };"
        )
        s = program.class_decl("S")
        assert s.methods[0].name == "S"

    def test_multi_declarator_fields(self):
        program = parse("class S { public: int year, semester; };")
        assert [f.name for f in program.class_decl("S").fields] == [
            "year",
            "semester",
        ]

    def test_method_with_body(self):
        program = parse(
            "class M { public: int s; void f(int *p) { s = 1; } };"
        )
        method = program.class_decl("M").methods[0]
        assert method.body is not None
        assert isinstance(method.body.statements[0], ast.Assign)


class TestParserStatements:
    def _body(self, code: str) -> ast.Block:
        program = parse(f"void f(int a, char *p) {{ {code} }}")
        return program.function("f").body

    def test_placement_new_object(self):
        body = self._body("int x; int *q = new (&x) int(5);")
        decl = body.statements[1]
        assert isinstance(decl.init, ast.NewExpr)
        assert decl.init.is_placement
        assert not decl.init.is_array

    def test_placement_new_array(self):
        body = self._body("char buf[8]; char *q = new (buf) char[20];")
        new_expr = body.statements[1].init
        assert new_expr.is_placement and new_expr.is_array

    def test_plain_new(self):
        body = self._body("int *q = new int[4];")
        new_expr = body.statements[0].init
        assert not new_expr.is_placement and new_expr.is_array

    def test_cin_chain(self):
        body = self._body("int x; int y; cin >> x >> y;")
        cin = body.statements[2]
        assert isinstance(cin, ast.CinRead)
        assert len(cin.targets) == 2

    def test_cout_chain(self):
        body = self._body('cout << "hi" << a << endl;')
        cout = body.statements[0]
        assert isinstance(cout, ast.CoutWrite)
        assert len(cout.values) == 2

    def test_if_else(self):
        body = self._body("if (a > 0) { a = 1; } else { a = 2; }")
        stmt = body.statements[0]
        assert isinstance(stmt, ast.If)
        assert stmt.else_body is not None

    def test_while_with_prefix_increment(self):
        body = self._body("int i = -1; while (++i < 3) { a = i; }")
        loop = body.statements[1]
        assert isinstance(loop, ast.While)
        assert isinstance(loop.cond, ast.Binary)
        assert isinstance(loop.cond.left, ast.Unary)

    def test_for_loop(self):
        body = self._body("for (int i = 0; i < 5; ++i) { a = i; }")
        loop = body.statements[0]
        assert isinstance(loop, ast.For)
        assert isinstance(loop.init, ast.VarDecl)

    def test_delete_array(self):
        body = self._body("delete [] p;")
        stmt = body.statements[0]
        assert isinstance(stmt, ast.DeleteStmt) and stmt.is_array

    def test_member_arrow_index(self):
        body = self._body("a = q->ssn[2];")
        value = body.statements[0].value
        assert isinstance(value, ast.Index)
        assert isinstance(value.base, ast.Member)
        assert value.base.arrow

    def test_sizeof_type_and_expr(self):
        body = self._body("a = sizeof(int); a = sizeof(a);")
        first = body.statements[0].value
        second = body.statements[1].value
        assert first.type_name == "int"
        assert second.expr is not None

    def test_address_of(self):
        body = self._body("int x; int *q = new (&x) int;")
        placement = body.statements[1].init.placement
        assert isinstance(placement, ast.Unary) and placement.op == "&"

    def test_compound_assign_desugars(self):
        body = self._body("a += 2;")
        stmt = body.statements[0]
        assert isinstance(stmt, ast.Assign)
        assert isinstance(stmt.value, ast.Binary) and stmt.value.op == "+"

    def test_parse_error_reports_location(self):
        with pytest.raises(ParseError):
            parse("void f( {")

    @pytest.mark.parametrize(
        "literal, kind",
        [("010", "integer"), ("08", "integer"), ("0x", "integer"),
         ("²", "integer"), ("1²", "integer"), ("1.²", "float")],
    )
    def test_malformed_number_is_a_parse_error(self, literal, kind):
        with pytest.raises(ParseError) as caught:
            parse(f"int main() {{ int x = {literal}; return x; }}")
        assert (caught.value.line, caught.value.column) == (1, 22)
        assert str(caught.value) == f"1:22: invalid {kind} literal '{literal}'"

    @pytest.mark.parametrize("literal, value", [("0", 0), ("00", 0), ("0x1F", 31), ("٣", 3)])
    def test_integer_literals_that_parse_keep_their_value(self, literal, value):
        body = self._body(f"a = {literal};")
        assert body.statements[0].value == ast.IntLit(value=value)


class TestCorpusParses:
    @pytest.mark.parametrize("program", FULL_CORPUS, ids=lambda p: p.key)
    def test_parses(self, program):
        parsed = parse(program.source)
        assert parsed.functions or parsed.classes

    def test_walk_expressions_finds_placements(self):
        from repro.workloads.corpus import LISTING_11

        program = parse(LISTING_11.source)
        fn = program.function("addStudent")
        news = [
            e
            for e in ast.walk_expressions(fn.body)
            if isinstance(e, ast.NewExpr) and e.is_placement
        ]
        assert len(news) == 2


# -- reference models ---------------------------------------------------------
#
# The character-by-character lexer loop and the one-call-per-level binary
# expression parser the front end used to run.  They are slow and plain;
# the fast front end must agree with them on every input.


def _reference_tokens(source: str) -> Iterator[Token]:
    line = 1
    column = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        # whitespace
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        # comments
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise ParseError("unterminated block comment", line, column)
            skipped = source[i : end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                column = len(skipped) - skipped.rfind("\n")
            else:
                column += len(skipped)
            i = end + 2
            continue
        # preprocessor lines are skipped wholesale
        if ch == "#" and column == 1:
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_column = column
        # identifiers / keywords
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            yield Token(kind, text, line, start_column)
            column += j - i
            i = j
            continue
        # numbers
        if ch.isdigit():
            j = i
            is_float = False
            if source.startswith("0x", i) or source.startswith("0X", i):
                j = i + 2
                while j < n and source[j] in "0123456789abcdefABCDEF":
                    j += 1
            else:
                while j < n and (source[j].isdigit() or source[j] == "."):
                    if source[j] == ".":
                        if is_float:
                            break
                        is_float = True
                    j += 1
            text = source[i:j]
            yield Token(
                TokenKind.FLOAT if is_float else TokenKind.NUMBER,
                text,
                line,
                start_column,
            )
            column += j - i
            i = j
            continue
        # string literals
        if ch == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\\":
                    j += 1
                j += 1
            if j >= n:
                raise ParseError("unterminated string literal", line, column)
            yield Token(TokenKind.STRING, source[i + 1 : j], line, start_column)
            column += j + 1 - i
            i = j + 1
            continue
        # char literals
        if ch == "'":
            j = i + 1
            while j < n and source[j] != "'":
                if source[j] == "\\":
                    j += 1
                j += 1
            if j >= n:
                raise ParseError("unterminated char literal", line, column)
            yield Token(TokenKind.CHARLIT, source[i + 1 : j], line, start_column)
            column += j + 1 - i
            i = j + 1
            continue
        # operators
        matched = None
        for op in MULTI_OPS:
            if source.startswith(op, i):
                matched = op
                break
        if matched is None and ch in SINGLE_OPS:
            matched = ch
        if matched is None:
            raise ParseError(f"unexpected character {ch!r}", line, column)
        yield Token(TokenKind.OP, matched, line, start_column)
        column += len(matched)
        i += len(matched)
    yield Token(TokenKind.EOF, "", line, column)


class _ReferenceParser(Parser):
    """The parser with binary expressions parsed one call per level."""

    _PRECEDENCE = (
        ("||",),
        ("&&",),
        ("==", "!=", "<", ">", "<=", ">="),
        ("+", "-"),
        ("*", "/", "%"),
    )

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(self._PRECEDENCE):
            return self._parse_unary()
        left = self._parse_binary(level + 1)
        while self._peek().is_op(*self._PRECEDENCE[level]):
            op_token = self._advance()
            right = self._parse_binary(level + 1)
            left = ast.Binary(
                line=op_token.line, op=op_token.text, left=left, right=right
            )
        return left


def _outcome(run):
    """What a front-end call produced: its value, or the ParseError's
    message and position."""
    try:
        return run()
    except ParseError as error:
        return ("ParseError", str(error), error.line, error.column)


def _lexed(lex, source: str):
    return _outcome(
        lambda: [(t.kind, t.text, t.line, t.column) for t in lex(source)]
    )


def _parsed(parser_class, source: str):
    # AST nodes leave ``line`` out of ``==``; their repr carries it.
    return _outcome(lambda: repr(parser_class(source).parse_program()))


_CORPUS_FILES = sorted(
    [*ROOT.glob("corpus/**/*.cpp"), *ROOT.glob("examples/**/*.cpp")]
)
_SOURCES = {program.key: program.source for program in FULL_CORPUS}
_SOURCES.update(
    (str(path.relative_to(ROOT)), path.read_text(encoding="utf-8"))
    for path in _CORPUS_FILES
)

#: Lexer input pieces: every operator and comment opener, whitespace,
#: non-ASCII letters and digits (``\d`` and ``str.isdigit`` part ways on
#: them) and lines of real sources; less often, pieces that usually end
#: the lexing with an error: quotes, backslash, ``#``, ``\f`` (not
#: whitespace) and non-ASCII characters that are neither.
_LEX_COMMON = [
    *MULTI_OPS, *SINGLE_OPS, "//", "/*", "*/", " ", "\t", "\r", "\n",
    "é", "²", "٣", "a", "Z", "_", "x", "0", "1", "9", "0x", "0X", "1.5", "e",
    '"a\\"b"', "'\\''", '"one\ntwo"',
]
_LEX_PIECES = st.one_of(
    st.sampled_from(_LEX_COMMON),
    st.sampled_from(
        sorted({line for source in _SOURCES.values() for line in source.splitlines()})
    ),
    st.sampled_from(_LEX_COMMON + ['"', "'", "\\", "#", "\f", "½", "Ⅻ"]),
)


@settings(deadline=None)
@given(st.lists(_LEX_PIECES, max_size=30).map("".join))
@example('"never closed')
@example("'c")
@example("a /* never closed")
@example("a #b")
@example("1.2.3")
@example("0x")
@example("abé")
@example("1²")
@example("a // comment at the end")
@example('"one\ntwo" x')
@example("x /*/ y */ z /* w */  \t")
@example("x=é1+Ⅻ")
@example("1.².5 ٣.1.")
@example(""""a\\"b" '\\'' 'c\\""")
def test_tokenize_matches_reference_model(source):
    assert _lexed(tokenize, source) == _lexed(_reference_tokens, source)


_BINARY_OPS = ("||", "&&", "==", "!=", "<", ">", "<=", ">=", "+", "-", "*", "/", "%")
_ATOMS = (
    "a", "b", "1", "0x1F", "2.5", "'c'", '"s"', "true", "NULL", "f()",
    "g(a, 1)", "q->x", "s.y", "p[1]", "sizeof(int)", "sizeof(a)", "new int[a]",
)


def _chain(operands, min_size=0):
    """``operand (op operand)*`` with no parentheses, so precedence and
    associativity decide the tree."""
    spaced = st.sampled_from(("", " "))
    step = st.tuples(spaced, st.sampled_from(_BINARY_OPS), spaced, operands)
    return st.tuples(operands, st.lists(step.map("".join), min_size=min_size, max_size=5)).map(
        lambda chain: chain[0] + "".join(chain[1])
    )


def _compound(children):
    return st.one_of(
        _chain(children, min_size=1),
        st.tuples(st.sampled_from(("-", "!", "&", "*", "~", "++", "--")), children)
        .map(" ".join),
        children.map(lambda inner: f"({inner})"),
        st.tuples(children, st.sampled_from(("++", "--", "[0]", "->z", ".w")))
        .map("".join),
    )


_EXPRESSIONS = _chain(st.recursive(st.sampled_from(_ATOMS), _compound, max_leaves=8))
_STATEMENTS = st.one_of(
    _EXPRESSIONS.map(lambda e: f"x = {e};"),
    _EXPRESSIONS.map(lambda e: f"int v = {e};"),
    _EXPRESSIONS.map(lambda e: f"return {e};"),
    _EXPRESSIONS.map(lambda e: f"if ({e}) {{ x += {e}; }}"),
    st.lists(_EXPRESSIONS, min_size=1, max_size=3).map(
        lambda es: "cout << " + " << ".join(es) + " << endl;"
    ),
)


@settings(deadline=None)
@given(st.lists(_STATEMENTS, min_size=1, max_size=4), st.integers(0, 400))
@example(["x = a '*' b;"], 0)  # a literal whose text is an operator
def test_parse_matches_reference_parser(statements, cut):
    source = "int f(int a, int b, int *p) { " + " ".join(statements) + " }"
    # A cut source exercises the error paths as well.
    for text in (source, source[: len(source) * cut // 400]):
        assert _parsed(Parser, text) == _parsed(_ReferenceParser, text)


@pytest.mark.parametrize("name", sorted(_SOURCES))
def test_sources_parse_as_reference_parser(name):
    source = _SOURCES[name]
    assert _parsed(Parser, source) == _parsed(_ReferenceParser, source)

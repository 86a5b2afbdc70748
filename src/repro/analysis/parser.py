"""Recursive-descent parser for MiniC++.

Produces a :class:`~repro.analysis.ast_nodes.Program` from source text.
The grammar covers the paper's listings: class declarations (with
inheritance, access specifiers, virtual methods, constructors with
initializer lists), global variables, free functions, and the statement
and expression forms the attacks use — most importantly every flavour of
``new``, including placement forms.
"""

from __future__ import annotations

import re
from typing import Optional

from ..errors import ParseError
from . import ast_nodes as ast
from .lexer import Token, TokenKind, lex, tokenize

#: Built-in type names (an optional leading ``unsigned``/``const`` is
#: folded into the base name during parsing).
BUILTIN_TYPES = {
    "int", "double", "char", "bool", "float", "void", "long", "short",
    "unsigned", "string", "size_t",
}
#: The known type names before any class: the last part of the first
#: declaration memo key (see :meth:`Parser._parse_declarations_memoized`).
_BUILTIN_KEY = frozenset(BUILTIN_TYPES)
_CLASS_KEYWORDS = ("class", "struct")
#: What a span's parse finds after its last token.
_SPAN_END = Token(TokenKind.EOF, "", 0, 0)
_STRUCTURE = re.compile(r"[;{}]")
#: The characters that open a literal, a comment or a ``#`` line.  In
#: text without them every ``;``, ``{`` and ``}`` is a token of its own.
_UNTRUSTED = re.compile(r"[\"'/#]")
_BLANKS = re.compile(r"[ \t\r\n]*")


class _NoSpan(Exception):
    """The memoized walk cannot take a declaration span by span."""


def _next_token(
    source: str, tokens: list[Token], pos: int, line: int, line_start: int
) -> tuple[int, int, int]:
    """Lex up to the next token (none at the end of input); return the
    lexer state after it.  Each :func:`lex` call stops within a match
    of the first character past the blanks, so it lexes one token at
    most."""
    count = len(tokens)
    n = len(source)
    while pos < n and len(tokens) == count:
        stop = min(_BLANKS.match(source, pos).end() + 1, n)
        pos, line, line_start = lex(source, tokens, pos, line, line_start, stop)
    return pos, line, line_start


def _raw_span_end(source: str, start: int, is_class: bool) -> Optional[int]:
    """The end of the declaration starting at ``start``, by the span rule
    of :meth:`Parser._lex_span` applied to characters, or None where the
    text cannot be trusted for it: when the span, or the gap between a
    class's ``}`` and what follows, holds a literal, a comment or a
    ``#`` line, and when the input ends first.
    """
    semicolon = source.find(";", start)
    brace = source.find("{", start) if semicolon < 0 else source.find("{", start, semicolon)
    if brace < 0:
        if semicolon < 0:
            return None
        end = semicolon + 1
    else:
        depth = 1
        close = brace
        while depth:
            after = close + 1
            close = source.find("}", after)
            if close < 0:
                return None
            depth += source.count("{", after, close) - 1
        end = close + 1
        if is_class:
            after = _BLANKS.match(source, end).end()
            following = source[after : after + 1]
            if following == ";":
                end = after + 1
            elif following == "/" or following == "#":
                return None
    if _UNTRUSTED.search(source, start, end):
        return None
    return end


class Parser:
    """One-pass parser; class names are registered as encountered so the
    declaration-vs-expression ambiguity resolves the way C++ does."""

    def __init__(self, source: str, declarations=None) -> None:
        # Every instance sets the same attributes, in the same order, so
        # attribute reads on the hot path stay specialized.  With a
        # memo, the tokens are lexed one declaration at a time.
        self._declarations = declarations
        self._tokens = tokenize(source) if declarations is None else []
        self._pos = 0
        self._known_types: set[str] = set(BUILTIN_TYPES)
        self._known_key = _BUILTIN_KEY
        self._source = source

    # -- token plumbing -------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        if offset:
            return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _expect_op(self, op: str) -> Token:
        token = self._tokens[self._pos]
        if token.kind is TokenKind.OP and token.text == op:
            self._pos += 1
            return token
        raise ParseError(f"expected '{op}', got '{token.text}'", token.line, token.column)

    def _expect_ident(self) -> Token:
        token = self._advance()
        if token.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
            raise ParseError(
                f"expected identifier, got '{token.text}'", token.line, token.column
            )
        return token

    def _accept_op(self, *ops: str) -> Optional[Token]:
        token = self._tokens[self._pos]
        if token.kind is TokenKind.OP and token.text in ops:
            self._pos += 1
            return token
        return None

    def _accept_keyword(self, *words: str) -> Optional[Token]:
        token = self._tokens[self._pos]
        if token.kind is TokenKind.KEYWORD and token.text in words:
            self._pos += 1
            return token
        return None

    # -- entry point -----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        """Parse a translation unit."""
        if self._declarations is None:
            parts: tuple[list, list, list] = ([], [], [])  # classes, globals, functions
            while self._peek().kind is not TokenKind.EOF:
                kind, nodes = self._parse_declaration()
                parts[kind].extend(nodes)
        else:
            try:
                parts = self._parse_declarations_memoized()
            except (ParseError, _NoSpan):
                # The bare parser lexes the whole source first, so it
                # raises the error it always has: a lex error anywhere
                # before a parse error, each at its own place.
                return type(self)(self._source).parse_program()
        classes, globals_, functions = parts
        return ast.Program(
            classes=tuple(classes),
            globals=tuple(globals_),
            functions=tuple(functions),
        )

    def _parse_declaration(self) -> tuple[int, tuple]:
        """One top-level declaration: its ``parse_program`` part index
        (0 classes, 1 globals, 2 functions) and its nodes."""
        token = self._peek()
        if token.is_keyword("class", "struct"):
            return 0, (self._parse_class(),)
        # Either a global variable or a function definition; both start
        # with a type.
        if self._starts_type():
            snapshot = self._pos
            self._parse_type_and_name()
            is_function = self._peek().is_op("(")
            self._pos = snapshot
            if is_function:
                return 2, (self._parse_function(),)
            return 1, tuple(self._parse_var_decl_statement())
        raise ParseError(
            f"unexpected top-level token '{token.text}'", token.line, token.column
        )

    def _parse_declarations_memoized(self) -> tuple[list, list, list]:
        """:meth:`parse_program`'s parts through the ``declarations`` memo,
        lexing only the declarations it misses.

        The key is the declaration's source text from its first token
        through its last (always a one-character ``;`` or ``}``), its
        first token's line and column, and the type names known before
        it: together they fix every token the declaration spans, with
        its line and column, and how the parser reads them.  What
        follows the span, comments and blanks included, is not part of
        the key.  The parser reads no token past the span but the one
        after a class's ``}``, which the span takes when it is a ``;``.

        The walk lexes each declaration's first token, then finds the
        span's end in the text itself (:func:`_raw_span_end`).  A hit
        there moves the lexer state past the span without lexing it;
        a miss lexes the span and parses its tokens.  Where the text
        holds a literal or a comment, the span is lexed first and its
        end found among the tokens (:meth:`_lex_span`).  A parse is
        stored only if it consumed exactly the span, with the type names
        it added; a ``ParseError`` is never stored.  A span that the
        input ends inside, or that a parse does not consume exactly,
        raises :class:`_NoSpan`.
        """
        parts: tuple[list, list, list] = ([], [], [])
        source = self._source
        memo = self._declarations
        known = self._known_types
        state = (0, 1, 0)
        while True:
            tokens: list[Token] = []
            state = _next_token(source, tokens, *state)
            if not tokens:
                return parts
            first = tokens[0]
            pos, line, line_start = state
            start = line_start + first.column - 1
            is_class = first.kind is TokenKind.KEYWORD and first.text in _CLASS_KEYWORDS
            if len(known) != len(self._known_key):
                self._known_key = frozenset(known)
            end = _raw_span_end(source, start, is_class)
            if end is None:
                state = self._lex_span(tokens, state, is_class)
                text = source[start : state[0]]
            else:
                text = source[start:end]
            key = (text, first.line, first.column, self._known_key)
            cached = memo.get(key)
            if cached is not None:
                kind, nodes, added = cached
                known.update(added)
                if end is not None:
                    newlines = text.count("\n")
                    if newlines:
                        line += newlines
                        line_start = start + text.rfind("\n") + 1
                    state = (end, line, line_start)
            else:
                if end is not None:
                    state = lex(source, tokens, pos, line, line_start, end)
                kind, nodes = self._parse_span(tokens)
                added = frozenset(known.difference(self._known_key))
                memo.put(key, (kind, nodes, added))
            parts[kind].extend(nodes)

    def _lex_span(
        self, tokens: list[Token], state: tuple[int, int, int], is_class: bool
    ) -> tuple[int, int, int]:
        """Lex the rest of the declaration whose first token is in
        ``tokens``, ``state`` being the lexer's state after it; return
        the state after its last token.

        The span ends after its first ``;`` if no ``{`` comes before it,
        else after the ``}`` that closes that ``{`` and, for a class,
        after the ``;`` that :meth:`_parse_class` accepts next.  Each
        :func:`lex` call stops after the next ``;``, ``{`` or ``}`` in
        the text, so a structural token is always the last one lexed
        and the walk can resume right after it.
        """
        source = self._source
        index = depth = 0
        closed = ""
        while not closed:
            if index == len(tokens):
                if state[0] >= len(source):
                    raise _NoSpan("the input ends inside a declaration")
                mark = _STRUCTURE.search(source, state[0])
                stop = len(source) if mark is None else mark.end()
                state = lex(source, tokens, *state, stop)
                continue
            token = tokens[index]
            index += 1
            if token.kind is TokenKind.OP:
                text = token.text
                if text == "{":
                    depth += 1
                elif text == "}" and depth:
                    depth -= 1
                    if not depth:
                        closed = text
                elif text == ";" and not depth:
                    closed = text
        if is_class and closed == "}":
            probe = _next_token(source, tokens, *state)
            if len(tokens) > index and tokens[index].is_op(";"):
                return probe
            del tokens[index:]
        return state

    def _parse_span(self, tokens: list[Token]) -> tuple[int, tuple]:
        """:meth:`_parse_declaration` over one span's tokens, which it
        must consume exactly."""
        count = len(tokens)
        tokens.append(_SPAN_END)
        self._tokens = tokens
        self._pos = 0
        result = self._parse_declaration()
        if self._pos != count:
            raise _NoSpan("a declaration's parse does not end at its span's end")
        return result

    # -- types --------------------------------------------------------------

    def _starts_type(self) -> bool:
        token = self._peek()
        if token.is_keyword("const"):
            return True
        if token.kind is TokenKind.IDENT and token.text in self._known_types:
            return True
        return token.kind is TokenKind.IDENT and token.text in BUILTIN_TYPES

    def _parse_base_type(self) -> str:
        while self._accept_keyword("const"):
            pass
        token = self._expect_ident()
        name = token.text
        if name == "unsigned" and self._peek().kind is TokenKind.IDENT and self._peek().text in (
            "int",
            "char",
            "long",
            "short",
        ):
            name = f"unsigned {self._advance().text}"
        return name

    def _parse_type_and_name(self) -> tuple[ast.TypeRef, Token]:
        base = self._parse_base_type()
        depth = 0
        while self._accept_op("*"):
            depth += 1
        name_token = self._expect_ident()
        return ast.TypeRef(name=base, pointer_depth=depth), name_token

    # -- classes --------------------------------------------------------------

    def _parse_class(self) -> ast.ClassDecl:
        keyword = self._advance()  # class/struct
        name_token = self._expect_ident()
        self._known_types.add(name_token.text)
        bases: list[str] = []
        if self._accept_op(":"):
            while True:
                self._accept_keyword("public", "private", "protected")
                bases.append(self._expect_ident().text)
                if not self._accept_op(","):
                    break
        self._expect_op("{")
        fields: list[ast.FieldDecl] = []
        methods: list[ast.MethodDecl] = []
        while not self._peek().is_op("}"):
            if self._accept_keyword("public", "private", "protected"):
                self._expect_op(":")
                continue
            virtual = bool(self._accept_keyword("virtual"))
            # Constructor: ClassName '(' ...
            if (
                self._peek().kind is TokenKind.IDENT
                and self._peek().text == name_token.text
                and self._peek(1).is_op("(")
            ):
                methods.append(self._parse_method(name_token.text, constructor=True))
                continue
            base = self._parse_base_type()
            depth = 0
            while self._accept_op("*"):
                depth += 1
            member_name = self._expect_ident()
            if self._peek().is_op("("):
                methods.append(
                    self._parse_method_tail(
                        member_name.text,
                        ast.TypeRef(name=base, pointer_depth=depth),
                        virtual,
                        member_name.line,
                    )
                )
                continue
            # Field (possibly several declarators).
            fields.extend(
                self._parse_field_declarators(base, depth, member_name)
            )
        self._expect_op("}")
        self._accept_op(";")
        return ast.ClassDecl(
            line=keyword.line,
            name=name_token.text,
            bases=tuple(bases),
            fields=tuple(fields),
            methods=tuple(methods),
        )

    def _parse_field_declarators(
        self, base: str, first_depth: int, first_name: Token
    ) -> list[ast.FieldDecl]:
        fields = []
        depth = first_depth
        name_token = first_name
        while True:
            array_size = None
            if self._accept_op("["):
                array_size = self._parse_expression()
                self._expect_op("]")
            fields.append(
                ast.FieldDecl(
                    type=ast.TypeRef(
                        name=base, pointer_depth=depth, array_size=array_size
                    ),
                    name=name_token.text,
                    line=name_token.line,
                )
            )
            if not self._accept_op(","):
                break
            depth = 0
            while self._accept_op("*"):
                depth += 1
            name_token = self._expect_ident()
        self._expect_op(";")
        return fields

    def _parse_method(self, class_name: str, constructor: bool) -> ast.MethodDecl:
        name_token = self._advance()  # the class name
        return self._parse_method_tail(
            name_token.text,
            ast.TypeRef(name="void"),
            virtual=False,
            line=name_token.line,
            constructor=True,
        )

    def _parse_method_tail(
        self,
        name: str,
        return_type: ast.TypeRef,
        virtual: bool,
        line: int,
        constructor: bool = False,
    ) -> ast.MethodDecl:
        params = self._parse_params()
        if constructor and self._accept_op(":"):
            # Initializer list: name(expr) [, name(expr)]*
            while True:
                self._expect_ident()
                self._expect_op("(")
                if not self._peek().is_op(")"):
                    self._parse_expression()
                self._expect_op(")")
                if not self._accept_op(","):
                    break
        body: Optional[ast.Block] = None
        if self._peek().is_op("{"):
            body = self._parse_block()
        else:
            self._expect_op(";")
        return ast.MethodDecl(
            name=name,
            return_type=return_type,
            params=params,
            virtual=virtual,
            body=body,
            line=line,
        )

    def _parse_params(self) -> tuple:
        self._expect_op("(")
        params: list[ast.Param] = []
        if not self._peek().is_op(")"):
            while True:
                base = self._parse_base_type()
                depth = 0
                while self._accept_op("*"):
                    depth += 1
                param_name = ""
                if self._peek().kind is TokenKind.IDENT:
                    param_name = self._advance().text
                if self._accept_op("["):
                    self._expect_op("]")
                    depth += 1
                params.append(
                    ast.Param(
                        type=ast.TypeRef(name=base, pointer_depth=depth),
                        name=param_name,
                    )
                )
                if not self._accept_op(","):
                    break
        self._expect_op(")")
        return tuple(params)

    # -- functions -----------------------------------------------------------

    def _parse_function(self) -> ast.FunctionDecl:
        start = self._peek()
        base = self._parse_base_type()
        depth = 0
        while self._accept_op("*"):
            depth += 1
        name_token = self._expect_ident()
        params = self._parse_params()
        body = self._parse_block()
        return ast.FunctionDecl(
            line=start.line,
            name=name_token.text,
            return_type=ast.TypeRef(name=base, pointer_depth=depth),
            params=params,
            body=body,
        )

    # -- statements -----------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        open_token = self._expect_op("{")
        statements: list[ast.Stmt] = []
        while not self._peek().is_op("}"):
            statements.append(self._parse_statement())
        self._expect_op("}")
        return ast.Block(line=open_token.line, statements=tuple(statements))

    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        if token.is_op("{"):
            return self._parse_block()
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("return"):
            self._advance()
            value = None
            if not self._peek().is_op(";"):
                value = self._parse_expression()
            self._expect_op(";")
            return ast.ReturnStmt(line=token.line, value=value)
        if token.is_keyword("delete"):
            self._advance()
            is_array = False
            if self._accept_op("["):
                self._expect_op("]")
                is_array = True
            target = self._parse_expression()
            self._expect_op(";")
            return ast.DeleteStmt(line=token.line, target=target, is_array=is_array)
        if token.is_keyword("cin"):
            self._advance()
            targets = []
            while self._accept_op(">>"):
                targets.append(self._parse_unary())
            self._expect_op(";")
            return ast.CinRead(line=token.line, targets=tuple(targets))
        if token.is_keyword("cout"):
            self._advance()
            values = []
            while self._accept_op("<<"):
                if self._accept_keyword("endl"):
                    continue
                values.append(self._parse_expression_no_shift())
            self._expect_op(";")
            return ast.CoutWrite(line=token.line, values=tuple(values))
        if self._starts_declaration():
            decls = self._parse_var_decl_statement()
            if len(decls) == 1:
                return decls[0]
            return ast.Block(line=decls[0].line, statements=tuple(decls))
        return self._parse_expr_or_assign_statement()

    def _starts_declaration(self) -> bool:
        token = self._peek()
        if token.is_keyword("const"):
            return True
        if token.kind is not TokenKind.IDENT or token.text not in self._known_types:
            return False
        # TYPE '*'* IDENT  → declaration
        offset = 1
        if token.text == "unsigned":
            offset += 1
        while self._peek(offset).is_op("*"):
            offset += 1
        return self._peek(offset).kind is TokenKind.IDENT

    def _parse_var_decl_statement(self) -> list[ast.VarDecl]:
        base = self._parse_base_type()
        decls: list[ast.VarDecl] = []
        while True:
            depth = 0
            while self._accept_op("*"):
                depth += 1
            name_token = self._expect_ident()
            array_size = None
            if self._accept_op("["):
                array_size = self._parse_expression()
                self._expect_op("]")
            init = None
            if self._accept_op("="):
                init = self._parse_expression()
            elif self._peek().is_op("("):
                # Direct initialization: Student first = Student(...) is
                # handled by '='; `Student s(args)` comes here.
                self._advance()
                args = self._parse_call_args_until_close()
                init = ast.Call(
                    line=name_token.line, func=base, args=tuple(args)
                )
            decls.append(
                ast.VarDecl(
                    line=name_token.line,
                    type=ast.TypeRef(
                        name=base, pointer_depth=depth, array_size=array_size
                    ),
                    name=name_token.text,
                    init=init,
                )
            )
            if not self._accept_op(","):
                break
        self._expect_op(";")
        return decls

    def _parse_call_args_until_close(self) -> list[ast.Expr]:
        args: list[ast.Expr] = []
        if not self._peek().is_op(")"):
            while True:
                args.append(self._parse_expression())
                if not self._accept_op(","):
                    break
        self._expect_op(")")
        return args

    def _parse_expr_or_assign_statement(self) -> ast.Stmt:
        start = self._peek()
        expr = self._parse_expression()
        if self._accept_op("="):
            value = self._parse_expression()
            self._expect_op(";")
            return ast.Assign(line=start.line, target=expr, value=value)
        if self._peek().is_op("+=", "-=", "*=", "/="):
            op_token = self._advance()
            value = self._parse_expression()
            self._expect_op(";")
            desugared = ast.Binary(
                line=start.line, op=op_token.text[0], left=expr, right=value
            )
            return ast.Assign(line=start.line, target=expr, value=desugared)
        self._expect_op(";")
        return ast.ExprStmt(line=start.line, expr=expr)

    def _parse_if(self) -> ast.If:
        token = self._advance()
        self._expect_op("(")
        cond = self._parse_expression()
        self._expect_op(")")
        then_body = self._as_block(self._parse_statement())
        else_body = None
        if self._accept_keyword("else"):
            else_body = self._as_block(self._parse_statement())
        return ast.If(line=token.line, cond=cond, then_body=then_body, else_body=else_body)

    def _parse_while(self) -> ast.While:
        token = self._advance()
        self._expect_op("(")
        cond = self._parse_expression()
        self._expect_op(")")
        body = self._as_block(self._parse_statement())
        return ast.While(line=token.line, cond=cond, body=body)

    def _parse_for(self) -> ast.For:
        token = self._advance()
        self._expect_op("(")
        init: Optional[ast.Stmt] = None
        if not self._peek().is_op(";"):
            if self._starts_declaration():
                decls = self._parse_var_decl_statement()
                init = decls[0] if len(decls) == 1 else ast.Block(
                    line=token.line, statements=tuple(decls)
                )
            else:
                init = self._parse_expr_or_assign_statement()
        else:
            self._expect_op(";")
        cond: Optional[ast.Expr] = None
        if not self._peek().is_op(";"):
            cond = self._parse_expression()
        self._expect_op(";")
        step: Optional[ast.Stmt] = None
        if not self._peek().is_op(")"):
            step_start = self._peek()
            step_expr = self._parse_expression()
            if self._accept_op("="):
                value = self._parse_expression()
                step = ast.Assign(line=step_start.line, target=step_expr, value=value)
            elif self._peek().is_op("+=", "-="):
                op_token = self._advance()
                value = self._parse_expression()
                step = ast.Assign(
                    line=step_start.line,
                    target=step_expr,
                    value=ast.Binary(
                        line=step_start.line,
                        op=op_token.text[0],
                        left=step_expr,
                        right=value,
                    ),
                )
            else:
                step = ast.ExprStmt(line=step_start.line, expr=step_expr)
        self._expect_op(")")
        body = self._as_block(self._parse_statement())
        return ast.For(line=token.line, init=init, cond=cond, step=step, body=body)

    def _as_block(self, stmt: ast.Stmt) -> ast.Block:
        if isinstance(stmt, ast.Block):
            return stmt
        return ast.Block(line=stmt.line, statements=(stmt,))

    # -- expressions ---------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        return self._parse_binary(0)

    def _parse_expression_no_shift(self) -> ast.Expr:
        """For cout chains: stop at << (precedence level above shifts)."""
        return self._parse_binary(2)

    #: Binary operator → precedence level; higher binds tighter.
    _LEVELS = {
        "||": 0, "&&": 1, "==": 2, "!=": 2, "<": 2, ">": 2, "<=": 2, ">=": 2,
        "+": 3, "-": 3, "*": 4, "/": 4, "%": 4,
    }

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing: one call per operand, left-associative."""
        left = self._parse_unary()
        while True:
            token = self._tokens[self._pos]
            level = self._LEVELS.get(token.text, -1) if token.kind is TokenKind.OP else -1
            if level < min_level:
                return left
            self._pos += 1
            right = self._parse_binary(level + 1)
            left = ast.Binary(line=token.line, op=token.text, left=left, right=right)

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.is_op("&", "*", "-", "!", "++", "--", "~"):
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(line=token.line, op=token.text, operand=operand)
        if token.is_keyword("sizeof"):
            self._advance()
            self._expect_op("(")
            inner = self._peek()
            if inner.kind is TokenKind.IDENT and inner.text in self._known_types:
                type_name = self._parse_base_type()
                while self._accept_op("*"):
                    type_name += "*"
                self._expect_op(")")
                return ast.SizeOf(line=token.line, type_name=type_name)
            expr = self._parse_expression()
            self._expect_op(")")
            return ast.SizeOf(line=token.line, expr=expr)
        if token.is_keyword("new"):
            return self._parse_new()
        return self._parse_postfix(self._parse_primary())

    def _parse_new(self) -> ast.NewExpr:
        token = self._advance()  # 'new'
        placement: Optional[ast.Expr] = None
        if self._peek().is_op("("):
            self._advance()
            placement = self._parse_expression()
            self._expect_op(")")
        type_name = self._parse_base_type()
        while self._accept_op("*"):
            type_name += "*"
        array_count: Optional[ast.Expr] = None
        args: list[ast.Expr] = []
        if self._accept_op("["):
            array_count = self._parse_expression()
            self._expect_op("]")
        elif self._peek().is_op("("):
            self._advance()
            args = self._parse_call_args_until_close()
        return ast.NewExpr(
            line=token.line,
            type_name=type_name,
            placement=placement,
            array_count=array_count,
            args=tuple(args),
        )

    def _parse_primary(self) -> ast.Expr:
        token = self._advance()
        if token.kind is TokenKind.NUMBER or token.kind is TokenKind.FLOAT:
            is_int = token.kind is TokenKind.NUMBER
            try:  # int() refuses C++ octal (010, 08) and a bare 0x; both refuse '²'
                value = int(token.text, 0) if is_int else float(token.text)
            except ValueError:
                kind = "integer" if is_int else "float"
                message = f"invalid {kind} literal '{token.text}'"
                raise ParseError(message, token.line, token.column) from None
            return (ast.IntLit if is_int else ast.FloatLit)(line=token.line, value=value)
        if token.kind is TokenKind.STRING:
            return ast.StrLit(line=token.line, value=token.text)
        if token.kind is TokenKind.CHARLIT:
            return ast.IntLit(line=token.line, value=ord(token.text[:1] or "\0"))
        if token.is_keyword("true"):
            return ast.BoolLit(line=token.line, value=True)
        if token.is_keyword("false"):
            return ast.BoolLit(line=token.line, value=False)
        if token.is_keyword("NULL", "nullptr"):
            return ast.NullLit(line=token.line)
        if token.is_op("("):
            expr = self._parse_expression()
            self._expect_op(")")
            return expr
        if token.kind is TokenKind.IDENT or token.kind is TokenKind.KEYWORD:
            if self._peek().is_op("("):
                self._advance()
                args = self._parse_call_args_until_close()
                return ast.Call(line=token.line, func=token.text, args=tuple(args))
            return ast.Name(line=token.line, ident=token.text)
        raise ParseError(
            f"unexpected token '{token.text}' in expression", token.line, token.column
        )

    def _parse_postfix(self, expr: ast.Expr) -> ast.Expr:
        while True:
            if self._accept_op("["):
                index = self._parse_expression()
                self._expect_op("]")
                expr = ast.Index(line=expr.line, base=expr, index=index)
                continue
            if self._peek().is_op(".", "->"):
                op_token = self._advance()
                name_token = self._expect_ident()
                if self._peek().is_op("("):
                    self._advance()
                    args = self._parse_call_args_until_close()
                    expr = ast.Call(
                        line=name_token.line,
                        func=name_token.text,
                        args=tuple(args),
                        receiver=expr,
                    )
                else:
                    expr = ast.Member(
                        line=name_token.line,
                        obj=expr,
                        name=name_token.text,
                        arrow=op_token.text == "->",
                    )
                continue
            if self._peek().is_op("++", "--"):
                op_token = self._advance()
                expr = ast.Unary(line=op_token.line, op="post" + op_token.text, operand=expr)
                continue
            break
        return expr


def parse(source: str, declarations=None) -> ast.Program:
    """Parse MiniC++ source into a Program.

    ``declarations`` is an optional memo of parsed top-level
    declarations (any object with ``get(key)``, None on a miss, and
    ``put(key, value)``), shared across calls; see
    :func:`~.cache.parse_cached`.  The Program is the same with or
    without it.
    """
    return Parser(source, declarations).parse_program()

"""Tokenizer for MiniC++ source."""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from ..errors import ParseError

KEYWORDS = {
    "class", "public", "private", "protected", "virtual", "new", "delete",
    "if", "else", "while", "for", "return", "true", "false", "NULL",
    "nullptr", "sizeof", "cin", "cout", "endl", "struct", "const",
}

#: Multi-character operators, longest first so maximal munch works.
MULTI_OPS = (
    "<<=", ">>=", "->", "::", "<<", ">>", "<=", ">=", "==", "!=", "&&",
    "||", "++", "--", "+=", "-=", "*=", "/=",
)
SINGLE_OPS = "+-*/%<>=!&|~^.,;:()[]{}?"


class TokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    NUMBER = "number"
    FLOAT = "float"
    STRING = "string"
    CHARLIT = "charlit"
    OP = "op"
    EOF = "eof"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int

    def is_op(self, *ops: str) -> bool:
        return self.kind is TokenKind.OP and self.text in ops

    def is_keyword(self, *words: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text in words


#: One alternative per token class, tried in order.  Blanks before a
#: token are matched with it, and a newline opens a ``newline`` run of
#: whitespace.  ``other`` takes any other single character, which
#: :func:`tokenize` sorts out with the ``str`` predicates the language is
#: defined by; ``\Z`` ends a source that ends in blanks.
_PATTERN = re.compile(
    r"[ \t\r]*(?:(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<newline>\n[ \t\r\n]*)"
    r"|(?P<line_comment>//[^\n]*)"
    r"|(?P<block_comment>/\*.*?\*/)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<op>" + "|".join(map(re.escape, MULTI_OPS)) + "|[" + re.escape(SINGLE_OPS) + "])"
    r"|(?P<hex>0[xX][0-9a-fA-F]*)"
    r"|(?P<decimal>[0-9]+(?:\.[0-9]*)?)"
    r'|(?P<string>"[^"\\]*(?:\\.[^"\\]*)*")'
    r"|(?P<charlit>'[^'\\]*(?:\\.[^'\\]*)*')"
    r"|(?P<hash>#[^\n]*)"
    r"|(?P<other>.)|\Z)",
    re.DOTALL,
)
#: An identifier's continuation: ``\w`` is ``isalnum() or '_'`` on every
#: code point.
_WORD = re.compile(r"\w*")


def _digits_end(source: str, i: int) -> int:
    """End of the number at ``i`` by ``str.isdigit``, which accepts 128
    non-ASCII code points that ``\\d`` does not, and at most one ``.``."""
    j = i
    is_float = False
    while j < len(source) and (source[j].isdigit() or source[j] == "."):
        if source[j] == ".":
            if is_float:
                break
            is_float = True
        j += 1
    return j


def tokenize(source: str) -> list[Token]:
    """Turn source text into a token list ending with an EOF token.

    A token's column is its offset from ``line_start``, the character
    after the last newline in whitespace or a block comment.  So a
    newline inside a string or char literal does not advance ``line``,
    and a ``//`` comment, which moves ``line_start`` along by its own
    length, does not advance the column.  ``#`` starts a skipped line
    only at column 1.
    """
    tokens: list[Token] = []
    append = tokens.append
    match = _PATTERN.match
    line = 1
    line_start = pos = 0
    n = len(source)
    while pos < n:
        m = match(source, pos)
        group = m.lastgroup
        start = m.start(group) if group else n
        pos = m.end()
        if group == "ident":
            text = source[start:pos]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            append(Token(kind, text, line, start - line_start + 1))
        elif group == "op":
            append(Token(TokenKind.OP, source[start:pos], line, start - line_start + 1))
        elif group == "newline" or group == "block_comment":
            newlines = source.count("\n", start, pos)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", start, pos) + 1
        elif group == "decimal" or group == "hex":
            if group == "decimal" and pos < n and source[pos] >= "\x80":
                pos = _digits_end(source, start)
            text = source[start:pos]
            kind = TokenKind.FLOAT if "." in text else TokenKind.NUMBER
            append(Token(kind, text, line, start - line_start + 1))
        elif group == "string" or group == "charlit":
            kind = TokenKind.STRING if group == "string" else TokenKind.CHARLIT
            append(Token(kind, source[start + 1 : pos - 1], line, start - line_start + 1))
        elif group == "line_comment" or (group == "hash" and start == line_start):
            line_start += pos - start
        elif group == "open_comment":
            raise ParseError("unterminated block comment", line, start - line_start + 1)
        elif group is not None:
            ch = source[start]
            column = start - line_start + 1
            if ch.isalpha():
                pos = _WORD.match(source, start + 1).end()
                text = source[start:pos]
                kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            elif ch.isdigit():
                pos = _digits_end(source, start)
                text = source[start:pos]
                kind = TokenKind.FLOAT if "." in text else TokenKind.NUMBER
            elif ch == '"' or ch == "'":
                literal = "string" if ch == '"' else "char"
                raise ParseError(f"unterminated {literal} literal", line, column)
            else:
                raise ParseError(f"unexpected character {ch!r}", line, column)
            append(Token(kind, text, line, column))
    append(Token(TokenKind.EOF, "", line, n - line_start + 1))
    return tokens

"""Structure-aware mutations over MiniC++ ASTs.

Mutants are produced by parse → rebuild → unparse, never by raw text
splicing, so nearly every mutant parses again; a mutant that does not
(or that equals its parent) is discarded by returning ``None``.  The
operators deliberately target the seams the paper's bug class lives on:
size literals, ``sizeof`` guards, the placed type of a placement new,
statement presence/ordering, class field lists, and the attacker's
stdin script.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Optional

from ..analysis import ast_nodes as ast
from ..analysis import parse_cached
from ..analysis.unparse import unparse_program
from ..errors import ParseError
from .seeds import FuzzInput

#: Comparison flips that invert a guard's direction.
_FLIP = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "!=", "!=": "=="}

#: Values an int literal may be nudged to (beyond arithmetic nudges).
_MAGIC_INTS = (0, 1, 8, 64, 255, 4096, 9_000_001)


def transform(node, visit: Callable):
    """Depth-first rebuild of an AST; ``visit`` may replace any node.

    Children are rebuilt first; ``visit`` then sees the rebuilt node and
    may return a replacement (or ``None`` to keep it).  Untouched
    subtrees keep their identity, so ``result is node`` means "no
    change".
    """
    if isinstance(node, tuple):
        rebuilt = tuple(transform(item, visit) for item in node)
        return node if all(a is b for a, b in zip(rebuilt, node)) else rebuilt
    if not dataclasses.is_dataclass(node) or isinstance(node, type):
        return node
    changes = {}
    for spec in dataclasses.fields(node):
        value = getattr(node, spec.name)
        rebuilt = transform(value, visit)
        if rebuilt is not value:
            changes[spec.name] = rebuilt
    result = dataclasses.replace(node, **changes) if changes else node
    replacement = visit(result)
    return result if replacement is None else replacement


def _collect(node, want: Callable) -> list:
    """Every sub-node matching ``want``, in deterministic visit order."""
    found: list = []

    def visit(candidate):
        if want(candidate):
            found.append(candidate)
        return None

    transform(node, visit)
    return found


def _replace_nth(node, want: Callable, index: int, make: Callable):
    """Rebuild ``node`` with ``make(match)`` replacing the nth match."""
    state = {"seen": 0}

    def visit(candidate):
        if not want(candidate):
            return None
        position = state["seen"]
        state["seen"] += 1
        return make(candidate) if position == index else None

    return transform(node, visit)


# -- operators ---------------------------------------------------------------


def _tweak_int(rng: random.Random, program: ast.Program):
    literals = _collect(program, lambda n: isinstance(n, ast.IntLit))
    if not literals:
        return None
    index = rng.randrange(len(literals))
    old = literals[index].value
    value = rng.choice((old + 1, max(old - 1, 0), old * 2, *_MAGIC_INTS))
    if value == old:
        return None
    return _replace_nth(
        program,
        lambda n: isinstance(n, ast.IntLit),
        index,
        lambda lit: dataclasses.replace(lit, value=value),
    )


def _flip_comparison(rng: random.Random, program: ast.Program):
    def is_cmp(node):
        return isinstance(node, ast.Binary) and node.op in _FLIP

    comparisons = _collect(program, is_cmp)
    if not comparisons:
        return None
    index = rng.randrange(len(comparisons))
    return _replace_nth(
        program,
        is_cmp,
        index,
        lambda node: dataclasses.replace(node, op=_FLIP[node.op]),
    )


def _swap_placed_type(rng: random.Random, program: ast.Program):
    class_names = [cls.name for cls in program.classes]
    if len(class_names) < 2:
        return None

    def is_placement(node):
        return (
            isinstance(node, ast.NewExpr)
            and node.is_placement
            and node.type_name in class_names
        )

    placements = _collect(program, is_placement)
    if not placements:
        return None
    index = rng.randrange(len(placements))
    current = placements[index].type_name
    other = rng.choice([name for name in class_names if name != current])
    return _replace_nth(
        program,
        is_placement,
        index,
        lambda node: dataclasses.replace(node, type_name=other),
    )


def _blocks_of(program: ast.Program) -> list:
    return _collect(program, lambda n: isinstance(n, ast.Block))


def _edit_block(program, rng, edit: Callable):
    """Apply ``edit(statements) -> statements`` to one random block."""
    blocks = [b for b in _blocks_of(program) if b.statements]
    if not blocks:
        return None
    target = rng.randrange(len(blocks))

    def is_busy_block(node):
        return isinstance(node, ast.Block) and node.statements

    return _replace_nth(
        program,
        is_busy_block,
        target,
        lambda block: dataclasses.replace(
            block, statements=edit(block.statements, rng)
        ),
    )


def _drop_statement(rng: random.Random, program: ast.Program):
    def edit(statements, rng):
        index = rng.randrange(len(statements))
        return statements[:index] + statements[index + 1 :]

    return _edit_block(program, rng, edit)


def _duplicate_statement(rng: random.Random, program: ast.Program):
    def edit(statements, rng):
        index = rng.randrange(len(statements))
        return (
            statements[: index + 1]
            + (statements[index],)
            + statements[index + 1 :]
        )

    return _edit_block(program, rng, edit)


def _add_field(rng: random.Random, program: ast.Program):
    if not program.classes:
        return None
    index = rng.randrange(len(program.classes))
    target = program.classes[index]
    extra = ast.FieldDecl(
        type=ast.TypeRef(name=rng.choice(("int", "double", "char"))),
        name=f"mf{len(target.fields)}",
    )
    classes = list(program.classes)
    classes[index] = dataclasses.replace(
        target, fields=target.fields + (extra,)
    )
    return dataclasses.replace(program, classes=tuple(classes))


_PROGRAM_OPERATORS = (
    ("tweak-int", _tweak_int),
    ("flip-comparison", _flip_comparison),
    ("swap-placed-type", _swap_placed_type),
    ("drop-statement", _drop_statement),
    ("duplicate-statement", _duplicate_statement),
    ("add-field", _add_field),
)


def _mutate_stdin(rng: random.Random, stdin: tuple) -> tuple:
    tokens = list(stdin) or [7]
    choice = rng.randrange(3)
    if choice == 0:
        tokens[rng.randrange(len(tokens))] = rng.choice(_MAGIC_INTS)
    elif choice == 1:
        tokens.append(rng.choice(_MAGIC_INTS))
    elif len(tokens) > 1:
        tokens.pop(rng.randrange(len(tokens)))
    return tuple(tokens)


def mutate(rng: random.Random, parent: FuzzInput) -> Optional[FuzzInput]:
    """One mutation of ``parent``; ``None`` when the attempt fizzles."""
    if rng.random() < 0.15:
        stdin = _mutate_stdin(rng, parent.stdin)
        if stdin == parent.stdin:
            return None
        return dataclasses.replace(parent, stdin=stdin, label="")
    try:
        program = parse_cached(parent.source)
    except ParseError:
        return None
    name, operator = _PROGRAM_OPERATORS[rng.randrange(len(_PROGRAM_OPERATORS))]
    mutant = operator(rng, program)
    if mutant is None or mutant is program:
        return None
    try:
        source = unparse_program(mutant)
        parse_cached(source)  # a mutant must still be a program
    except (ParseError, ValueError):
        return None
    if source == parent.source:
        return None
    return FuzzInput(
        source=source, stdin=parent.stdin, family=parent.family, label=""
    )

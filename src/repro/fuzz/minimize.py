"""Greedy divergence-preserving reduction of a fuzz input.

Classic delta-debugging at statement/field granularity: repeatedly try
to delete one statement, one class field, one global, or trailing stdin
tokens, keeping any deletion under which ``predicate`` (usually "same
divergence fingerprint") still holds.  The loop is greedy and runs to a
fixpoint, so the result is 1-minimal with respect to the tried edits —
small enough to read in a triage report.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from ..analysis import ast_nodes as ast
from ..analysis import parse_cached
from ..analysis.unparse import unparse_program
from ..errors import ParseError
from .mutator import transform
from .seeds import FuzzInput


def _without_statement(program: ast.Program, block_index: int, stmt_index: int):
    state = {"seen": 0}

    def visit(node):
        if not (isinstance(node, ast.Block) and node.statements):
            return None
        position = state["seen"]
        state["seen"] += 1
        if position != block_index:
            return None
        statements = node.statements
        return dataclasses.replace(
            node,
            statements=statements[:stmt_index] + statements[stmt_index + 1 :],
        )

    return transform(program, visit)


def _busy_blocks(program: ast.Program) -> list:
    found = []

    def visit(node):
        if isinstance(node, ast.Block) and node.statements:
            found.append(node)
        return None

    transform(program, visit)
    return found


def _candidates(program: ast.Program):
    """Every single-deletion candidate, deterministic order."""
    for block_index, block in enumerate(_busy_blocks(program)):
        for stmt_index in range(len(block.statements)):
            yield _without_statement(program, block_index, stmt_index)
    for class_index, cls in enumerate(program.classes):
        for field_index in range(len(cls.fields)):
            classes = list(program.classes)
            classes[class_index] = dataclasses.replace(
                cls,
                fields=cls.fields[:field_index] + cls.fields[field_index + 1 :],
            )
            yield dataclasses.replace(program, classes=tuple(classes))
        classes = list(program.classes)
        del classes[class_index]
        yield dataclasses.replace(program, classes=tuple(classes))
    for global_index in range(len(program.globals)):
        globals_ = list(program.globals)
        del globals_[global_index]
        yield dataclasses.replace(program, globals=tuple(globals_))


def minimize_input(
    fuzz_input: FuzzInput,
    predicate: Callable[[FuzzInput], bool],
    max_rounds: int = 12,
) -> FuzzInput:
    """Shrink ``fuzz_input`` while ``predicate`` keeps holding."""
    current = fuzz_input
    for _ in range(max_rounds):
        shrunk = _shrink_once(current, predicate)
        if shrunk is None:
            break
        current = shrunk
    # Trailing stdin tokens the divergence does not need.
    while current.stdin:
        candidate = dataclasses.replace(current, stdin=current.stdin[:-1])
        if not predicate(candidate):
            break
        current = candidate
    return current


def _shrink_once(current: FuzzInput, predicate) -> FuzzInput | None:
    """The first single deletion that preserves the divergence."""
    try:
        program = parse_cached(current.source)
    except ParseError:
        return None
    for candidate_ast in _candidates(program):
        if candidate_ast is program:
            continue
        try:
            source = unparse_program(candidate_ast)
            parse_cached(source)
        except (ParseError, ValueError):
            continue
        if source == current.source:
            continue
        candidate = dataclasses.replace(current, source=source)
        if predicate(candidate):
            return candidate
    return None

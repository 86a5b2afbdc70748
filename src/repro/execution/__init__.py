"""Dynamic execution of MiniC++ programs on the simulated machine.

The dynamic complement to :mod:`repro.analysis`: the same sources the
static detector flags are *run* here, so every report can be validated
against observed memory corruption.  The AST :class:`Interpreter` is
the one engine every command, job and API request runs on.
"""

from .interpreter import (
    DEFAULT_STEP_BUDGET,
    ExecutionError,
    FunctionOutcome,
    Interpreter,
    run_source,
)
from .values import LValue, Scope, Variable, truthy

__all__ = [
    "DEFAULT_STEP_BUDGET",
    "ExecutionError",
    "FunctionOutcome",
    "Interpreter",
    "LValue",
    "Scope",
    "Variable",
    "run_source",
    "truthy",
]

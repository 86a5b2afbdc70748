"""Placeholder left where the bytecode VM was.

The AST :class:`~repro.execution.interpreter.Interpreter` is the only
execution engine.  ``perfbench/layers.py`` still wraps
``BytecodeVM.run`` in its traced run; ROADMAP item 1 deletes that wrap
and this module together.
"""


class BytecodeVM:
    """No engine: nothing constructs this class."""

    def run(self, *args):
        raise NotImplementedError("the bytecode VM was removed")

"""The engine parity gate: the bytecode VM must agree with the AST
interpreter on every committed corpus — return values, outputs, stored
payloads, events, step counts — with zero drift.
"""

from pathlib import Path

import pytest

from repro.execution import run_source
from repro.execution.vm import BytecodeVM, compiled_for, reset_cache
from repro.fuzz.oracles import DEFAULT_STDIN, _entry_plan
from repro.fuzz.seeds import seed_inputs
from repro.regress import RegressionStore
from repro.runtime import Machine

REPO = Path(__file__).resolve().parent.parent
REGRESS_DIR = REPO / "corpus" / "regress"
PACKAGES_DIR = REPO / "corpus" / "packages"


def _package_sources():
    return sorted(PACKAGES_DIR.glob("*.cpp"))


def _regress_bundles():
    store = RegressionStore(REGRESS_DIR, create=False)
    return [store.load(bundle_id) for bundle_id in store.ids()]


def _bundle_runs():
    """Each committed bundle as the fuzz oracle runs it: its planned
    entry and arguments, and the default stdin when it carries none."""
    runs = []
    for bundle in _regress_bundles():
        entry, args = _entry_plan(bundle.source)
        stdin = tuple(bundle.stdin) or DEFAULT_STDIN
        runs.append(
            pytest.param(
                bundle.source, stdin, entry, args, id=bundle.bundle_id[:12]
            )
        )
    return runs


def _run_engines(source, stdin=(), entry="main", args=(0, 0)):
    """One (outcome, events) observation per engine, exceptions included."""

    def run_one(use_vm):
        machine = Machine()
        try:
            if use_vm:
                compiled, note = compiled_for(source)
                assert compiled is not None, f"not compilable: {note}"
                executor = BytecodeVM(compiled, machine=machine)
                if stdin:
                    machine.stdin.feed(*stdin)
                outcome = executor.run(entry, *args)
            else:
                executor, outcome = run_source(
                    source, entry=entry, args=args, machine=machine, stdin=stdin
                )
            return (
                "ok",
                outcome.return_value,
                outcome.steps,
                tuple(executor.outputs),
                tuple(executor.stored),
                outcome.frame_exit is not None and outcome.frame_exit.hijacked,
                tuple(machine.events),
            )
        except Exception as error:
            return ("exc", type(error).__name__, str(error), tuple(machine.events))

    return run_one(False), run_one(True)


class TestPackageCorpusParity:
    """Every committed package runs identically on both engines."""

    @pytest.mark.parametrize(
        "path", _package_sources(), ids=lambda p: p.stem
    )
    def test_package_zero_drift(self, path):
        source = path.read_text()
        ast_run, vm_run = _run_engines(source)
        assert ast_run == vm_run


class TestRegressCorpusParity:
    """Every committed regression bundle runs identically on both
    engines."""

    @pytest.mark.parametrize("source,stdin,entry,args", _bundle_runs())
    def test_bundle_zero_drift(self, source, stdin, entry, args):
        ast_run, vm_run = _run_engines(source, stdin, entry, args)
        assert ast_run == vm_run


class TestSeedFamilyParity:
    """Every generator seed family (both ground-truth labels) agrees."""

    @pytest.mark.parametrize(
        "fuzz_input",
        seed_inputs(20260808),
        ids=lambda i: f"{i.family or 'corpus'}-{i.label or 'x'}",
    )
    def test_seed_zero_drift(self, fuzz_input):
        ast_run, vm_run = _run_engines(fuzz_input.source, fuzz_input.stdin)
        assert ast_run == vm_run


class TestCorpusCompiles:
    """The committed corpora never take the slow-path fallback: the
    compiler handles every construct the corpus exercises."""

    def test_no_fallbacks_across_corpora(self):
        reset_cache()
        sources = [path.read_text() for path in _package_sources()]
        sources += [bundle.source for bundle in _regress_bundles()]
        for source in sources:
            compiled, note = compiled_for(source)
            assert compiled is not None and note == "", note


def test_repo_corpora_exist():
    # The gate above is vacuous if the corpus dirs move; fail loudly.
    assert _package_sources(), "corpus/packages is empty or missing"
    assert (REGRESS_DIR / "").exists() and list(REGRESS_DIR.glob("*.json"))

"""Import hygiene: a command loads only the modules it runs.

Package ``__init__``s resolve their exports on first access, so the
static-analysis commands never import the byte-level simulator and the
fuzzer never imports the attack gallery.  Each command runs in a fresh
interpreter here, since the pytest process has long since imported
everything.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import repro
from repro.fuzz import divergence, oracles, vocabulary

SRC = Path(repro.__file__).resolve().parents[1]
ROOT = SRC.parent
_ENV = {**os.environ, "PYTHONPATH": str(SRC)}

#: Every package whose ``__init__`` resolves its exports lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.attacks",
    "repro.core",
    "repro.cxx",
    "repro.defenses",
    "repro.fuzz",
    "repro.memory",
    "repro.regress",
    "repro.runtime",
    "repro.service",
    "repro.workloads",
)

_RUN = """
import contextlib, io, json, sys
from repro import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = getattr(cli, sys.argv[1])(sys.argv[2:-1])
roots = json.loads(sys.argv[-1])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] in roots)]))
"""


def _modules_loaded_by(entry: str, *argv: str, roots: tuple = ("repro",)) -> list:
    """Run ``repro.cli.<entry>(argv)`` in a fresh interpreter; the
    modules it loaded whose top-level package is in ``roots``."""
    done = subprocess.run(
        [sys.executable, "-c", _RUN, entry, *argv, json.dumps(roots)],
        cwd=ROOT,
        env=_ENV,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    return modules


def _under(modules: list, *packages: str) -> list:
    return [
        name
        for name in modules
        if any(name == package or name.startswith(package + ".") for package in packages)
    ]


def test_score_rank_loads_no_simulator_fuzzer_or_gallery():
    modules = _modules_loaded_by("score_main", "rank", "corpus/packages")
    assert _under(
        modules,
        "repro.runtime",
        "repro.execution",
        "repro.attacks",
        "repro.defenses",
        "repro.fuzz.campaign",
    ) == []
    assert len(modules) <= 45, modules


def test_fuzz_run_loads_no_attack_gallery(tmp_path):
    out = str(tmp_path / "report.json")
    modules = _modules_loaded_by(
        "fuzz_main", "run", "--seed", "3", "--iterations", "20", "--jobs", "0", "--out", out
    )
    assert "repro.fuzz.oracles" in modules
    assert _under(modules, "repro.attacks") == []


@pytest.mark.parametrize(
    ("entry", "argv"),
    [
        ("score_main", ["rank", "corpus/packages"]),
        ("fuzz_main", ["run", "--seed", "3", "--iterations", "20", "--jobs", "0"]),
        ("matrix_main", ["run", "--jobs", "0", "--no-regress", "--defenses", "none"]),
        ("regress_main", ["replay", "--store", "corpus/regress", "--jobs", "0"]),
        ("analyze_main", ["--jobs", "2"]),
    ],
    ids=["score-rank", "fuzz-run", "matrix-run", "regress-replay", "analyze"],
)
def test_batch_command_loads_no_job_classes(entry, argv):
    """A batch command calls its own function, inline or on a pool: it
    builds no service job and no engine, so it never imports them."""
    modules = _modules_loaded_by(entry, *argv)
    assert "repro.service.workers" in modules
    assert _under(modules, "repro.service.jobs", "repro.service.engine") == []


@pytest.mark.parametrize(
    ("entry", "argv"),
    [
        ("fuzz_main", ["run", "--seed", "3", "--iterations", "20", "--jobs", "0"]),
        ("matrix_main", ["run", "--jobs", "0"]),
    ],
    ids=["fuzz-run", "matrix-run"],
)
def test_batch_command_loads_no_generated_code_machinery(entry, argv):
    """Records are built without ``dataclasses`` (DESIGN.md, "Import
    policy"), so the simulator's commands never load it, nor the
    ``inspect`` module it imports."""
    modules = _modules_loaded_by(entry, *argv, roots=("repro", "dataclasses", "inspect"))
    assert "repro._record" in modules
    assert _under(modules, "dataclasses", "inspect") == []


def test_bare_import_loads_no_subpackage():
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys, repro; print(json.dumps(sorted(sys.modules)))"],
        env=_ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    loaded = _under(json.loads(done.stdout), "repro")
    assert loaded == ["repro", "repro._exports"]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves(package):
    """Every ``__all__`` name resolves, and to the object its submodule
    defines, even with every submodule already imported (importing one
    binds it on its package, which must not shadow an export)."""
    module = importlib.import_module(package)
    for info in pkgutil.walk_packages(module.__path__, package + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    for name in module.__all__:
        value = getattr(module, name)
        assert not isinstance(value, ModuleType), f"{package}.{name} is a module"


def test_subpackage_resolves_as_an_attribute():
    assert repro.runtime.Machine is repro.Machine
    with pytest.raises(AttributeError):
        repro.no_such_subpackage


class TestVocabulary:
    """The leaf module's constants are the oracles' own."""

    def test_triage_labels_follow_the_triage_rules(self):
        assert vocabulary.TRIAGE_LABELS == tuple(
            label for label, _, _ in divergence.TRIAGE_RULES
        )

    def test_oracles_use_the_leaf_constants(self):
        assert oracles.VULNERABLE_EVENTS is vocabulary.VULNERABLE_EVENTS
        assert oracles.DEFAULT_STEP_BUDGET == vocabulary.DEFAULT_STEP_BUDGET == 50_000

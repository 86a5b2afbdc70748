"""Shared fixtures: machines in the hardening configurations the paper
evaluates, plus the running-example classes."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.runtime import CanaryPolicy, Machine, MachineConfig
from repro.workloads import make_student_classes

#: ``--hypothesis-profile=deep``: the CI gate's long run of the property
#: tests that leave the example count to the profile.
settings.register_profile("deep", max_examples=2000, deadline=None)


@pytest.fixture
def machine() -> Machine:
    """A baseline victim: no canary, FP saved, executable stack —
    the most permissive target, like the paper's unprotected builds."""
    return Machine(
        MachineConfig(canary_policy=CanaryPolicy.NONE, save_frame_pointer=True)
    )


@pytest.fixture
def bare_machine() -> Machine:
    """No canary and no saved FP (the paper's ssn[0]→ret case)."""
    return Machine(
        MachineConfig(canary_policy=CanaryPolicy.NONE, save_frame_pointer=False)
    )


@pytest.fixture
def guarded_machine() -> Machine:
    """StackGuard-style: random canary + saved FP (gcc -fstack-protector)."""
    return Machine(
        MachineConfig(
            canary_policy=CanaryPolicy.RANDOM,
            canary_seed=99,
            save_frame_pointer=True,
        )
    )


@pytest.fixture
def nx_machine() -> Machine:
    """Non-executable stack and heap (the Section 5.2 mitigation)."""
    return Machine(
        MachineConfig(
            canary_policy=CanaryPolicy.NONE,
            save_frame_pointer=True,
            nx_stack=True,
            nx_heap=True,
        )
    )


@pytest.fixture
def student_classes():
    """Plain (non-virtual) Student and GradStudent."""
    return make_student_classes(virtual=False)


@pytest.fixture
def virtual_student_classes():
    """Polymorphic Student and GradStudent (Section 3.8.2 variants)."""
    return make_student_classes(virtual=True)

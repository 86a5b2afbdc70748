"""Integration tests: information leaks, DoS, and memory leaks (§4.3–4.5)."""

import pytest

from repro.attacks import (
    SANITIZE,
    UNPROTECTED,
    ArrayInfoLeakAttack,
    AuthBypassAttack,
    DosLoopAttack,
    MemoryLeakAttack,
    ObjectInfoLeakAttack,
    ResourceExhaustionAttack,
    TrackedLeakMeasurement,
    attack_by_name,
)
from repro.defenses import ALL_DEFENSES, defense_by_name, run_leak_comparison


class TestInfoLeaks:
    """Listings 21–22."""

    def test_array_leak_ships_password_bytes(self):
        result = ArrayInfoLeakAttack().run(UNPROTECTED)
        assert result.succeeded
        assert result.detail["leaked_bytes"] > 100
        assert result.detail["contains_password_hash"]

    def test_leak_shrinks_with_longer_userdata(self):
        short = ArrayInfoLeakAttack(userdata="ab").run(UNPROTECTED)
        long = ArrayInfoLeakAttack(userdata="a" * 200).run(UNPROTECTED)
        assert short.detail["leaked_bytes"] > long.detail["leaked_bytes"]

    def test_sanitize_on_reuse_stops_array_leak(self):
        result = ArrayInfoLeakAttack().run(SANITIZE)
        assert not result.succeeded
        assert result.detail["leaked_bytes"] == 0

    def test_object_leak_ships_ssn(self):
        result = ObjectInfoLeakAttack(ssn=(111, 22, 3333)).run(UNPROTECTED)
        assert result.succeeded
        assert result.detail["leaked_ssn"] == [111, 22, 3333]

    def test_sanitize_on_reuse_stops_object_leak(self):
        result = ObjectInfoLeakAttack().run(SANITIZE)
        assert not result.succeeded


class TestDoS:
    """Section 4.4."""

    def test_loop_inflation_times_out(self):
        result = DosLoopAttack(budget=10_000).run(UNPROTECTED)
        assert result.succeeded
        assert result.detail["outcome"] == "request timed out"
        assert result.detail["loop_bound"] > 10_000

    def test_honest_bound_serves_request(self):
        attack = DosLoopAttack(injected_n=3)
        result = attack.run(UNPROTECTED)
        # n is overwritten with 3 — small, so the request is served;
        # the *mechanism* (overwrite) still worked.
        assert result.detail["loop_bound"] == 3
        assert not result.succeeded

    @pytest.mark.parametrize(
        "injected_n, succeeded, steps",
        [(-7, False, 0), (0, False, 0), (100, False, 100), (101, True, 101), (10**9, True, 101)],
    )
    def test_steps_at_the_budget_edge(self, injected_n, succeeded, steps):
        result = DosLoopAttack(injected_n=injected_n, budget=100).run(UNPROTECTED)
        assert result.succeeded is succeeded
        assert result.detail["loop_bound"] == injected_n
        assert result.detail["steps_executed"] == steps

    def test_auth_bypass_skips_all_checks(self):
        result = AuthBypassAttack().run(UNPROTECTED)
        assert result.succeeded
        assert result.detail["checks_run"] == 0
        assert result.detail["checks_expected"] == 5

    def test_resource_exhaustion_reaches_oom(self):
        result = ResourceExhaustionAttack().run(UNPROTECTED)
        assert result.succeeded
        assert result.detail["allocations_before_oom"] > 0


class TestMemoryLeak:
    """Listing 23."""

    def test_leak_per_iteration_is_size_difference(self):
        result = TrackedLeakMeasurement(iterations=20).run(UNPROTECTED)
        assert result.succeeded
        assert result.detail["leak_per_iteration"] == 16  # 32 - 16
        assert result.detail["total_leaked"] == 20 * 16
        assert result.detail["uniform"]

    def test_leak_attack_accumulates(self):
        result = MemoryLeakAttack(iterations=50).run(UNPROTECTED)
        assert result.succeeded
        assert result.detail["total_leaked"] == 50 * 16

    def test_exhaustion_variant_kills_heap(self):
        result = MemoryLeakAttack(until_exhaustion=True).run(UNPROTECTED)
        assert result.succeeded
        assert result.detail["heap_exhausted"]

    def test_leak_discipline_comparison(self):
        outcomes = {o.discipline: o for o in run_leak_comparison(iterations=30)}
        leaky = outcomes["as-written (Listing 23)"]
        owner = outcomes["arena-owner protocol"]
        assert leaky.leaked_bytes == 30 * 16
        assert owner.leaked_bytes == 0
        assert outcomes["equal-size-only"].leaked_bytes == 0
        assert outcomes["equal-size-only"].refused == 30


# -- full results on every matrix defense --------------------------------

_LEAK = {
    "iterations": 100,
    "leak_per_iteration": 16,
    "total_leaked": 1600,
    "heap_exhausted": False,
}
_EXHAUSTED = {
    "iterations": 340,
    "leak_per_iteration": 16,
    "total_leaked": 5440,
    "heap_exhausted": True,
}
_TRACKED = {"leak_per_iteration": 16, "total_leaked": 800, "uniform": True}
_TIMED_OUT = {
    "outcome": "request timed out",
    "loop_bound": 50_000_000,
    "steps_executed": 100_001,
}
_OOM = {"allocations_before_oom": 63, "heap_bytes_in_use": 258048}
_TRAMPLED = {
    "name_before": "abcdefghijklmno",
    "name_after": "ZZZZefghijklmno",
    "heap_metadata_corrupted": True,
    "overflow_gap": 8,
}


def _stopped(detected_by: str, error: str) -> tuple:
    return (False, detected_by, False, {"error": error}, 0)


_REFUSED = _stopped(
    "bounds-check",
    "placement-new bounds check failed: object of 32 bytes does not fit arena"
    " of 16 bytes: refusing to place GradStudent into smaller arena",
)
_RED_ZONE_STACK = _stopped(
    "shadow-memory", "red-zone violation: 4-byte write touching 0xbffffef4"
)
_VRT_STACK = _stopped(
    "vrt",
    "VRT: placement of 32B at 0xbffffee0 exceeds the 16B record of"
    " variable 0xbffffee0",
)
_TAG_STACK = _stopped(
    "memory-tagging",
    "tag mismatch: write of 4B at 0xbffffef4 expected colour 1, memory holds 0",
)

#: (succeeded, detected_by, crashed, detail, len(events)) per scenario on
#: an undefended machine; ``_STOPPED_BY`` lists the defenses that differ.
_UNDEFENDED = {
    "memory-leak": (True, None, False, _LEAK, 0),
    "memory-leak-exhaustion": (True, None, False, _EXHAUSTED, 0),
    "memory-leak-tracked": (True, None, False, _TRACKED, 0),
    "dos-loop-inflation": (True, None, False, _TIMED_OUT, 0),
    "dos-resource-exhaustion": (True, None, False, _OOM, 0),
    "heap-overflow": (True, None, False, _TRAMPLED, 0),
}
_STOPPED_BY = {
    ("dos-loop-inflation", "checked-placement"): _REFUSED,
    ("dos-resource-exhaustion", "checked-placement"): _REFUSED,
    ("heap-overflow", "checked-placement"): _REFUSED,
    ("dos-loop-inflation", "shadow-memory"): _RED_ZONE_STACK,
    ("dos-resource-exhaustion", "shadow-memory"): _RED_ZONE_STACK,
    ("heap-overflow", "shadow-memory"): _stopped(
        "shadow-memory", "red-zone violation: 4-byte write touching 0x08060018"
    ),
    ("dos-loop-inflation", "vrt"): _VRT_STACK,
    ("dos-resource-exhaustion", "vrt"): _VRT_STACK,
    ("heap-overflow", "vrt"): _stopped(
        "vrt",
        "VRT: placement of 32B at 0x08060008 exceeds the 16B record of"
        " variable 0x08060008",
    ),
    ("dos-loop-inflation", "memory-tagging"): _TAG_STACK,
    ("dos-resource-exhaustion", "memory-tagging"): _TAG_STACK,
    ("heap-overflow", "memory-tagging"): _stopped(
        "memory-tagging",
        "tag mismatch: write of 4B at 0x08060018 expected colour 1, memory holds 0",
    ),
}


def _scenario(name: str):
    if name == "memory-leak-exhaustion":
        return MemoryLeakAttack(until_exhaustion=True)
    return attack_by_name(name)


@pytest.mark.parametrize("defense", [d.name for d in ALL_DEFENSES])
@pytest.mark.parametrize("scenario", sorted(_UNDEFENDED))
def test_full_result_on_every_matrix_defense(scenario, defense):
    """The matrix report keeps only each cell's summary; this pins the
    whole result of the heap-heavy scenarios, so a faster heap walk or
    loop has to reproduce every detail, not just the verdict."""
    result = _scenario(scenario).run(defense_by_name(defense).fresh_environment())
    expected = _STOPPED_BY.get((scenario, defense), _UNDEFENDED[scenario])
    observed = (
        result.succeeded,
        result.detected_by,
        result.crashed,
        result.detail,
        len(result.events),
    )
    assert observed == expected

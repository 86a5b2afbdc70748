"""Unit and property tests for alignment arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ApiMisuseError
from repro.memory import align_down, align_up, is_aligned, is_power_of_two

ALIGNMENTS = st.sampled_from([1, 2, 4, 8, 16, 32, 64, 4096])
VALUES = st.integers(min_value=0, max_value=2**32)


class TestPowerOfTwo:
    def test_accepts_powers(self):
        for exponent in range(20):
            assert is_power_of_two(1 << exponent)

    def test_rejects_non_powers(self):
        for value in (0, 3, 5, 6, 7, 9, 12, 100, -1, -4):
            assert not is_power_of_two(value)


class TestAlignUp:
    def test_already_aligned_is_identity(self):
        assert align_up(16, 8) == 16

    def test_rounds_to_next_multiple(self):
        assert align_up(17, 8) == 24
        assert align_up(1, 4) == 4

    def test_zero(self):
        assert align_up(0, 64) == 0

    def test_rejects_bad_alignment(self):
        with pytest.raises(ApiMisuseError):
            align_up(10, 3)

    def test_rejects_negative_value(self):
        with pytest.raises(ApiMisuseError):
            align_up(-8, 4)

    @given(VALUES, ALIGNMENTS)
    def test_result_is_aligned_and_minimal(self, value, alignment):
        result = align_up(value, alignment)
        assert result % alignment == 0
        assert result >= value
        assert result - value < alignment


class TestAlignDown:
    def test_rounds_down(self):
        assert align_down(17, 8) == 16
        assert align_down(7, 8) == 0

    @given(VALUES, ALIGNMENTS)
    def test_result_is_aligned_and_maximal(self, value, alignment):
        result = align_down(value, alignment)
        assert result % alignment == 0
        assert result <= value
        assert value - result < alignment

    @given(VALUES, ALIGNMENTS)
    def test_down_up_bracket(self, value, alignment):
        assert align_down(value, alignment) <= value <= align_up(value, alignment)


class TestIsAligned:
    def test_basic(self):
        assert is_aligned(24, 8)
        assert not is_aligned(20, 8)
        assert is_aligned(5, 1)

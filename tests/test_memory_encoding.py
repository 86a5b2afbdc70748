"""Tests for the little-endian scalar codec (the ILP32 target model)."""

import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ApiMisuseError
from repro.memory import (
    decode_c_string,
    decode_double,
    decode_float,
    decode_int,
    decode_pointer,
    encode_c_string,
    encode_double,
    encode_float,
    encode_int,
    encode_pointer,
)


class TestIntCodec:
    def test_little_endian_order(self):
        assert encode_int(0x12345678, 4) == b"\x78\x56\x34\x12"

    def test_widths(self):
        assert len(encode_int(1, 1)) == 1
        assert len(encode_int(1, 2)) == 2
        assert len(encode_int(1, 4)) == 4
        assert len(encode_int(1, 8)) == 8

    def test_negative_two_complement(self):
        assert encode_int(-1, 4) == b"\xff\xff\xff\xff"

    def test_wrapping_like_c_narrowing(self):
        # Storing an address-sized value into an int wraps, not raises —
        # attacks depend on this (e.g. writing a pointer via ssn[i]).
        assert decode_int(encode_int(2**32 + 5, 4), signed=False) == 5

    def test_signed_reinterpretation(self):
        data = encode_int(0xFFFFFFFF, 4, signed=False)
        assert decode_int(data, signed=True) == -1

    def test_bad_width_rejected(self):
        with pytest.raises(ApiMisuseError):
            encode_int(1, 3)
        with pytest.raises(ApiMisuseError):
            decode_int(b"\x00\x00\x00")

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_roundtrip_signed32(self, value):
        assert decode_int(encode_int(value, 4), signed=True) == value

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip_unsigned32(self, value):
        assert decode_int(encode_int(value, 4, signed=False), signed=False) == value

    @given(st.integers(), st.sampled_from([1, 2, 4, 8]))
    def test_wrapping_is_modular(self, value, width):
        decoded = decode_int(encode_int(value, width, signed=False), signed=False)
        assert decoded == value % (2**(8 * width))


#: The ``struct`` formats of the reference int codec.
_STRUCT_FORMATS = {
    (1, True): "<b", (2, True): "<h", (4, True): "<i", (8, True): "<q",
    (1, False): "<B", (2, False): "<H", (4, False): "<I", (8, False): "<Q",
}


def _reference_encode(value, width, signed):
    """Wrap modulo 2**(8*width), reinterpret as two's complement when
    signed, then ``struct.pack``."""
    if width not in (1, 2, 4, 8):
        raise ApiMisuseError(f"unsupported scalar width {width}")
    wrapped = value & ((1 << (8 * width)) - 1)
    if signed and wrapped >> (8 * width - 1):
        wrapped -= 1 << (8 * width)
    return struct.pack(_STRUCT_FORMATS[width, signed], wrapped)


def _reference_decode(data, signed):
    if len(data) not in (1, 2, 4, 8):
        raise ApiMisuseError(f"unsupported scalar width {len(data)}")
    return struct.unpack(_STRUCT_FORMATS[len(data), signed], bytes(data))[0]


class TestIntCodecMatchesStruct:
    """``encode_int``/``decode_int`` against a ``struct`` reference."""

    @given(
        st.integers(min_value=-(2**80), max_value=2**80),
        st.sampled_from([1, 2, 4, 8]),
        st.booleans(),
    )
    def test_encode_matches_reference(self, value, width, signed):
        assert encode_int(value, width, signed=signed) == _reference_encode(
            value, width, signed
        )

    @given(st.sampled_from([1, 2, 4, 8]), st.booleans(), st.data())
    def test_decode_matches_reference(self, width, signed, data):
        raw = data.draw(st.binary(min_size=width, max_size=width))
        assert decode_int(raw, signed=signed) == _reference_decode(raw, signed)
        assert decode_int(bytearray(raw), signed=signed) == _reference_decode(
            raw, signed
        )

    @pytest.mark.parametrize("width", [0, 3, 16])
    @pytest.mark.parametrize("signed", [True, False])
    def test_bad_widths_raise_on_both_sides(self, width, signed):
        for codec in (encode_int, _reference_encode):
            with pytest.raises(ApiMisuseError, match=f"width {width}"):
                codec(1, width, signed)
        for codec in (decode_int, _reference_decode):
            with pytest.raises(ApiMisuseError, match=f"width {width}"):
                codec(b"\x00" * width, signed)

class TestFloatCodec:
    def test_double_roundtrip(self):
        assert decode_double(encode_double(3.9)) == 3.9

    def test_double_is_8_bytes(self):
        assert len(encode_double(0.0)) == 8

    def test_float_roundtrip_lossy(self):
        assert decode_float(encode_float(0.5)) == 0.5

    def test_garbage_bytes_decode_to_some_double(self):
        # Overflow writes arbitrary ints over a double; decoding must not
        # raise (Listing 11's corrupted gpa is a tiny denormal).
        value = decode_double(b"\x11\x11\x11\x11\x22\x22\x22\x22")
        assert isinstance(value, float)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_double_roundtrip_property(self, value):
        assert decode_double(encode_double(value)) == value

    def test_nan_roundtrip(self):
        assert math.isnan(decode_double(encode_double(float("nan"))))

    def test_size_validation(self):
        with pytest.raises(ApiMisuseError):
            decode_double(b"\x00" * 4)
        with pytest.raises(ApiMisuseError):
            decode_float(b"\x00" * 8)


class TestPointerCodec:
    def test_roundtrip(self):
        assert decode_pointer(encode_pointer(0xBFFFF000)) == 0xBFFFF000

    def test_is_4_bytes(self):
        assert len(encode_pointer(0)) == 4

    def test_size_validation(self):
        with pytest.raises(ApiMisuseError):
            decode_pointer(b"\x00" * 8)


class TestCStringCodec:
    def test_nul_terminated(self):
        assert encode_c_string("ab") == b"ab\x00"

    def test_strncpy_truncation_drops_terminator(self):
        # strncpy semantics: exactly n bytes, no terminator if src >= n.
        assert encode_c_string("abcdef", buffer_size=4) == b"abcd"

    def test_strncpy_zero_padding(self):
        assert encode_c_string("ab", buffer_size=6) == b"ab\x00\x00\x00\x00"

    def test_decode_stops_at_nul(self):
        assert decode_c_string(b"hi\x00there") == "hi"

    def test_decode_without_nul_reads_all(self):
        assert decode_c_string(b"abc") == "abc"

    def test_negative_buffer_rejected(self):
        with pytest.raises(ApiMisuseError):
            encode_c_string("x", buffer_size=-1)

    @given(st.text(alphabet=st.characters(min_codepoint=1, max_codepoint=255), max_size=64))
    def test_roundtrip(self, text):
        assert decode_c_string(encode_c_string(text)) == text

"""Differential tests: the byte-permutation kernel against the scalar functions."""

from array import array

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fbar.addressing import (
    LAYOUTS,
    decode_stream,
    encode_stream,
    pair_of_row,
    pair_table,
    row_array,
    row_of_pair,
    row_table,
)

# Every pair in (x << 8 | x2) order; read as a row stream, rows 0..65535.
EVERY_PAIR = bytes(b for key in range(65536) for b in (key >> 8, key & 0xFF))


def _scalar_rows(layout):
    return [row_of_pair(key >> 8, key & 0xFF, layout) for key in range(65536)]


def _scalar_pairs(layout):
    return b"".join(bytes(pair_of_row(row, layout)) for row in range(65536))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_kernel_matches_scalar_functions_exhaustively(layout):
    rows = _scalar_rows(layout)
    pairs = _scalar_pairs(layout)
    assert row_array(encode_stream(EVERY_PAIR, layout)).tolist() == rows
    assert decode_stream(EVERY_PAIR, layout) == pairs
    assert row_table(layout) == rows
    assert pair_table(layout) == pairs


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=601), layout=st.sampled_from(LAYOUTS))
def test_kernel_round_trip(data, layout):
    stream = encode_stream(data, layout)
    even = len(data) - len(data) % 2
    assert len(stream) == even
    assert row_array(stream).tolist() == [
        row_of_pair(data[i], data[i + 1], layout) for i in range(0, even, 2)
    ]
    assert decode_stream(stream, layout) == data[:even]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_kernel_accepts_any_buffer(layout):
    data = bytes(range(256)) * 3 + b"ab!"  # 385 pairs and a tail
    stream = encode_stream(data, layout)
    pairs = data[:-1]
    typed = (array("H", pairs), memoryview(pairs).cast("H"))
    for buf in (bytearray(data), memoryview(data), *typed):
        assert encode_stream(buf, layout) == stream
    typed = (array("H", bytes(stream)), memoryview(stream).cast("H"))
    for buf in (bytearray(stream), memoryview(stream), *typed):
        assert decode_stream(buf, layout) == pairs


@pytest.mark.parametrize("layout", LAYOUTS)
def test_rejects_odd_row_stream(layout):
    with pytest.raises(ValueError):
        decode_stream(b"\x00\x01\x02", layout)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("tail", [-1, 256])
def test_rejects_tail_outside_a_byte(layout, tail):
    with pytest.raises(ValueError, match="not a tail byte"):
        decode_stream(b"", layout, tail=tail)


def test_row_stream_is_big_endian():
    for layout in LAYOUTS:
        row = row_of_pair(0x40, 0x24, layout)
        assert encode_stream(b"\x40\x24", layout) == bytes((row >> 8, row & 0xFF))
    assert row_array(b"\x01\x02\xff\xfe").tolist() == [0x0102, 0xFFFE]

"""Differential tests: the byte-permutation kernel against the scalar functions."""

import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fbar.addressing import (
    LAYOUTS,
    _F,
    _F_INV,
    _TRANSLATE_CHUNK as C,
    _translate,
    decode_stream,
    encode_stream,
    pair_of_row,
    pair_table,
    row_array,
    row_of_pair,
    row_table,
)
from conftest import strided

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


def _each_buffer(data):
    """``data`` as bytes, bytearray, memoryview and a strided view and, at
    an even length, as 2-byte items."""
    typed = [array("H", data), memoryview(data).cast("H")] if len(data) % 2 == 0 else []
    return [data, bytearray(data), memoryview(data), strided(data), *typed]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_kernel_accepts_any_buffer(layout):
    rows = row_table(layout)
    # Lengths on both sides of the translate chunk, with and without a tail.
    for size in [0, 1, C - 1, C, C + 1, 3 * C + 5]:
        data = random.Random(size).randbytes(size)
        even = size - size % 2
        tail = data[-1] if size % 2 else None
        stream = encode_stream(data, layout)
        assert row_array(stream).tolist() == [
            rows[x << 8 | x2] for x, x2 in zip(data[0:even:2], data[1:even:2])
        ]
        for buf in _each_buffer(data):
            assert _translate(buf, _F) == bytes(buf).translate(_F)
            assert _translate(buf, _F_INV, b"!") == bytes(buf).translate(_F_INV) + b"!"
            got = encode_stream(buf, layout)
            assert type(got) is bytes and got == stream
        for buf in _each_buffer(stream):
            got = decode_stream(buf, layout, tail)
            assert type(got) is bytes and got == data
            got = decode_stream(buf, layout)
            assert type(got) is bytes and got == data[:even]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_kernel_peaks_near_its_input(layout):
    # Both layouts take one pass over the translate chunks, the grouped
    # nibble swap included, so neither side holds a stream-sized
    # intermediate beside its output.
    data = random.Random(7).randbytes(1024 * 1024 + 1)
    stream = encode_stream(data, layout)
    for side, run in (("encode", lambda: encode_stream(data, layout)),
                      ("decode", lambda: decode_stream(stream, layout, data[-1]))):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(data), (side, peak, len(data))


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

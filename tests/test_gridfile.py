import io

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fbar import addressing, gridfile
from fbar.gridfile import (
    BLOCK_UNITS,
    GRID_REGION_BYTES,
    GridFormatError,
    MODE_1TT,
    MODE_4TT,
    occupant_stream,
    parse_grid,
    parse_honest,
    write_grid,
    write_honest,
)
from fbar.transtable import OCCUPANT_ALPHABET


def rows_for(text):
    data = text.encode() if isinstance(text, str) else text
    return [
        addressing.row_of_pair(data[i], data[i + 1]) for i in range(0, len(data), 2)
    ]


def grid_bytes(rows, mode=MODE_1TT, tail=None):
    sink = io.BytesIO()
    summary = write_grid(rows, mode, sink, tail)
    return sink.getvalue(), summary


def test_resolved_stream_and_region():
    rows = rows_for("resolved")
    data, summary = grid_bytes(rows)
    assert occupant_stream(data) == b"abcd"
    region = data[14 : 14 + GRID_REGION_BYTES]
    for row, char in zip(rows, b"abcd"):
        assert region[row] == char
    zeroed = sum(1 for b in region if b == 0)
    assert zeroed == GRID_REGION_BYTES - 4
    assert summary.paper_accounted_size == 4
    assert summary.honest_payload_size == 8
    assert summary.block_count == 1


def test_96_distinct_pairs_block_boundary():
    rows = list(range(96))
    data, summary = grid_bytes(rows)
    stream = occupant_stream(data)
    assert len(stream) == 97
    assert stream[:95] == OCCUPANT_ALPHABET
    assert stream[95] == 1  # first separator code
    assert stream[96] == OCCUPANT_ALPHABET[0]
    assert summary.separator_count == 1
    assert summary.block_count == 2


def test_complete_final_block_keeps_separator():
    data, summary = grid_bytes(list(range(95)))
    stream = occupant_stream(data)
    assert len(stream) == 96
    assert stream[-1] == 1
    assert summary.block_count == 1


def test_separator_codes_cycle_past_31():
    rows = list(range(32 * BLOCK_UNITS))
    data, summary = grid_bytes(rows)
    seps = [b for b in occupant_stream(data) if b < 32]
    assert seps == list(range(1, 32)) + [1]
    parsed = parse_grid(io.BytesIO(data))
    assert parsed.rows == rows


def test_empty_input():
    data, summary = grid_bytes([])
    assert occupant_stream(data) == b""
    assert summary.paper_accounted_size == 0
    assert summary.honest_payload_size == 0
    assert set(data[14 : 14 + GRID_REGION_BYTES]) == {0}
    parsed = parse_grid(io.BytesIO(data))
    assert parsed.rows == [] and parsed.tail is None


def test_collision_restarts_block():
    row = addressing.row_of_pair(ord("a"), ord("b"))
    data, summary = grid_bytes([row, row])
    assert occupant_stream(data) == bytes([OCCUPANT_ALPHABET[0], 1, OCCUPANT_ALPHABET[0]])
    assert summary.collision_restarts == 1
    parsed = parse_grid(io.BytesIO(data))
    assert parsed.rows == [row, row]
    assert parsed.block_units == [1, 1]


def test_4tt_units_share_one_char():
    rows = list(range(8))  # two 4-row chunks
    data, summary = grid_bytes(rows, mode=MODE_4TT)
    assert occupant_stream(data) == b"ab"
    region = data[14 : 14 + GRID_REGION_BYTES]
    assert [region[r] for r in rows[:4]] == [ord("a")] * 4
    assert [region[r] for r in rows[4:]] == [ord("b")] * 4
    parsed = parse_grid(io.BytesIO(data))
    assert parsed.mode == MODE_4TT and parsed.rows == rows


def test_4tt_duplicate_rows_within_chunk_do_not_collide():
    rows = [7, 7, 7, 7]
    data, summary = grid_bytes(rows, mode=MODE_4TT)
    assert occupant_stream(data) == b"a"
    assert summary.collision_restarts == 0


def test_paper_accounting_no_collisions():
    # distinct rows: chars plus one separator per complete 95-unit block
    for units in (1, 40, 94, 95, 96, 190, 250):
        data, summary = grid_bytes(list(range(units)))
        assert summary.paper_accounted_size == units + units // BLOCK_UNITS


def test_honest_payload_counts_everything():
    rows = list(range(10))
    data, summary = grid_bytes(rows, tail=0x7A)
    assert summary.honest_payload_size == 2 * 10 + 2
    parsed = parse_grid(io.BytesIO(data))
    assert parsed.tail == 0x7A


def test_grid_region_is_always_64k():
    for rows, tail in (([], None), ([5], None), (list(range(300)), 0x11)):
        data, summary = grid_bytes(rows, tail=tail)
        occ = summary.occupant_len
        addr = summary.address_len
        expected = 14 + GRID_REGION_BYTES + 8 + occ + 8 + addr + 1 + summary.tail_len
        assert len(data) == expected == summary.total_len
        assert parse_grid(io.BytesIO(data)).rows == rows


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.integers(0, 65535), max_size=400),
    tail=st.one_of(st.none(), st.integers(0, 255)),
    mode=st.sampled_from((MODE_1TT, MODE_4TT)),
)
def test_parse_inverts_write(rows, tail, mode):
    data, _ = grid_bytes(rows, mode=mode, tail=tail)
    parsed = parse_grid(io.BytesIO(data))
    assert parsed.rows == rows
    assert parsed.tail == tail
    assert parsed.mode == mode


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.integers(0, 65535), max_size=400),
    tail=st.one_of(st.none(), st.integers(0, 255)),
)
def test_honest_parse_inverts_write(rows, tail):
    sink = io.BytesIO()
    total = write_honest(rows, sink, tail)
    data = sink.getvalue()
    assert total == len(data)
    parsed = parse_honest(io.BytesIO(data))
    assert parsed.rows == rows
    assert parsed.tail == tail


def test_honest_payload_is_rows_plus_tail():
    sink = io.BytesIO()
    total = write_honest(list(range(7)), sink, tail=9)
    assert total == 14 + 2 * 7 + 2


def test_parse_rejects_bad_magic():
    with pytest.raises(GridFormatError) as err:
        parse_grid(io.BytesIO(b"XXXX" + bytes(40)))
    assert err.value.offset == 0


def test_parse_rejects_wrong_mode():
    data, _ = grid_bytes([1, 2, 3])
    with pytest.raises(GridFormatError):
        parse_grid(io.BytesIO(data), mode=MODE_4TT)


def test_deleted_occupant_char_is_an_ordinal_gap():
    data, _ = grid_bytes(list(range(10)))
    stream_at = 14 + GRID_REGION_BYTES + 8
    # drop the third occupant char and patch the length prefix
    buf = bytearray(data)
    del buf[stream_at + 2]
    buf[14 + GRID_REGION_BYTES : stream_at] = (9).to_bytes(8, "big")
    with pytest.raises(GridFormatError) as err:
        parse_grid(io.BytesIO(bytes(buf)))
    assert "ordinal" in str(err.value)
    assert err.value.block == 0


def test_truncated_address_channel_is_length_mismatch():
    data, _ = grid_bytes(list(range(10)))
    stream_at = 14 + GRID_REGION_BYTES + 8
    occ_len = 10
    addr_len_at = stream_at + occ_len
    buf = bytearray(data)
    buf[addr_len_at : addr_len_at + 8] = (18).to_bytes(8, "big")
    del buf[addr_len_at + 8 + 18 : addr_len_at + 8 + 20]
    with pytest.raises(GridFormatError) as err:
        parse_grid(io.BytesIO(bytes(buf)))
    assert "length" in str(err.value)


def test_wrong_separator_code_rejected():
    data, _ = grid_bytes(list(range(96)))
    stream_at = 14 + GRID_REGION_BYTES + 8
    buf = bytearray(data)
    assert buf[stream_at + 95] == 1
    buf[stream_at + 95] = 2  # out-of-cycle separator
    with pytest.raises(GridFormatError) as err:
        parse_grid(io.BytesIO(bytes(buf)))
    assert "separator" in str(err.value)


def test_corrupt_region_rejected():
    data, _ = grid_bytes(list(range(4)))
    buf = bytearray(data)
    buf[14 + 60000] ^= 0x41
    with pytest.raises(GridFormatError) as err:
        parse_grid(io.BytesIO(bytes(buf)))
    assert "region" in str(err.value)


def test_trailing_garbage_rejected():
    data, _ = grid_bytes([1])
    with pytest.raises(GridFormatError) as err:
        parse_grid(io.BytesIO(data + b"x"))
    assert "trailing" in str(err.value)


def test_bad_tail_marker_rejected():
    data, _ = grid_bytes([1], tail=5)
    buf = bytearray(data)
    buf[-2] = 0xEE  # marker byte
    with pytest.raises(GridFormatError) as err:
        parse_grid(io.BytesIO(bytes(buf)))
    assert "marker" in str(err.value)


def test_row_out_of_range_rejected_on_write():
    with pytest.raises(ValueError):
        write_grid([70000], MODE_1TT, io.BytesIO())
    with pytest.raises(ValueError):
        write_honest([-1], io.BytesIO())


def test_honest_errors_name_their_offset():
    sink = io.BytesIO()
    write_honest(list(range(10)), sink, tail=0x41)
    data = sink.getvalue()
    for cut in (3, 13, 20, len(data) - 1):  # magic, row count, rows, tail
        with pytest.raises(GridFormatError) as err:
            parse_honest(io.BytesIO(data[:cut]))
        assert "truncated" in str(err.value) and err.value.offset == cut
    with pytest.raises(GridFormatError) as err:
        parse_honest(io.BytesIO(data + b"zz"))
    assert "trailing" in str(err.value) and err.value.offset == len(data)
    bad = bytearray(data)
    bad[-2] = 0xEE  # tail marker
    with pytest.raises(GridFormatError) as err:
        parse_honest(io.BytesIO(bytes(bad)))
    assert "marker" in str(err.value) and err.value.offset == len(data) - 2

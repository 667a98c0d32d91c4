import io
import random
import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fbar import addressing, transtable
from fbar.transtable import (
    OCCUPANT_ALPHABET,
    TEXT_ROW_BYTES,
    TEXT_TOTAL_BYTES,
    TT_ROWS,
    TranslationTable,
    TtError,
    TtFormatError,
    TtSet4,
    TtVerifyReport,
    generate_tt,
    load_binary,
    serialize_binary,
    serialize_text,
    verify_tt,
)


def text_row(tt, row):
    """Row ``row``'s fixed-width 128-byte line of the text table, built
    field by field from its address and its pair: the oracle for
    serialize_text.  Printable ASCII but '%' stands for itself; any other
    byte is %XX."""
    address = "x".join(map(str, addressing.address_of_row(row)))
    pair = "".join(
        chr(b) if 32 <= b <= 126 and b != ord("%") else f"%{b:02X}"
        for b in tt.originals[2 * row : 2 * row + 2]
    )
    line = f"{row + 1} {address} {OCCUPANT_ALPHABET.decode('ascii')} {pair}"
    return (line.ljust(TEXT_ROW_BYTES - 1) + "\n").encode("ascii")


def test_occupant_alphabet():
    assert len(OCCUPANT_ALPHABET) == 95
    assert len(set(OCCUPANT_ALPHABET)) == 95
    assert OCCUPANT_ALPHABET.startswith(b"abcd")
    assert all(32 <= b <= 126 for b in OCCUPANT_ALPHABET)
    assert set(OCCUPANT_ALPHABET) == set(range(32, 127))


def test_generation_is_deterministic(tt):
    assert generate_tt() == tt
    assert tt.row_count == TT_ROWS


def test_record_anchor_re(tt):
    row = addressing.row_of_address((7, 6, 1, 4))
    assert tt.originals[2 * row : 2 * row + 2] == b"re"
    assert addressing.address_of_row(row) == (7, 6, 1, 4)


def test_every_row_matches_addressing(tt):
    for row in range(0, TT_ROWS, 997):
        assert tt.originals[2 * row : 2 * row + 2] == bytes(addressing.pair_of_row(row))


def test_verify_canonical_ok(tt):
    report = verify_tt(tt)
    assert report.ok
    assert report.violations == []
    assert not hasattr(report, "row_count")


def test_verify_swapped_rows_two_violations(tt):
    buf = bytearray(tt.originals)
    a, b = 5, 9
    buf[2 * a : 2 * a + 2], buf[2 * b : 2 * b + 2] = (
        buf[2 * b : 2 * b + 2],
        buf[2 * a : 2 * a + 2],
    )
    report = verify_tt(TranslationTable(bytes(buf)))
    assert not report.ok
    assert len(report.violations) == 2
    assert {v[0] for v in report.violations} == {a, b}


def test_verify_reports_never_share_violations():
    a, b = TtVerifyReport(), TtVerifyReport()
    a.violations.append((None, "row count"))
    assert b.violations == [] and b.ok


@pytest.mark.parametrize("size", [0, 2 * TT_ROWS - 2, 2 * TT_ROWS - 1, 2 * TT_ROWS + 2])
def test_table_of_other_size_refused(tt, size):
    originals = (tt.originals * 2)[:size]
    with pytest.raises(TtError, match=f"buffer of {size} bytes"):
        TranslationTable(originals)


def test_verify_corrupt_record_names_row(tt):
    buf = bytearray(tt.originals)
    row = 12345
    buf[2 * row] ^= 0xFF
    report = verify_tt(TranslationTable(bytes(buf)))
    assert not report.ok
    assert report.violations[0][0] == row
    assert str(row) in report.violations[0][1]


def test_verify_names_rows_on_both_sides_of_chunk_edges(tt):
    # rows at both ends of the table and of a 256-row span, named in row order
    rows = [0, 255, 256, 511, 65280, 65535]
    buf = bytearray(tt.originals)
    for row in rows:
        buf[2 * row + 1] ^= 0x01
    want = [
        (row, f"row {row} holds {buf[2 * row : 2 * row + 2].hex()}, "
              f"expected {tt.originals[2 * row : 2 * row + 2].hex()}")
        for row in rows
    ]
    assert verify_tt(TranslationTable(bytes(buf))).violations == want


def test_text_serialization_exact_size(tt):
    sink = io.BytesIO()
    written = serialize_text(tt, sink)
    data = sink.getvalue()
    assert written == len(data) == TEXT_TOTAL_BYTES == 8388608


def test_text_rows_fixed_width(tt):
    sink = io.BytesIO()
    serialize_text(tt, sink)
    data = sink.getvalue()
    # every row self-terminates at a 128-byte boundary
    for offset in range(TEXT_ROW_BYTES - 1, 4 * TEXT_ROW_BYTES, TEXT_ROW_BYTES):
        assert data[offset] == ord("\n")
    assert data[TEXT_TOTAL_BYTES - 1] == ord("\n")
    first = data[:TEXT_ROW_BYTES].decode("ascii")
    assert first.startswith("1 1x1x1x1 ")
    assert OCCUPANT_ALPHABET.decode("ascii") in first
    # row 1 holds the pair stored at row 0: "UU"
    assert " UU" in first
    last = data[-TEXT_ROW_BYTES:].decode("ascii")
    assert last.startswith("65536 16x16x16x16 ")


def test_text_row_escapes_nonprintables(tt):
    # row for the pair (0x00, 0x00) renders as %00%00
    row = addressing.row_of_pair(0, 0)
    line = text_row(tt, row).decode("ascii")
    assert "%00%00" in line
    assert len(line) == TEXT_ROW_BYTES


@pytest.mark.parametrize("originals", [
    pytest.param(random.Random(32).randbytes(2 * TT_ROWS), id="random"),
    # every pair once, so every byte at both positions: '%', space, 0x7F
    # and every %XX in both escapes
    pytest.param(addressing.ALL_ROWS, id="every-pair"),
])
def test_every_text_row_matches_the_oracle(originals):
    tt = TranslationTable(originals)
    sink = io.BytesIO()
    assert serialize_text(tt, sink) == TEXT_TOTAL_BYTES
    data = sink.getvalue()
    for row in range(TT_ROWS):
        assert data[row * TEXT_ROW_BYTES : (row + 1) * TEXT_ROW_BYTES] == text_row(tt, row), row


class _CountingSink:
    def __init__(self):
        self.writes = self.bytes = 0

    def write(self, data):
        self.writes += 1
        self.bytes += len(data)
        return len(data)


def test_text_serialization_never_holds_the_whole_text(tt):
    sink = _CountingSink()
    tracemalloc.start()
    try:
        written = serialize_text(tt, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written == sink.bytes == TEXT_TOTAL_BYTES
    assert sink.writes > 1
    assert peak < 1 << 20, peak


class _FailingSink:
    """Accepts the first write, then fails like a full disk."""

    def __init__(self):
        self.accepted = 0

    def write(self, data):
        if self.accepted:
            raise OSError(28, "No space left on device")
        self.accepted = len(data)
        return len(data)


def test_text_write_failure_names_bytes_written(tt):
    sink = _FailingSink()
    with pytest.raises(TtError) as err:
        serialize_text(tt, sink)
    assert 0 < sink.accepted < TEXT_TOTAL_BYTES
    assert f"after {sink.accepted} bytes" in str(err.value)
    assert isinstance(err.value.__cause__, OSError)


def test_binary_roundtrip(tt):
    sink = io.BytesIO()
    written = serialize_binary(tt, sink)
    assert written == 4 + 1 + 4 * TT_ROWS
    loaded = load_binary(io.BytesIO(sink.getvalue()))
    assert loaded == tt


def test_binary_bad_magic(tt):
    with pytest.raises(TtFormatError) as err:
        load_binary(io.BytesIO(b"NOPE" + b"\x00" * 16))
    assert err.value.offset == 0


def test_binary_truncation_names_offset(tt):
    sink = io.BytesIO()
    serialize_binary(tt, sink)
    data = sink.getvalue()[:-3]  # cut into the last record
    with pytest.raises(TtFormatError) as err:
        load_binary(io.BytesIO(data))
    assert err.value.offset is not None
    assert "truncated" in str(err.value)


def test_binary_short_row_count(tt):
    sink = io.BytesIO()
    serialize_binary(tt, sink)
    data = sink.getvalue()[:-400]  # drop 100 whole records
    with pytest.raises(TtFormatError) as err:
        load_binary(io.BytesIO(data))
    assert "row count" in str(err.value)


def test_binary_duplicate_row(tt):
    sink = io.BytesIO()
    serialize_binary(tt, sink)
    # (record, the row it is rewritten to hold, the record's offset): the
    # second record and the last, each given a row an earlier record holds
    for record, row, offset in ((1, 0, 9), (65535, 65279, 262145)):
        data = bytearray(sink.getvalue())
        data[offset : offset + 2] = row.to_bytes(2, "big")
        with pytest.raises(TtFormatError) as err:
            load_binary(io.BytesIO(bytes(data)))
        assert err.value.offset == offset
        assert f"record {record} holds row {row}, expected row {record}" in str(err.value)


def test_binary_records_out_of_order_load(tt):
    sink = io.BytesIO()
    serialize_binary(tt, sink)
    data = bytearray(sink.getvalue())
    a, b = 5 + 4 * 3, 5 + 4 * 40000  # swap two whole records
    data[a : a + 4], data[b : b + 4] = data[b : b + 4], data[a : a + 4]
    with pytest.raises(TtFormatError) as err:
        load_binary(io.BytesIO(bytes(data)))
    assert err.value.offset == 5 + 4 * 3
    assert "record 3 holds row 40000, expected row 3" in str(err.value)


@settings(max_examples=25, deadline=None)
@given(records=st.lists(st.integers(0, TT_ROWS - 1), min_size=2, max_size=2, unique=True))
def test_binary_out_of_order_error_names_first_misplaced_record(tt, records):
    sink = io.BytesIO()
    serialize_binary(tt, sink)
    data = bytearray(sink.getvalue())
    first, second = sorted(records)
    a, b = 5 + 4 * first, 5 + 4 * second
    data[a : a + 4], data[b : b + 4] = data[b : b + 4], data[a : a + 4]
    with pytest.raises(TtFormatError) as err:
        load_binary(io.BytesIO(bytes(data)))
    assert err.value.offset == a
    assert f"record {first} holds row {second}, expected row {first}" in str(err.value)


def test_loaded_mutation_caught_by_verify(tt):
    sink = io.BytesIO()
    serialize_binary(tt, sink)
    data = bytearray(sink.getvalue())
    row = 777
    data[5 + 4 * row + 2] ^= 0x01  # flip one bit of the original pair
    loaded = load_binary(io.BytesIO(bytes(data)))
    report = verify_tt(loaded)
    assert not report.ok
    assert report.violations[0][0] == row


def test_ensure_verified_caches_and_raises(tt):
    tt.ensure_verified()  # canonical: passes and caches
    broken = TranslationTable(b"\x00\x00" * TT_ROWS)
    with pytest.raises(TtError):
        broken.ensure_verified()


def test_ttset4_canonical(set4):
    assert verify_tt(set4).ok
    assert set4 == generate_tt()
    assert not hasattr(set4, "tables")  # the set is its one table


@pytest.mark.parametrize("count", [3, 5])
def test_ttset4_needs_four_tables(tt, count):
    with pytest.raises(TtError, match=f"need exactly 4 tables, got {count}$"):
        TtSet4((tt,) * count)


def test_ttset4_rejects_unequal_tables(tt, tt_grouped):
    changed = bytearray(tt.originals)
    changed[0] ^= 0x01
    odd_one = TranslationTable(bytes(changed))
    with pytest.raises(TtError, match="must be identical$"):
        TtSet4((tt, tt, tt, odd_one))
    with pytest.raises(TtError, match="must be identical$"):
        TtSet4((tt, tt, tt, tt_grouped))


def test_ttset4_keeps_verification(monkeypatch):
    tt = generate_tt()
    tt.ensure_verified()
    calls = []

    def counting_verify(table):
        calls.append(table)
        return verify_tt(table)

    monkeypatch.setattr(transtable, "verify_tt", counting_verify)
    TtSet4((tt, tt, tt, tt)).ensure_verified()
    assert calls == []
    unverified = generate_tt()
    set4 = TtSet4((unverified,) * 4)
    set4.ensure_verified()
    set4.ensure_verified()
    assert len(calls) == 1 and calls[0] is set4


def test_grouped_layout_table_verifies(tt_grouped):
    assert verify_tt(tt_grouped).ok
    assert tt_grouped.layout == "grouped"

import itertools
import random
import re
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from fbar import addressing, codec, gridfile
from fbar.gridfile import (
    BLOCK_UNITS,
    GRID_MAGIC,
    GRID_REGION_BYTES,
    SEPARATOR_CODES,
    GridFormatError,
    MODE_1TT,
    MODE_4TT,
    parse_grid,
    parse_honest,
    write_grid,
    write_honest,
)
from fbar.transtable import OCCUPANT_ALPHABET

from conftest import occupant_stream


def rows_for(text):
    data = text.encode() if isinstance(text, str) else text
    return [
        addressing.row_of_pair(data[i], data[i + 1]) for i in range(0, len(data), 2)
    ]


def stream_of(rows):
    """The row stream of a list of row numbers."""
    return b"".join(r.to_bytes(2, "big") for r in rows)


def grid_bytes(rows, mode=MODE_1TT, tail=None):
    summary = write_grid(stream_of(rows), mode, tail)
    return summary.artifact, summary


def honest_bytes(rows, tail=None):
    return write_honest(stream_of(rows), tail)


# Where the artifact fields start, spelled once for these tests and
# test_codec; test_named_offsets_match_the_field_tables derives them from
# gridfile's field tables.
PAPER_HEADER_LEN = 14  # magic, version, mode, pair count
REGION = slice(PAPER_HEADER_LEN, PAPER_HEADER_LEN + GRID_REGION_BYTES)
OCCUPANT_AT = REGION.stop + 8  # the occupant stream, after its length prefix
HONEST_HEADER_LEN = 13  # magic, version, pair count: where the row stream starts


def _field_starts(fields):
    """Each field's offset, as far as the first channel's contents."""
    starts, at = {}, 0
    for name, size in fields:
        starts[name] = at
        at += size
    return starts


def test_named_offsets_match_the_field_tables():
    paper, sizes = _field_starts(gridfile._PAPER_FIELDS), dict(gridfile._PAPER_FIELDS)
    assert PAPER_HEADER_LEN == paper["grid region"]
    assert REGION == slice(paper["grid region"], paper["occupant stream"])
    assert OCCUPANT_AT == paper["occupant stream"] + sizes["occupant stream"]
    honest, sizes = _field_starts(gridfile._HONEST_FIELDS), dict(gridfile._HONEST_FIELDS)
    assert HONEST_HEADER_LEN == honest["row stream"] + sizes["row stream"]


def with_occupant(data, occupant):
    """The artifact with its occupant stream and length prefix replaced."""
    old_len = len(occupant_stream(data))
    prefix = len(occupant).to_bytes(8, "big")
    return data[: OCCUPANT_AT - 8] + prefix + occupant + data[OCCUPANT_AT + old_len :]


def reference_layout(rows, mode):
    """Occupant stream, region, blocks, separators and restarts of ``rows``.

    The layout as a loop over units with a set of the current block's
    rows, cleared at every block: the oracle for write_grid.
    """
    size = 1 if mode == MODE_1TT else 4
    occupant = bytearray()
    occupied, cells, last_cells = set(), [], []
    block_len = blocks = separators = restarts = 0

    def close_block():
        nonlocal block_len, separators, cells, last_cells
        occupant.append(SEPARATOR_CODES[separators % len(SEPARATOR_CODES)])
        separators += 1
        last_cells, cells = cells, []
        occupied.clear()
        block_len = 0

    for at in range(0, len(rows), size):
        unit = rows[at : at + size]
        if block_len and any(r in occupied for r in unit):
            close_block()
            restarts += 1
        if block_len == 0:
            blocks += 1
        char = OCCUPANT_ALPHABET[block_len]
        occupant.append(char)
        for r in unit:
            occupied.add(r)
            cells.append((r, char))
        block_len += 1
        if block_len == BLOCK_UNITS:
            close_block()
    region = bytearray(GRID_REGION_BYTES)
    for r, char in cells or last_cells:
        region[r] = char
    return bytes(occupant), bytes(region), blocks, separators, restarts


@st.composite
def layout_inputs(draw):
    """Rows that run into both block limits: mostly distinct rows, with
    some (or all) drawn from an alphabet of at most 3 rows, so blocks end
    at 95 units and at collisions.  4tt inputs may end in a partial unit.
    The alphabet may also hold rows that share the high byte or the low
    byte of one of its rows, which collide only with themselves."""
    mode = draw(st.sampled_from((MODE_1TT, MODE_4TT)))
    size = 1 if mode == MODE_1TT else 4
    units = draw(st.sampled_from((1, 2, 94, 95, 96, 190)))
    count = units * size - draw(st.integers(0, size - 1))
    base = draw(st.integers(0, 65536 - count))
    rows = list(range(base, base + count))
    alphabet = draw(st.lists(st.integers(0, 65535), min_size=1, max_size=3))
    if draw(st.booleans()):
        alphabet += [row ^ flip for row in alphabet for flip in (0x0100, 0x0001)]
    picks = st.tuples(st.integers(0, count - 1), st.sampled_from(alphabet))
    for at, row in draw(st.lists(picks, max_size=count)):
        rows[at] = row
    return rows, mode


def test_resolved_stream_and_region():
    rows = rows_for("resolved")
    data, summary = grid_bytes(rows)
    assert occupant_stream(data) == b"abcd"
    region = data[REGION]
    for row, char in zip(rows, b"abcd"):
        assert region[row] == char
    zeroed = sum(1 for b in region if b == 0)
    assert zeroed == GRID_REGION_BYTES - 4
    assert summary.occupant_len == 4
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
    parsed = parse_grid(data)
    assert parsed.stream == stream_of(rows)


def test_empty_input():
    data, summary = grid_bytes([])
    assert occupant_stream(data) == b""
    assert summary.occupant_len == 0
    assert summary.honest_payload_size == 0
    assert set(data[REGION]) == {0}
    parsed = parse_grid(data)
    assert parsed.stream == b"" and parsed.tail is None


def test_collision_restarts_block():
    row = addressing.row_of_pair(ord("a"), ord("b"))
    data, summary = grid_bytes([row, row])
    assert occupant_stream(data) == bytes([OCCUPANT_ALPHABET[0], 1, OCCUPANT_ALPHABET[0]])
    assert summary.collision_restarts == 1
    parsed = parse_grid(data)
    assert parsed.stream == stream_of([row, row])
    assert parsed.block_count == 2


def test_4tt_units_share_one_char():
    rows = list(range(8))  # two 4-row chunks
    data, summary = grid_bytes(rows, mode=MODE_4TT)
    assert occupant_stream(data) == b"ab"
    region = data[REGION]
    assert [region[r] for r in rows[:4]] == [ord("a")] * 4
    assert [region[r] for r in rows[4:]] == [ord("b")] * 4
    parsed = parse_grid(data)
    assert parsed.mode == MODE_4TT and parsed.stream == stream_of(rows)


def test_4tt_duplicate_rows_within_chunk_do_not_collide():
    rows = [7, 7, 7, 7]
    data, summary = grid_bytes(rows, mode=MODE_4TT)
    assert occupant_stream(data) == b"a"
    assert summary.collision_restarts == 0


def test_paper_accounting_no_collisions():
    # distinct rows: chars plus one separator per complete 95-unit block
    for units in (1, 40, 94, 95, 96, 190, 250):
        data, summary = grid_bytes(list(range(units)))
        assert summary.occupant_len == units + units // BLOCK_UNITS


def test_honest_payload_counts_everything():
    rows = list(range(10))
    data, summary = grid_bytes(rows, tail=0x7A)
    assert summary.honest_payload_size == 2 * 10 + 2
    parsed = parse_grid(data)
    assert parsed.tail == 0x7A


def test_grid_region_is_always_64k():
    for rows, tail in (([], None), ([5], None), (list(range(300)), 0x11)):
        data, summary = grid_bytes(rows, tail=tail)
        occ = summary.occupant_len
        addr = summary.address_len
        expected = OCCUPANT_AT + occ + 8 + addr + 1 + summary.tail_len
        assert len(data) == expected
        assert parse_grid(data).stream == stream_of(rows)


BUFFERS = (bytes, bytearray, memoryview)
row_streams = st.binary(max_size=800).map(lambda b: b[: len(b) - len(b) % 2])


@settings(max_examples=60, deadline=None)
@given(
    stream=row_streams,
    tail=st.one_of(st.none(), st.integers(0, 255)),
    mode=st.sampled_from((MODE_1TT, MODE_4TT)),
    kind=st.sampled_from(BUFFERS),
)
def test_parse_inverts_write(stream, tail, mode, kind):
    data = write_grid(kind(stream), mode, tail).artifact
    parsed = parse_grid(kind(data))
    assert parsed.stream == stream
    assert parsed.tail == tail
    assert parsed.mode == mode


@settings(max_examples=60, deadline=None)
@given(
    stream=row_streams,
    tail=st.one_of(st.none(), st.integers(0, 255)),
    kind=st.sampled_from(BUFFERS),
)
def test_honest_parse_inverts_write(stream, tail, kind):
    data = write_honest(kind(stream), tail)
    parsed = parse_honest(kind(data))
    assert parsed.stream == stream
    assert parsed.tail == tail


@settings(max_examples=60, deadline=None)
@given(layout_inputs(), st.one_of(st.none(), st.integers(0, 255)))
@example((list(range(190)), MODE_1TT), None)
@example((list(range(380)) + [0, 1, 0, 7, 7], MODE_4TT), 3)
def test_buffer_kinds_write_the_same_artifact(case, tail):
    # _block_lengths reads a view of its input, so an offset view must
    # give the same artifact as the bytes it shows; a buffer of 2-byte
    # items is measured in bytes, not items
    rows, mode = case
    stream = stream_of(rows)
    halfwords = array("H")
    halfwords.frombytes(stream)
    buffers = (stream, bytearray(stream), memoryview(stream), memoryview(b"xx" + stream)[2:],
               halfwords, memoryview(halfwords))
    written = [(write_grid(buf, mode, tail), write_honest(buf, tail)) for buf in buffers]
    assert written == [written[0]] * len(buffers)
    # each writer returns the bytes it joined, whatever buffer it was given
    assert all(type(s.artifact) is bytes and type(h) is bytes for s, h in written)
    assert parse_honest(written[0][1]).stream == stream


def test_honest_payload_is_rows_plus_tail():
    # the rows, the tail's length byte and the tail's two bytes
    assert len(honest_bytes(list(range(7)), tail=9)) == HONEST_HEADER_LEN + 2 * 7 + 1 + 2


def test_parse_rejects_bad_magic():
    with pytest.raises(GridFormatError) as err:
        parse_grid(b"XXXX" + bytes(40))
    assert err.value.offset == 0


def test_deleted_occupant_char_is_an_ordinal_gap():
    data, _ = grid_bytes(list(range(10)))
    # drop the third occupant char and patch the length prefix
    buf = bytearray(data)
    del buf[OCCUPANT_AT + 2]
    buf[REGION.stop : OCCUPANT_AT] = (9).to_bytes(8, "big")
    with pytest.raises(GridFormatError) as err:
        parse_grid(bytes(buf))
    assert "ordinal" in str(err.value)
    assert err.value.block == 0


def test_truncated_address_channel_is_length_mismatch():
    data, _ = grid_bytes(list(range(10)))
    occ_len = 10
    addr_len_at = OCCUPANT_AT + occ_len
    buf = bytearray(data)
    buf[addr_len_at : addr_len_at + 8] = (18).to_bytes(8, "big")
    del buf[addr_len_at + 8 + 18 : addr_len_at + 8 + 20]
    with pytest.raises(GridFormatError) as err:
        parse_grid(bytes(buf))
    assert "length" in str(err.value)


def test_wrong_separator_code_rejected():
    data, _ = grid_bytes(list(range(96)))
    buf = bytearray(data)
    assert buf[OCCUPANT_AT + 95] == 1
    buf[OCCUPANT_AT + 95] = 2  # out-of-cycle separator
    with pytest.raises(GridFormatError) as err:
        parse_grid(bytes(buf))
    assert "separator" in str(err.value)


def test_corrupt_region_rejected():
    data, _ = grid_bytes(list(range(4)))
    buf = bytearray(data)
    buf[REGION.start + 60000] ^= 0x41
    with pytest.raises(GridFormatError) as err:
        parse_grid(bytes(buf))
    assert "region" in str(err.value)


def test_trailing_garbage_rejected():
    data, _ = grid_bytes([1])
    with pytest.raises(GridFormatError) as err:
        parse_grid(data + b"x")
    assert "trailing" in str(err.value)


def test_bad_tail_marker_rejected():
    data, _ = grid_bytes([1], tail=5)
    buf = bytearray(data)
    buf[-2] = 0xEE  # marker byte
    with pytest.raises(GridFormatError) as err:
        parse_grid(bytes(buf))
    assert "marker" in str(err.value)


def test_odd_length_stream_rejected_on_write():
    for kind in BUFFERS:
        with pytest.raises(ValueError, match="row stream of odd length 3"):
            write_grid(kind(b"\x00\x01\x02"), MODE_1TT)
        with pytest.raises(ValueError, match="row stream of odd length 3"):
            write_honest(kind(b"\x00\x01\x02"))


def test_honest_errors_name_their_offset():
    # every strict prefix of a small artifact of either format, in both
    # modes, with and without a tail, is truncated where it ends; one that
    # ends before its pair count's rows could fit names the count instead
    rows = [0, 1, 2, 1, 5, 6, 7, 8, 9]
    artifacts = [(parse_honest, HONEST_HEADER_LEN, honest_bytes(rows, tail))
                 for tail in (None, 0x41)]
    artifacts += [(parse_grid, PAPER_HEADER_LEN, grid_bytes(rows, mode, tail)[0])
                  for mode in (MODE_1TT, MODE_4TT) for tail in (None, 0x41)]
    for parse, header, whole in artifacts:
        for cut in range(len(whole)):
            with pytest.raises(GridFormatError) as err:
                parse(whole[:cut])
            if header <= cut < header + 2 * len(rows):
                assert "pair count 9 needs 18 row bytes" in str(err.value)
                assert err.value.offset == header - 8
            else:
                assert "truncated" in str(err.value) and err.value.offset == cut
    data = honest_bytes(list(range(10)), tail=0x41)
    with pytest.raises(GridFormatError) as err:
        parse_honest(data + b"zz")
    assert "trailing" in str(err.value) and err.value.offset == len(data)
    bad = bytearray(data)
    bad[-2] = 0xEE  # tail marker
    with pytest.raises(GridFormatError) as err:
        parse_honest(bytes(bad))
    assert "marker" in str(err.value) and err.value.offset == len(data) - 2


@pytest.mark.parametrize("tail", (None, 0x41))
def test_header_and_tail_length_errors_name_their_offset(tail):
    rows = list(range(10))
    honest = honest_bytes(rows, tail)
    grid = grid_bytes(rows, MODE_4TT, tail)[0]
    tail_len_at = -3 if tail is not None else -1
    for parse, data in ((parse_honest, honest), (parse_grid, grid)):
        for at, new, what in ((4, 2, "unsupported version 2"),
                              (len(data) + tail_len_at, 1, "bad tail length 1")):
            bad = bytearray(data)
            bad[at] = new
            with pytest.raises(GridFormatError) as err:
                parse(bytes(bad))
            assert what in str(err.value) and err.value.offset == at % len(data)
    bad = bytearray(grid)
    bad[5] = 2
    with pytest.raises(GridFormatError) as err:
        parse_grid(bytes(bad))
    assert "unknown mode byte 2" in str(err.value) and err.value.offset == 5


@pytest.mark.parametrize("tail", (None, 0x41))
@pytest.mark.parametrize("mode", (MODE_1TT, MODE_4TT, None))  # None: the honest format
def test_a_pair_count_whose_rows_cannot_fit_is_named_at_its_field(mode, tail):
    # The pair count's rows must fit in the bytes after the header: a
    # count past that is refused at its own field, 6 in a paper artifact
    # and 5 in an honest one.  The most that fit keeps the error of the
    # field it contradicts, if it is not the artifact's own count.
    rows = list(range(10))
    if mode is None:
        parse, header, data = parse_honest, HONEST_HEADER_LEN, honest_bytes(rows, tail)
    else:
        parse, header, data = parse_grid, PAPER_HEADER_LEN, grid_bytes(rows, mode, tail)[0]
    too_many = (len(data) - header) // 2 + 1  # one pair more than those bytes hold
    for count in (too_many, 2**64 - 1):
        forged = data[: header - 8] + count.to_bytes(8, "big") + data[header:]
        with pytest.raises(GridFormatError, match=f"^pair count {count} needs ") as err:
            parse(forged)
        assert err.value.offset == header - 8
    if too_many - 1 != len(rows):
        forged = data[: header - 8] + (too_many - 1).to_bytes(8, "big") + data[header:]
        with pytest.raises(GridFormatError) as err:
            parse(forged)
        assert "pair count" not in str(err.value) and err.value.offset >= header


@pytest.mark.parametrize("mode", (MODE_1TT, MODE_4TT))
@pytest.mark.parametrize("fmt", codec.FORMATS)
def test_declared_lengths_at_their_maximum_are_refused_in_bounded_memory(fmt, mode, tt):
    # Each length the reader is handed, the pair count and every written
    # channel length, set to the most its field holds: the reader must
    # refuse it from the bytes it has, not allocate what it declares.
    data = random.Random(3).randbytes(16 * 1024 + 1)  # the odd last byte is the tail
    artifact = codec.compress(codec.CompressJob(data, tt, mode, fmt)).artifact
    tail_len = (len(artifact) - 3, 1)
    if fmt == codec.FORMAT_PAPER:
        address_len_at = OCCUPANT_AT + len(occupant_stream(artifact))
        fields = ((PAPER_HEADER_LEN - 8, 8), (OCCUPANT_AT - 8, 8), (address_len_at, 8), tail_len)
    else:
        fields = ((HONEST_HEADER_LEN - 8, 8), tail_len)
    for at, width in fields:
        bad = artifact[:at] + b"\xff" * width + artifact[at + width :]
        tracemalloc.start()
        try:
            with pytest.raises(GridFormatError, match="at byte offset"):
                codec.decompress(codec.DecompressJob(bad, tt))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(artifact), (at, peak, len(artifact))


@settings(max_examples=150, deadline=None)
@given(layout_inputs())
@example(([], MODE_1TT))
@example(([], MODE_4TT))
@example(([7, 7, 8, 7, 9, 9, 9, 9, 7, 8], MODE_4TT))  # repeats inside units, partial last
@example(([0, 1, 2, 3, 4, 5], MODE_4TT))  # a partial unit beside row 0
@example((list(range(95)) + [0] + list(range(200, 294)), MODE_1TT))
@example(([0x1234, 0x1334, 0x1235, 0x0034, 0x1200], MODE_1TT))  # rows sharing one byte
@example(([0x1234, 1, 2, 3, 0x1334, 0x1235, 0x0034, 0x1200, 0x1203, 0x1300], MODE_4TT))
@example(([5] * 200, MODE_1TT))  # every block one unit
@example(([5] * 203, MODE_4TT))
@example(([0, 1, 2, 3, 9, 9, 9], MODE_4TT))  # a repeat inside the partial last unit
@example((list(range(95)) + [94, 0, 95], MODE_1TT))  # the last full block's rows
@example((list(range(380)) + [379, 0, 1, 2, 3, 380], MODE_4TT))
@example((list(range(190)), MODE_1TT))  # two full blocks, the last keeps its separator
@example((list(range(760)), MODE_4TT))
@example((list(range(382)), MODE_4TT))  # a full block, then a partial unit
def test_layout_matches_reference(case):
    assert_layout_matches_reference(*case)


def assert_layout_matches_reference(rows, mode):
    data, summary = grid_bytes(rows, mode=mode)
    occupant, region, blocks, separators, restarts = reference_layout(rows, mode)
    assert occupant_stream(data) == occupant
    assert data[REGION] == region
    assert summary.block_count == blocks
    assert summary.separator_count == separators
    assert summary.collision_restarts == restarts
    parsed = parse_grid(data)
    assert parsed.stream == stream_of(rows) and parsed.block_count == blocks


def corpus_of(kind, size):
    """A ``size``-byte input shaped like the benchmark's corpora."""
    rng = random.Random(f"{kind}:{size}")
    if kind == "zero":
        return bytes(size)
    if kind == "random":
        return rng.randbytes(size)
    if kind == "acgt":
        return bytes(rng.choices(b"ACGT", k=size))
    words = b"the grid file holds each block of up to ninety five units".split()
    text = b" ".join(rng.choices(words, k=size // 3))
    return text[:size]


@pytest.mark.parametrize("layout", addressing.LAYOUTS)
@pytest.mark.parametrize("mode", (MODE_1TT, MODE_4TT))
@pytest.mark.parametrize(
    "kind, size",
    [("zero", 65536), ("zero", 65538), ("random", 65537), ("acgt", 65541), ("text", 65542)],
)
def test_layout_matches_reference_on_corpora(kind, size, mode, layout):
    # 64 KiB inputs, some odd and some leaving a partial 4tt unit, with
    # blocks of 1 (zero) to 95 (random) units.
    stream, tail = codec.encode_rows(corpus_of(kind, size), layout)
    summary = write_grid(stream, mode, tail)
    data = summary.artifact
    occupant, region, blocks, separators, restarts = reference_layout(
        list(addressing.row_array(stream)), mode
    )
    assert occupant_stream(data) == occupant
    assert data[REGION] == region
    assert summary.block_count == blocks
    assert summary.separator_count == separators
    assert summary.collision_restarts == restarts


# Rows per span that _block_lengths reads at a time, in either mode.
SPAN_ROWS = gridfile._SPAN // 2


def distinct(count, base=1000):
    """``count`` distinct rows, none of them the rows the runs below repeat."""
    return list(range(base, base + count))


def run_cases(unit):
    """Inputs of more than three spans holding runs of one repeated unit
    of ``unit`` rows, each named for the case it pins down."""
    s = SPAN_ROWS
    # a 95-unit block ends exactly where the span of 7s starts: a run of
    # one-unit blocks leaves its last one open for 94 distinct units
    full_block = [1] * (s - 94 * unit) + distinct(94 * unit)
    return {
        "whole-spans": distinct(s) + [7] * (2 * s) + distinct(s + 10),
        "mid-span-mid-block": distinct(s + 1000) + [7] * (s + 2001) + distinct(s + 517),
        "row-in-block": distinct(s) + [distinct(s)[-5]] * (2 * s) + distinct(s, base=1005),
        "row-in-block-again": distinct(s - 3) + [7, 9, 8] + [9] * (2 * s) + [8, 7] + distinct(s),
        "one-unit-short": distinct(s) + [7] * (2 * s - unit) + distinct(s + 3),
        "one-unit-over": distinct(s) + [7] * (2 * s + unit) + distinct(s + 3),
        "two-uniform-spans": distinct(s) + [7] * s + [9] * s + distinct(s),
        "after-full-block": full_block + [7] * (2 * s) + distinct(s),
        "repeats-in-unit": distinct(s) + [7, 7, 8, 9] * (s // 2) + distinct(s + 6),
        "partial-last-unit": distinct(3 * s) + [7] * (s - 2),
    }


@pytest.mark.parametrize("mode", (MODE_1TT, MODE_4TT))
@pytest.mark.parametrize("name", sorted(run_cases(1)))
def test_layout_matches_reference_on_runs(name, mode):
    rows = run_cases(1 if mode == MODE_1TT else 4)[name]
    assert len(rows) > 3 * SPAN_ROWS
    assert_layout_matches_reference(rows, mode)


def test_full_block_ends_where_the_run_starts():
    # the after-full-block case: the unit before the run closes a 95-unit block
    for mode, unit in ((MODE_1TT, 1), (MODE_4TT, 4)):
        rows = run_cases(unit)["after-full-block"]
        lengths = gridfile._block_lengths(stream_of(rows[:SPAN_ROWS]), mode)
        assert lengths[-1] == BLOCK_UNITS


@st.composite
def run_segments(draw):
    """Rows made of a few segments, up to about 3 spans in all: runs of
    one row or of one 4-row unit, and distinct rows, any of which may
    repeat a row of the segment before."""
    mode = draw(st.sampled_from((MODE_1TT, MODE_4TT)))
    lengths = st.one_of(
        st.integers(1, 200),
        st.sampled_from((SPAN_ROWS - 4, SPAN_ROWS - 1, SPAN_ROWS, SPAN_ROWS + 1, SPAN_ROWS + 4)),
        st.integers(SPAN_ROWS, 2 * SPAN_ROWS),
    )
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        count = draw(lengths)
        pool = rows[-95:] + [7, 8, 9]
        kind = draw(st.sampled_from(("run", "unit-run", "distinct")))
        if kind == "run":
            rows += [draw(st.sampled_from(pool))] * count
        elif kind == "unit-run":
            unit = draw(st.lists(st.sampled_from(pool), min_size=4, max_size=4))
            rows += (unit * (count // 4 + 1))[:count]
        else:
            rows += distinct(count, draw(st.integers(0, 65536 - count)))
    return rows[: 3 * SPAN_ROWS + draw(st.integers(0, 7))], mode


@settings(max_examples=40, deadline=None)
@given(run_segments())
def test_layout_matches_reference_on_drawn_runs(case):
    assert_layout_matches_reference(*case)


def plain_render(block_units):
    """The occupant stream joined one block at a time: the oracle for
    _render, given the same bytes, one unit count per block."""
    pieces = [OCCUPANT_ALPHABET[:k] + bytes((SEPARATOR_CODES[i % len(SEPARATOR_CODES)],))
              for i, k in enumerate(block_units)]
    occupant = b"".join(pieces)
    return occupant[:-1] if block_units and block_units[-1] < BLOCK_UNITS else occupant


@pytest.mark.parametrize("ones", (gridfile._CHUNK - 1, gridfile._CHUNK, gridfile._CHUNK + 1,
                                  2 * gridfile._CHUNK, 3 * gridfile._CHUNK + 5))
def test_render_of_one_unit_blocks_matches_plain_join(ones):
    # runs of one-unit blocks at and off chunk alignment, ending in a
    # partial or a full block; as bytes, the type the writer passes, so a
    # whole chunk of them is the constant that _render emits at once
    for before in ([], [2], [95] * 30):
        for after in ([], [95], [3]):
            block_units = bytes(before + [1] * ones + after)
            assert gridfile._render(block_units) == plain_render(block_units)
    # the writer's lengths for a run of one repeated row hold the constant
    lengths = gridfile._block_lengths(bytes(2 * ones), MODE_1TT)
    assert lengths == b"\x01" * ones
    assert (lengths[: gridfile._CHUNK] == gridfile._ONE_UNIT_BLOCKS) == (ones >= gridfile._CHUNK)


def test_layout_tables_equal_their_comprehensions():
    # the module builds these by slicing, maketrans and joins, and the
    # render pieces on the first _render; each must equal the plain
    # per-byte or per-piece comprehension
    assert gridfile._ORDINALS == bytes(
        0 if b < 32 else OCCUPANT_ALPHABET.find(b) + 1 or gridfile._OTHER for b in range(256)
    )
    assert gridfile._CLAMPED == bytes(min(n, BLOCK_UNITS) or 1 for n in range(256))
    separators = [bytes((code,)) for code in SEPARATOR_CODES]
    pieces = [[OCCUPANT_ALPHABET[:n] + sep for n in range(BLOCK_UNITS + 1)] for sep in separators]
    chunk = b"".join(row[1] for row in pieces) * (gridfile._CHUNK // len(pieces))
    assert gridfile._ONE_UNIT_CHUNK == chunk
    assert gridfile._AFTER_CYCLE == separators[-1] + chunk
    gridfile._render(b"\x01")
    assert gridfile._PIECES == pieces


def test_full_final_block_without_its_separator_rejected():
    data, _ = grid_bytes(list(range(95)))
    stream = occupant_stream(data)
    assert stream == OCCUPANT_ALPHABET + b"\x01"
    with pytest.raises(GridFormatError) as err:
        parse_grid(with_occupant(data, stream[:-1]))
    assert "separator" in str(err.value)
    assert err.value.offset == OCCUPANT_AT + 95 and err.value.block == 0


def test_separator_after_partial_final_block_rejected():
    data, _ = grid_bytes([1, 2, 3])
    assert occupant_stream(data) == b"abc"
    with pytest.raises(GridFormatError) as err:
        parse_grid(with_occupant(data, b"abc\x01"))
    assert "separator" in str(err.value)
    assert err.value.offset == OCCUPANT_AT + 3 and err.value.block == 0


def test_missing_separator_after_95_chars_rejected():
    data, _ = grid_bytes(list(range(96)))
    stream = occupant_stream(data)
    with pytest.raises(GridFormatError) as err:
        parse_grid(with_occupant(data, stream[:95] + stream[96:]))
    assert "missing block separator after 95 occupant chars" in str(err.value)
    assert err.value.offset == OCCUPANT_AT + 95 and err.value.block == 0


@pytest.mark.parametrize(
    "edit, offset, block",
    [
        (lambda s: b"\x01" + s, 0, 0),  # leading separator
        (lambda s: s[:96] + b"\x02" + s[96:], 96, 1),  # doubled separator
    ],
    ids=["leading", "doubled"],
)
def test_separator_without_occupant_chars_rejected(edit, offset, block):
    data, _ = grid_bytes(list(range(96)))
    forged = with_occupant(data, edit(occupant_stream(data)))
    with pytest.raises(GridFormatError) as err:
        parse_grid(forged)
    assert "separator without preceding occupant chars" in str(err.value)
    assert err.value.offset == OCCUPANT_AT + offset and err.value.block == block


def test_region_mismatch_names_slot_and_block():
    data, _ = grid_bytes(list(range(96)))
    buf = bytearray(data)
    buf[REGION.start + 60000] ^= 0x41
    with pytest.raises(GridFormatError) as err:
        parse_grid(bytes(buf))
    assert "region" in str(err.value)
    assert err.value.offset == REGION.start + 60000 and err.value.block == 1


def test_occupant_stream_rejects_truncation():
    with pytest.raises(GridFormatError) as err:
        occupant_stream(GRID_MAGIC + b"\x01" + bytes(9))
    assert "truncated" in str(err.value) and err.value.offset == PAPER_HEADER_LEN
    with pytest.raises(GridFormatError) as err:
        occupant_stream(GRID_MAGIC + bytes(10))
    assert "unsupported version 0" in str(err.value) and err.value.offset == 4
    data, _ = grid_bytes(list(range(10)))
    for cut in (OCCUPANT_AT - 3, OCCUPANT_AT + 5):  # length prefix, stream
        with pytest.raises(GridFormatError) as err:
            occupant_stream(data[:cut])
        assert "truncated" in str(err.value) and err.value.offset == cut


def with_address_len(data, addr_len):
    """The artifact with its address-channel length prefix replaced."""
    at = OCCUPANT_AT + len(occupant_stream(data))
    return data[:at] + addr_len.to_bytes(8, "big") + data[at + 8 :]


@pytest.mark.parametrize(
    "rows, edit, message, offset, block",
    [
        pytest.param(96, lambda s: s[:96] + b"\x02" + s[96:],
                     "separator without preceding occupant chars", 96, 1, id="empty-block"),
        pytest.param(96, lambda s: s[:95] + s[96:],
                     "missing block separator after 95 occupant chars", 95, 0, id="96-chars"),
        pytest.param(10, lambda s: b"abd" + s[3:], "occupant ordinal gap", 2, 0, id="ordinal-gap"),
        pytest.param(96, lambda s: s[:95] + b"\x02" + s[96:],
                     "separator code 2 does not match cycle value 1", 95, 0, id="separator-code"),
        pytest.param(10, lambda s: s + b"\x01",
                     "separator code 1 after a partial final block", 10, 0, id="partial-final"),
        pytest.param(10, lambda s: s[:-1],
                     "occupant stream holds 9 units, header implies 10", 0, None, id="unit-count"),
        pytest.param(96, lambda s: b"abd" + s[3:96] + b"\x02" + s[96:],
                     "occupant ordinal gap", 2, 0, id="gap-then-empty-block"),
    ],
)
def test_occupant_defects_are_reported_before_the_address_length(rows, edit, message, offset,
                                                                  block):
    # fields are checked in file order: the occupant stream's first
    # defect, then its unit count, before the address channel's length
    data, _ = grid_bytes(list(range(rows)))
    forged = with_address_len(with_occupant(data, edit(occupant_stream(data))), 7)
    with pytest.raises(GridFormatError) as err:
        parse_grid(forged)
    assert message in str(err.value)
    assert err.value.offset == OCCUPANT_AT + offset and err.value.block == block


def mutation_cases():
    """Small artifacts holding a collision restart, a full 95-unit block
    and a partial final block, in both modes."""
    rows_1tt = [0, 1, 2, 1] + list(range(100, 195)) + [5, 6, 7]
    rows_4tt = [0, 1, 2, 3, 4, 5, 6, 0] + list(range(1000, 1376)) + list(range(7, 13))
    for rows, mode, first, last in ((rows_1tt, MODE_1TT, 3, 4), (rows_4tt, MODE_4TT, 1, 2)):
        data, summary = grid_bytes(rows, mode=mode)
        stream = occupant_stream(data)
        assert summary.collision_restarts == 1
        assert stream == OCCUPANT_ALPHABET[:first] + b"\x01" + OCCUPANT_ALPHABET + b"\x02" \
            + OCCUPANT_ALPHABET[:last]
        yield pytest.param(data, len(stream), id=mode)


@pytest.mark.parametrize("data, occ_len", mutation_cases())
def test_every_occupant_byte_change_is_rejected(data, occ_len):
    # each is named at the changed byte, or at the next one when the
    # change is a separator that splits a block or a char that extends one
    assert parse_grid(data).stream
    for at in range(OCCUPANT_AT, OCCUPANT_AT + occ_len):
        for new in set(range(256)) - {data[at]}:
            with pytest.raises(GridFormatError) as err:
                parse_grid(data[:at] + bytes((new,)) + data[at + 1 :])
            assert err.value.offset in (at, at + 1), (at, new, str(err.value))


def rendered_block_units(occupant):
    """The block lengths of an occupant stream that render-and-compare
    accepts, or None: the check _occupant_blocks makes without rendering."""
    lengths = [len(block) for block in re.split(rb"[\x00-\x1f]", occupant)]
    if lengths[-1] == 0:  # a separator that ends the stream closes the last block
        lengths.pop()
    if any(not 0 < k <= BLOCK_UNITS for k in lengths):
        return None
    return lengths if gridfile._render(lengths) == occupant else None


def rendering_error(occupant):
    """(message, offset, block) of the first byte where a rejected stream
    departs from the rendering of all its blocks, as far as the first that
    is no alphabet prefix: the error _occupant_blocks must raise."""
    blocks = re.split(rb"[\x00-\x1f]", occupant)
    if occupant[-1] < 32:
        blocks.pop()
    prefixes = [block == OCCUPANT_ALPHABET[: len(block)] != b"" for block in blocks]
    if False in prefixes:
        del blocks[prefixes.index(False) + 1 :]
    lengths = [len(block) for block in blocks]
    lengths[-1] = min(lengths[-1], BLOCK_UNITS) or 1
    err = gridfile._occupant_mismatch(occupant, gridfile._render(lengths), 0)
    return str(err), err.offset, err.block


def assert_same_verdict(occupant):
    units = rendered_block_units(occupant)
    want = None if units is None else (len(units), sum(units), units[-1] if units else 0)
    try:
        got = gridfile._occupant_blocks(occupant, 0)
    except GridFormatError as err:
        got = None
        assert (str(err), err.offset, err.block) == rendering_error(occupant), occupant
    assert got == want, occupant


def test_canonical_check_agrees_on_every_short_stream():
    # bytes outside the alphabet (0x80, 0xFF) share one ordinal, and
    # gridfile._OTHER, read as a byte, is a char of another ordinal
    for n in range(6):
        for chars in itertools.product(b"abc\x00\x01\x02\x1f\x80\xff" + bytes((gridfile._OTHER,)),
                                       repeat=n):
            assert_same_verdict(bytes(chars))


SPAN = gridfile._SPAN
# Bytes within 2 of where the check's spans meet, whether consecutive
# spans share a byte (every SPAN - 1 bytes) or not (every SPAN bytes).
NEAR_SPAN_BOUNDARIES = sorted({b + d for b in (SPAN - 1, SPAN, 2 * SPAN - 2, 2 * SPAN)
                               for d in range(-2, 3)})


def long_renderings():
    """Renderings longer than two spans: one-unit blocks, full blocks
    after a 32-unit one (so a full block's last char is byte SPAN - 1, and
    the last block keeps its separator), and drawn lengths ending partial."""
    rng = random.Random(21)
    drawn = []
    while sum(drawn) < 2 * SPAN:
        drawn.append(rng.choice((1, 2, 3, rng.randint(1, 95), 95)))
    drawn.append(40)
    for lengths in ([1] * (SPAN + 8), [32] + [BLOCK_UNITS] * (2 * SPAN // BLOCK_UNITS), drawn):
        occupant = gridfile._render(lengths)
        assert len(occupant) > NEAR_SPAN_BOUNDARIES[-1] + 1
        yield occupant


def span_boundary_mutations():
    """Each long rendering, whole and cut to end near a span boundary, and
    with one byte changed, deleted or inserted near one: a separator
    (right, wrong or doubled), a char of the first or last ordinals, a
    neighbour's byte, or a byte outside the alphabet."""
    replacements = b"\x00\x01\x02\x1e\x1f" + OCCUPANT_ALPHABET[:3] + OCCUPANT_ALPHABET[-2:] \
        + bytes((gridfile._OTHER, 0x7F, 0x80, 0xFF))
    for occupant in long_renderings():
        yield occupant
        for at in NEAR_SPAN_BOUNDARIES:
            yield occupant[: at + 1]
            yield occupant[:at] + occupant[at + 1 :]
            for new in replacements + occupant[at - 1 : at] + occupant[at + 1 : at + 2]:
                yield occupant[:at] + bytes((new,)) + occupant[at + 1 :]
                yield occupant[:at] + bytes((new,)) + occupant[at:]


def test_canonical_check_agrees_across_span_boundaries():
    for occupant in span_boundary_mutations():
        assert_same_verdict(occupant)


def ordinal_image(length, zeros):
    """An ordinal image that starts at 1, holds 0 at each offset in
    ``zeros``, and elsewhere the ordinal after the byte before it, or 0
    after ordinal 90 when no 0 of ``zeros`` follows."""
    image = bytearray(b"\x01")
    for i in range(1, length):
        image.append(0 if i in zeros or image[-1] >= 90 and i + 1 not in zeros
                     else image[-1] + 1)
    return bytes(image)


def ordinals_ascend_walk(image):
    """_ordinals_ascend by a walk over the pairs in Python: the reference."""
    return all(b == a + 1 or b == 0 != a for a, b in zip(image, image[1:]))


@pytest.mark.parametrize("zeros, ascend", [
    ({SPAN - 2, SPAN - 1}, False),  # both in the first span
    ({SPAN - 1, SPAN}, False),  # the byte the spans share, then the next
    ({2 * SPAN + 98, 2 * SPAN + 99}, False),  # the last two bytes, in a short last span
    ({SPAN - 2}, True),
    ({SPAN - 1}, True),  # the first span's top byte is 0, the next span's second 1
    ({2 * SPAN + 98}, True),
])
def test_span_check_finds_touching_separators_where_spans_meet(zeros, ascend):
    image = ordinal_image(2 * SPAN + 100, zeros)
    assert all(image[i] == 0 for i in zeros)
    assert ordinals_ascend_walk(image) is ascend
    assert gridfile._ordinals_ascend(image) is ascend


CHUNK, ONE_UNIT_CHUNK = gridfile._CHUNK, gridfile._ONE_UNIT_CHUNK


def chunk_renderings():
    """(rendering, offsets near its copies of ONE_UNIT_CHUNK): runs of one-
    unit blocks just under, at and past one and two chunks, at the start,
    after drawn and full blocks (at cycle phase 4, or at phase 0 after a
    full block), and at the end.  The copies are the ones a left-to-right
    scan takes, each at the start or after separator 31; the offsets are
    within 2 bytes of each copy's and the run's start and end."""
    size = len(ONE_UNIT_CHUNK)
    befores = ([], [3, 95, 2, 95], [3, 95, 2] + [BLOCK_UNITS] * 28)
    for ones in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5):
        for before, after in itertools.product(befores, ([], [2, 95, 1])):
            occupant = gridfile._render(before + [1] * ones + after)
            run = len(gridfile._render(before + [1])) - 1
            ends = [run, run + 2 * ones]
            at = run
            while (at := occupant.find(ONE_UNIT_CHUNK, at)) >= 0:
                if at == 0 or occupant[at - 1] == SEPARATOR_CODES[-1]:
                    ends += (at, at + size)
                    at += size
                else:
                    at += 1
            yield occupant, sorted({e + d for e in ends for d in range(-2, 3)
                                    if 0 <= e + d <= len(occupant)})


def test_canonical_check_agrees_around_one_unit_chunks():
    # a chunk holds whole separator cycles, so where the cycle starts
    # afresh, a copy of it is valid whatever stands around it
    assert CHUNK % len(SEPARATOR_CODES) == 0
    assert ONE_UNIT_CHUNK == gridfile._render([1] * (CHUNK + 1))[:-1]
    for occupant, offsets in chunk_renderings():
        assert_same_verdict(occupant)
        for at in offsets:
            assert_same_verdict(occupant[:at] + ONE_UNIT_CHUNK + occupant[at:])
            if at == len(occupant):
                continue
            assert_same_verdict(occupant[:at] + occupant[at + 1 :])
            for new in b"\x1f\x01ab\x80":
                if new != occupant[at]:
                    assert_same_verdict(occupant[:at] + bytes((new,)) + occupant[at + 1 :])


# bytes next to the ones a rendered stream holds: every separator code, 0,
# and the first and last ordinals, plus anything else
nearby_bytes = st.one_of(
    st.sampled_from(list(range(33)) + list(OCCUPANT_ALPHABET[:3] + OCCUPANT_ALPHABET[-3:]) + [0x80]),
    st.integers(0, 255),
)


@st.composite
def rendered_mutations(draw):
    """A rendered occupant stream with one byte changed, deleted or
    inserted, or none.  Its blocks are up to 40 of 1, 2, 94 and 95 units,
    so full and partial final blocks, or a long run of 1-3-unit blocks:
    hundreds to a few thousand, whose separators wrap the cycle many times
    and whose integer images span thousands of digits."""
    if draw(st.booleans()):
        lengths = draw(st.lists(st.sampled_from((1, 2, 94, 95)), max_size=40))
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        lengths = [rng.randint(1, 3) for _ in range(draw(st.integers(200, 3000)))]
    occupant = gridfile._render(lengths)
    edit = draw(st.sampled_from(("none", "change", "delete", "insert")))
    if edit == "none" or (edit != "insert" and not occupant):
        return occupant
    at = draw(st.integers(0, len(occupant) - (edit != "insert")))
    new = bytes((draw(nearby_bytes),))
    return occupant[:at] + (b"" if edit == "delete" else new) + occupant[at + (edit != "insert") :]


@settings(max_examples=400, deadline=None)
@given(rendered_mutations())
@example(gridfile._render([1] * 33))  # the cycle wraps
@example(gridfile._render([95, 95])[:-1])  # full final block, no separator
@example(gridfile._render([95, 94]) + b"\x02")  # partial, with one
@example(OCCUPANT_ALPHABET + b"a")  # 96 chars in one block
@example(OCCUPANT_ALPHABET + b"\x80")  # no char, where a full block's separator belongs
def test_canonical_check_agrees_on_mutated_renderings(occupant):
    assert_same_verdict(occupant)


def test_canonical_check_agrees_past_255_chars_in_a_block():
    # a block's size no longer fits the byte that holds it: first, after
    # the first block that is no alphabet prefix, and after valid blocks
    for occupant in (OCCUPANT_ALPHABET * 3, b"ax\x01" + b"a" * 300,
                     gridfile._render([2, 95]) + OCCUPANT_ALPHABET * 3 + b"\x03a",
                     gridfile._render([1] * 40) + b"\x09" + b"b" * 256):
        assert_same_verdict(occupant)


import bz2
import lzma
import random
import time
import tracemalloc
import zlib
from array import array

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fbar import addressing, codec, gridfile, metrics, pairops, transtable
from fbar.codec import (
    CompressJob,
    DecompressJob,
    FORMAT_HONEST,
    FORMAT_PAPER,
    ModeMismatchError,
    compress,
    decompress,
    encode_rows,
    roundtrip,
)
from fbar.gridfile import MODE_1TT, MODE_4TT
from conftest import occupant_stream, strided
from test_gridfile import HONEST_HEADER_LEN


def test_resolved_1tt_paper(tt):
    result, restored = roundtrip(b"resolved", tt)
    assert restored == b"resolved"
    assert occupant_stream(result.artifact) == b"abcd"
    assert result.summary.pair_count == 4
    assert result.report.paper_accounted == 4
    assert result.report.input_size == 8
    assert result.report.space_savings_paper == 0.5
    assert result.report.manipulation_total == 32


def test_job_defaults(tt):
    for job in (CompressJob(b"ab", tt), CompressJob(data=b"ab", tables=tt)):
        assert (job.data, job.tables, job.mode, job.fmt) == (b"ab", tt, MODE_1TT, FORMAT_PAPER)
    job = CompressJob(b"ab", tt, MODE_4TT, FORMAT_HONEST)
    assert (job.mode, job.fmt) == (MODE_4TT, FORMAT_HONEST)
    for job in (DecompressJob(b"FBGR", tt), DecompressJob(artifact=b"FBGR", tables=tt)):
        assert (job.artifact, job.tables, job.mode) == (b"FBGR", tt, None)
    assert DecompressJob(b"FBGR", tt, MODE_4TT).mode == MODE_4TT


def test_empty_input_all_modes(tt, set4):
    for tables, mode in ((tt, MODE_1TT), (set4, MODE_4TT)):
        for fmt in (FORMAT_PAPER, FORMAT_HONEST):
            result, restored = roundtrip(b"", tables, mode=mode, fmt=fmt)
            assert restored == b""
            assert result.report.honest_size == 0


def test_8_bytes_4tt(set4):
    result, restored = roundtrip(b"resolved", set4, mode=MODE_4TT)
    assert restored == b"resolved"
    assert occupant_stream(result.artifact) == b"a"
    assert result.summary.pair_count == 4
    assert result.report.paper_accounted == 1
    assert result.report.space_savings_paper == 0.875


def test_encode_rows_tail():
    row = addressing.row_of_pair(ord("a"), ord("b")).to_bytes(2, "big")
    assert encode_rows(b"abc") == (row, ord("c"))
    assert encode_rows(b"ab") == (row, None)


def test_at_dollar_artifact_decodes_through_combos(tt):
    # the stored row regenerates '@' and '$' via their canonical combos
    result, _ = roundtrip(b"@$", tt)
    parsed = gridfile.parse_grid(result.artifact)
    assert len(parsed.stream) == 2
    x, x2 = addressing.pair_of_row(int.from_bytes(parsed.stream, "big"))
    assert x == pairops.decode_byte("ippp", "znnn") == 0x40
    assert x2 == pairops.decode_byte("piip", "nnzn") == 0x24


def test_honest_payload_for_at_dollar(tt):
    # payload is exactly the big-endian row of address (12,12,11,15)
    result = compress(CompressJob(data=b"@$", tables=tt, fmt=FORMAT_HONEST))
    row = addressing.row_of_address((12, 12, 11, 15))
    payload = result.artifact[HONEST_HEADER_LEN : HONEST_HEADER_LEN + 2]
    assert payload == row.to_bytes(2, "big")
    assert result.report.honest_size == 2


def test_honest_odd_input_layout(tt):
    # 3 bytes: one 2-byte row, then marker + raw final byte
    result = compress(CompressJob(data=b"abc", tables=tt, fmt=FORMAT_HONEST))
    assert len(result.artifact) == gridfile.HONEST_OVERHEAD + 2 + 2
    assert result.artifact[-2] == 0x00  # tail marker
    assert result.artifact[-1] == ord("c")
    assert result.report.honest_size == 4


def test_determinism(tt):
    data = b"determinism check input 123"
    a = compress(CompressJob(data=data, tables=tt))
    b = compress(CompressJob(data=data, tables=tt))
    assert a.artifact == b.artifact


def test_mode_equivalence(tt, set4):
    data = bytes(range(256)) * 2 + b"tail"
    out_1tt = roundtrip(data, tt, mode=MODE_1TT)[1]
    out_4tt = roundtrip(data, set4, mode=MODE_4TT)[1]
    assert out_1tt == out_4tt == data


def test_honest_format_mode_agnostic(tt, set4):
    data = b"same rows either way"
    art1 = compress(CompressJob(data=data, tables=tt, fmt=FORMAT_HONEST)).artifact
    art4 = compress(
        CompressJob(data=data, tables=set4, mode=MODE_4TT, fmt=FORMAT_HONEST)
    ).artifact
    assert art1 == art4


@settings(max_examples=80, deadline=None)
@given(data=st.binary(max_size=600))
def test_roundtrip_property_1tt_paper(data):
    tt = transtable.generate_tt()
    _, restored = roundtrip(data, tt)
    assert restored == data


@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=600), fmt=st.sampled_from(codec.FORMATS))
def test_roundtrip_property_4tt(data, fmt):
    set4 = transtable.TtSet4.canonical()
    _, restored = roundtrip(data, set4, mode=MODE_4TT, fmt=fmt)
    assert restored == data


@settings(max_examples=40, deadline=None)
@given(data=st.binary(min_size=1, max_size=64))
def test_roundtrip_low_entropy_collisions(data):
    # tiny alphabets force repeated pairs, hence block restarts
    tt = transtable.generate_tt()
    repeated = data * 8
    result, restored = roundtrip(repeated, tt)
    assert restored == repeated


def test_any_table_compresses_in_either_mode(tt, set4):
    # a TtSet4 holds the one mapping, so it writes the plain table's bytes
    data = bytes(range(256)) * 2 + b"odd"
    for mode in (MODE_1TT, MODE_4TT):
        for fmt in codec.FORMATS:
            plain = compress(CompressJob(data=data, tables=tt, mode=mode, fmt=fmt)).artifact
            four = compress(CompressJob(data=data, tables=set4, mode=mode, fmt=fmt)).artifact
            assert plain == four
            assert decompress(DecompressJob(artifact=plain, tables=tt)) == data


def test_decompress_requested_mode_mismatch(tt):
    artifact = compress(CompressJob(data=b"xyzw", tables=tt)).artifact
    with pytest.raises(ModeMismatchError):
        decompress(DecompressJob(artifact=artifact, tables=tt, mode=MODE_4TT))


@pytest.mark.parametrize("mode", ("2tt", "1TT", ""))
@pytest.mark.parametrize("fmt", codec.FORMATS)
def test_decompress_rejects_an_unknown_mode(fmt, mode, tt):
    # before the artifact is read, as compress does: no mode mismatch, and
    # no honest artifact decoded without a word
    artifact = compress(CompressJob(data=b"xyzw", tables=tt, fmt=fmt)).artifact
    with pytest.raises(ValueError, match=f"^unknown mode {mode!r}$"):
        decompress(DecompressJob(artifact=artifact, tables=tt, mode=mode))


def test_compress_and_write_grid_reject_unknown_modes_and_formats(tt):
    with pytest.raises(ValueError, match="^unknown mode '2tt'$"):
        compress(CompressJob(data=b"xyzw", tables=tt, mode="2tt"))
    with pytest.raises(ValueError, match="^unknown format 'zip'$"):
        compress(CompressJob(data=b"xyzw", tables=tt, fmt="zip"))
    with pytest.raises(ValueError, match="^unknown mode '2tt'$"):
        gridfile.write_grid(b"\x00\x01", "2tt")


def test_any_table_decodes_any_paper_artifact(tt, set4):
    data = b"one mapping, four copies!"
    for tables, mode, other in ((set4, MODE_4TT, tt), (tt, MODE_1TT, set4)):
        artifact = compress(CompressJob(data=data, tables=tables, mode=mode)).artifact
        assert decompress(DecompressJob(artifact=artifact, tables=other)) == data


def test_decompress_rejects_unknown_magic(tt):
    with pytest.raises(gridfile.GridFormatError):
        decompress(DecompressJob(artifact=b"JUNKJUNKJUNK", tables=tt))


def test_unknown_magic_is_named_at_offset_0(tt):
    with pytest.raises(gridfile.GridFormatError) as err:
        decompress(DecompressJob(artifact=b"JUNKJUNKJUNK", tables=tt))
    assert err.value.offset == 0 and err.value.block is None
    assert str(err.value) == "unrecognized artifact magic b'JUNK' at byte offset 0"


def test_corrupt_table_refused():
    broken = transtable.TranslationTable(b"\x00\x00" * transtable.TT_ROWS)
    with pytest.raises(transtable.TtError):
        compress(CompressJob(data=b"hi", tables=broken))


@pytest.mark.parametrize("layout", addressing.LAYOUTS)
def test_relabelled_table_is_verified_again(layout):
    data = b"resolved! relabelled"
    table = transtable.generate_tt(layout)
    artifact = compress(CompressJob(data=data, tables=table)).artifact
    # the records pass only under the layout they were built for
    (table.layout,) = set(addressing.LAYOUTS) - {layout}
    with pytest.raises(transtable.TtError):
        compress(CompressJob(data=data, tables=table))
    with pytest.raises(transtable.TtError):
        decompress(DecompressJob(artifact=artifact, tables=table))
    table.layout = layout
    assert decompress(DecompressJob(artifact=artifact, tables=table)) == data


def test_grouped_layout_roundtrip(tt_grouped):
    data = b"layouts only need to be self-consistent"
    result, restored = roundtrip(data, tt_grouped)
    assert restored == data
    # the artifact decodes with the matching table even though rows differ
    inter_rows, _ = encode_rows(data, "interleaved")
    grouped_rows, _ = encode_rows(data, "grouped")
    assert inter_rows != grouped_rows


@pytest.mark.parametrize("layout", addressing.LAYOUTS)
@pytest.mark.parametrize("mode", (MODE_1TT, MODE_4TT))
@pytest.mark.parametrize("fmt", codec.FORMATS)
def test_artifact_is_the_writers_bytes_and_decodes_exactly(fmt, mode, layout, tt, tt_grouped):
    # every tail byte after the same 128 pairs, and no tail
    tables = tt if layout == "interleaved" else tt_grouped
    even = bytes(range(256))
    pairs = zip(even[::2], even[1::2])
    stream = b"".join(addressing.row_of_pair(x, x2, layout).to_bytes(2, "big") for x, x2 in pairs)
    for tail in (None, *range(256)):
        data = even if tail is None else even + bytes((tail,))
        if fmt == FORMAT_PAPER:
            written = gridfile.write_grid(stream, mode, tail).artifact
        else:
            written = gridfile.write_honest(stream, tail)
        result = compress(CompressJob(data=data, tables=tables, mode=mode, fmt=fmt))
        artifact = result.artifact
        assert type(artifact) is bytes and artifact == written
        # a paper artifact is the summary's own bytes, not a copy
        assert fmt == FORMAT_HONEST or artifact is result.summary.artifact
        restored = decompress(DecompressJob(artifact=artifact, tables=tables))
        assert type(restored) is bytes and restored == data


@pytest.mark.parametrize("fmt", codec.FORMATS)
def test_result_repr_names_sizes_not_bytes(fmt, tt):
    data = random.Random(16).randbytes(16 * 1024)
    result = compress(CompressJob(data=data, tables=tt, fmt=fmt))
    text = repr(result)
    assert len(text) < 1000 and f"artifact=<{len(result.artifact)} bytes>" in text
    if fmt == FORMAT_PAPER:
        assert repr(result.summary) in text
        assert len(repr(result.summary)) < 500 and f"pair_count={len(data) // 2}" in text
    # still a namedtuple: fields, unpacking and _replace
    artifact, summary, report = result
    assert result._fields == ("artifact", "summary", "report")
    assert result._replace(summary=None) == (artifact, None, report)
    assert type(result._replace(summary=None)) is codec.CompressResult


@pytest.mark.parametrize("mode", [MODE_1TT, MODE_4TT])
@pytest.mark.parametrize("fmt", codec.FORMATS)
def test_report_repr_names_sizes_not_bytes(fmt, mode, tt):
    data = bytes(range(32, 127)) * 173  # printable, so its bytes would show in a repr
    result = compress(CompressJob(data=data, tables=tt, mode=mode, fmt=fmt))
    report = result.report
    text = repr(report)
    assert text == (
        f"MetricsReport(mode={mode!r}, fmt={fmt!r}, input_size={len(data)}, "
        f"honest_size={report.honest_size}, artifact_size={report.artifact_size}, "
        f"elapsed={report.elapsed!r})"
    )
    assert data[:16].decode() not in text
    assert repr(result).endswith(f"report={text})")


@pytest.mark.parametrize("fmt", codec.FORMATS)
def test_job_reprs_name_sizes_not_bytes(fmt, tt):
    data = random.Random(16).randbytes(16 * 1024)
    artifact = compress(CompressJob(data=data, tables=tt, fmt=fmt)).artifact
    for job, size in ((CompressJob(data, tt, MODE_4TT, fmt), len(data)),
                      (DecompressJob(artifact, tt), len(artifact))):
        text = repr(job)
        assert len(text) < 300 and f"=<{size} bytes>" in text
        # still a namedtuple: fields, defaults and _replace
        assert type(job._replace(tables=None)) is type(job)
        assert job._replace(tables=None) == (job[0], None, *job[2:])
    parse = gridfile.parse_grid if fmt == FORMAT_PAPER else gridfile.parse_honest
    parsed = parse(artifact)
    assert repr(parsed).startswith(f"{type(parsed).__name__}(stream=<{len(data)} bytes>, tail=None")
    assert repr(CompressJob(array("H", [1, 2, 3]), tt)).startswith("CompressJob(data=<6 bytes>, ")


@pytest.mark.parametrize("fmt", codec.FORMATS)
def test_parsed_stream_keeps_its_snapshot(fmt, tt):
    data = bytes(range(256)) + b"!"
    artifact = bytearray(compress(CompressJob(data=data, tables=tt, fmt=fmt)).artifact)
    parse = gridfile.parse_grid if fmt == FORMAT_PAPER else gridfile.parse_honest
    parsed = parse(artifact)
    stream = bytes(parsed.stream)
    restored = decompress(DecompressJob(artifact=artifact, tables=tt))
    artifact[:] = artifact.translate(bytes(range(255, -1, -1)))  # every byte, in place
    artifact.extend(b"!")  # a view still exported from it would make this raise BufferError
    assert parsed.stream == stream and parsed.tail == ord("!")
    assert restored == data


# Buffers whose items are not bytes: each is taken as its bytes.
NOT_BYTES = {
    "array H, 3 items": array("H", [1, 2, 3]),
    "array H, 2 items": array("H", [1, 2]),
    "view cast to H": memoryview(b"abcdef").cast("H"),
    "bytearray": bytearray(b"resolved!"),
}


@pytest.mark.parametrize("fmt", codec.FORMATS)
@pytest.mark.parametrize("mode", (MODE_1TT, MODE_4TT))
@pytest.mark.parametrize("name", sorted(NOT_BYTES))
def test_any_buffer_is_taken_as_its_bytes(name, mode, fmt, tt):
    data = NOT_BYTES[name]
    raw = memoryview(data).tobytes()
    assert encode_rows(data, tt.layout) == encode_rows(raw, tt.layout)
    result, restored = roundtrip(data, tt, mode=mode, fmt=fmt)
    assert restored == raw
    assert result.report.input_size == len(raw)
    assert result.report.honest_size >= len(raw)
    report = metrics.MetricsReport(data, mode, fmt, 0.0, None, 0, 0)
    assert (report.input_size, report.empirical_H) == (len(raw), metrics.order0(raw)[2])
    # a strided view of an artifact, and one of 2-byte items, decode as
    # their bytes; every honest artifact has even length
    assert gridfile.artifact_kind(strided(result.artifact)) == fmt
    assert decompress(DecompressJob(artifact=strided(result.artifact), tables=tt)) == raw
    assert len(result.artifact) % 2 == 0 or fmt == FORMAT_PAPER
    if len(result.artifact) % 2 == 0:
        items = array("H")
        items.frombytes(result.artifact)
        assert gridfile.artifact_kind(items) == fmt
        assert decompress(DecompressJob(artifact=items, tables=tt)) == raw


# Objects that are no buffer; the list holds the bytes of an honest
# artifact's header and an int is not a size.
NOT_BUFFERS = {"int": 10, "list": [70, 66, 72, 78, 1] + [0] * 9, "str": "FBHN"}

# Every entry point that reads a caller's input, called with it.
ENTRY_POINTS = {
    "encode_stream": lambda x, tt: addressing.encode_stream(x),
    "decode_stream": lambda x, tt: addressing.decode_stream(x),
    "encode_rows": lambda x, tt: encode_rows(x),
    "parse_grid": lambda x, tt: gridfile.parse_grid(x),
    "parse_honest": lambda x, tt: gridfile.parse_honest(x),
    "write_grid": lambda x, tt: gridfile.write_grid(x, MODE_1TT),
    "write_honest": lambda x, tt: gridfile.write_honest(x),
    "artifact_kind": lambda x, tt: gridfile.artifact_kind(x),
    "compress": lambda x, tt: compress(CompressJob(data=x, tables=tt)),
    "decompress": lambda x, tt: decompress(DecompressJob(artifact=x, tables=tt)),
    "TranslationTable": lambda x, tt: transtable.TranslationTable(x),
    "MetricsReport": lambda x, tt: metrics.MetricsReport(x, MODE_1TT, FORMAT_PAPER, 0.0,
                                                         None, 0, 0),
}


@pytest.mark.parametrize("kind", sorted(NOT_BUFFERS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_refuses_a_non_buffer(entry, kind, tt):
    with pytest.raises(TypeError):
        ENTRY_POINTS[entry](NOT_BUFFERS[kind], tt)


@pytest.mark.parametrize("layout", addressing.LAYOUTS)
@pytest.mark.parametrize("mode", (MODE_1TT, MODE_4TT))
def test_honest_path_keeps_rows_in_the_row_stream(layout, mode, monkeypatch):
    tt = transtable.generate_tt(layout)
    tables = transtable.TtSet4((tt,) * 4) if mode == MODE_4TT else tt
    tables.ensure_verified()

    def row_array(stream):
        raise AssertionError("row stream converted to row numbers")

    monkeypatch.setattr(addressing, "row_array", row_array)
    data = bytes(range(256)) * 4 + b"!"
    _, restored = roundtrip(data, tables, mode=mode, fmt=FORMAT_HONEST)
    assert restored == data


def test_report_fields_complete(tt):
    result, _ = roundtrip(b"resolved", tt)
    kv = dict(result.report.as_kv())
    assert kv["input_size"] == 8
    assert kv["paper_size_1tt"] == 5  # estimator includes block amortization
    assert kv["paper_size_4tt"] == 1
    assert kv["honest_size"] == 8
    assert kv["fbar_H_bpB"] == 2
    assert float(kv["elapsed_s"]) >= 0


def test_report_elapsed_covers_report_building(tt, monkeypatch):
    # The timed region is the whole encode, write and report building ...
    write_honest = gridfile.write_honest

    def slow_write(*args):
        time.sleep(0.05)
        return write_honest(*args)

    monkeypatch.setattr(gridfile, "write_honest", slow_write)
    report = compress(CompressJob(data=b"resolved", tables=tt, fmt=FORMAT_HONEST)).report
    assert report.elapsed >= 0.05
    assert report.throughput == pytest.approx(8 / report.elapsed)

    # ... but not the input's entropy, which is computed on first read.
    monkeypatch.setattr(gridfile, "write_honest", write_honest)
    order0 = metrics.order0
    entropy_calls = []

    def slow_order0(data):
        entropy_calls.append(data)
        time.sleep(0.05)
        return order0(data)

    monkeypatch.setattr(metrics, "order0", slow_order0)
    report = compress(CompressJob(data=b"resolved", tables=tt, fmt=FORMAT_HONEST)).report
    elapsed, throughput = report.elapsed, report.throughput
    assert elapsed < 0.05
    assert entropy_calls == []
    assert report.empirical_H == order0(b"resolved")[2]
    assert len(entropy_calls) == 1
    assert (report.elapsed, report.throughput) == (elapsed, throughput)


def test_paper_compress_of_zeros_peaks_near_its_artifact(tt):
    # 512 KiB of zeros is 262,144 one-unit 1tt blocks.  Their lengths
    # travel as one byte each and are dropped before the artifact is
    # joined, so compress holds little beyond the artifact and the two
    # channels it joins (the row stream and the occupant stream).  Two
    # bytes more end a 4tt stream in a partial unit, which the layout
    # reads from the row stream without a copy.
    zeros = bytes(512 * 1024)
    stream, _ = encode_rows(zeros, tt.layout)
    for mode in (MODE_1TT, MODE_4TT):
        assert type(gridfile._block_lengths(stream, mode)) is bytes
    del stream
    for data, mode in ((zeros, MODE_1TT), (zeros + bytes(2), MODE_4TT)):
        compress(CompressJob(data, tt, mode))  # the table is verified once, untraced
        tracemalloc.start()
        try:
            artifact = compress(CompressJob(data, tt, mode)).artifact
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * len(artifact), (mode, peak, len(artifact))


@pytest.mark.parametrize("mode", (MODE_1TT, MODE_4TT))
@pytest.mark.parametrize("fmt", codec.FORMATS)
def test_stdlib_codecs_beat_the_honest_size_on_repetitive_input(fmt, mode, tt):
    # The paper's comparative claim, honestly counted: fbar never makes
    # an input smaller, while each general-purpose codec that ships with
    # Python shrinks repetitive input below what fbar needs to decode it.
    rng = random.Random(9)
    words = (b"resolved ", b"the ", b"grid ", b"pair ", b"table\n")
    repetitive = b"".join(rng.choice(words) for _ in range(2000))
    noise = rng.randbytes(8 * 1024 + 1)
    for data in (repetitive, noise):
        assert compress(CompressJob(data, tt, mode, fmt)).report.honest_size >= len(data)
    honest_size = compress(CompressJob(repetitive, tt, mode, fmt)).report.honest_size
    for codec_name, squeeze in (("zlib", zlib.compress), ("bz2", bz2.compress),
                                ("lzma", lzma.compress)):
        assert len(squeeze(repetitive)) < honest_size, codec_name

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fbar import addressing, metrics, transtable
from fbar.metrics import (
    AuditReport,
    empirical_entropy,
    fbar_H,
    manipulation_distance,
    paper_size,
    pigeonhole_audit,
    savings_from_H,
    shannon_order0,
)

# Reported corpus: input KiB -> compressed KiB for the two modes.
CORPUS_SIZES = [
    ("text", 60.16, 30.39, 7.52),
    ("book1", 662.34, 334.62, 82.79),
    ("book2", 1730.54, 874.28, 216.31),
    ("paper1", 51.28, 25.9, 6.41),
    ("paper2", 114.73, 57.96, 14.34),
    ("paper3", 10.02, 5.06, 1.25),
    ("web1", 730.24, 368.92, 91.28),
    ("web2", 584.1, 295.09, 73.01),
    ("log", 1797.77, 908.25, 224.72),
    ("cipher", 759.42, 383.66, 94.92),
    ("latex1", 204.3, 103.21, 25.53),
    ("latex2", 151.99, 76.78, 18.99),
]


def test_paper_size_examples():
    assert paper_size(61604, "1tt") == 31123
    assert paper_size(61604, "4tt") == 7701
    assert paper_size(10260, "1tt") == 5184
    assert paper_size(10260, "4tt") == 1283
    assert paper_size(0, "1tt") == 0
    assert paper_size(0, "4tt") == 0
    assert paper_size(8, "1tt") == 5
    assert paper_size(8, "4tt") == 1


@pytest.mark.parametrize("name,kib,want_1tt,want_4tt", CORPUS_SIZES)
def test_paper_size_reproduces_corpus(name, kib, want_1tt, want_4tt):
    n = round(kib * 1024)
    assert abs(paper_size(n, "1tt") / 1024 - want_1tt) <= 0.02
    assert abs(paper_size(n, "4tt") / 1024 - want_4tt) <= 0.02


def test_paper_size_asymptote():
    # one separator byte amortized per 96 pairs
    n = 10**8
    assert abs(paper_size(n, "1tt") / n - Fraction(97, 192)) < 1e-6


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 10**7))
def test_paper_size_monotone(n):
    for mode in ("1tt", "4tt"):
        assert paper_size(n, mode) <= paper_size(n + 1, mode)
        assert paper_size(n, mode) >= 0


def test_paper_size_rejects():
    with pytest.raises(ValueError):
        paper_size(-1, "1tt")
    with pytest.raises(ValueError):
        paper_size(10, "9tt")


def test_shannon_order0():
    assert abs(shannon_order0(27) - 4.7549) < 1e-4
    assert shannon_order0(2) == 1
    assert shannon_order0(256) == 8
    assert shannon_order0(1) == 0
    with pytest.raises(ValueError):
        shannon_order0(0)


def test_empirical_entropy_anchors():
    assert empirical_entropy(b"") == 0.0
    assert empirical_entropy(b"aaaaaaa") == 0.0
    assert empirical_entropy(b"abababab") == 1.0
    assert empirical_entropy(bytes(range(256)) * 4) == 8.0


@settings(max_examples=100, deadline=None)
@given(data=st.binary(max_size=512))
def test_empirical_entropy_bounds(data):
    h = empirical_entropy(data)
    assert 0.0 <= h <= 8.0 + 1e-9


LADDER = [
    (8, 3, Fraction(0)),
    (4, 2, Fraction(1, 2)),
    (2, 1, Fraction(3, 4)),
    (1, 0, Fraction(7, 8)),
    (Fraction(1, 2), -1, Fraction(15, 16)),
]


@pytest.mark.parametrize("ratio,H,savings", LADDER)
def test_entropy_ladder_exact(ratio, H, savings):
    got_H = fbar_H(ratio)
    assert got_H == H and isinstance(got_H, int)
    got_savings = savings_from_H(got_H)
    assert got_savings == savings and isinstance(got_savings, Fraction)


def test_fbar_H_float_half():
    assert fbar_H(0.5) == -1


def test_fbar_H_general_value():
    assert abs(fbar_H(3) - math.log2(3)) < 1e-12


def test_fbar_H_domain():
    with pytest.raises(ValueError):
        fbar_H(0)
    with pytest.raises(ValueError):
        fbar_H(-2)


def test_ladder_inverse_property():
    for H in (3, 2, 1, 0, -1):
        savings = savings_from_H(H)
        ratio = 8 * (Fraction(1) - savings)
        assert fbar_H(ratio) == H


def test_manipulation_distance():
    assert manipulation_distance(2) == 16
    assert manipulation_distance(2, decompressed=True) == 0
    assert manipulation_distance(0) == 0
    with pytest.raises(ValueError):
        manipulation_distance(-1)


def test_audit_canonical(tt):
    report = pigeonhole_audit(tt)
    assert report.bijection_ok
    assert report.distinct_rows == 65536
    assert report.violations == []
    a, b, stream = report.collision_witness
    assert a != b and stream == b"a"
    assert report.channel_bits["address_bits_per_pair"] == 16
    assert report.channel_bits["occupant_bits_per_pair"] == 8


def test_audit_catches_single_record_flip(tt):
    buf = bytearray(tt.originals)
    row = 4242
    buf[2 * row + 1] ^= 0x10
    report = pigeonhole_audit(transtable.TranslationTable(bytes(buf)))
    assert not report.bijection_ok
    assert report.violations[0][0] == row


def test_audit_canonical_grouped(tt_grouped):
    report = pigeonhole_audit(tt_grouped)
    assert report.bijection_ok
    assert report.distinct_rows == 65536
    assert report.violations == []
    assert report.collision_witness == (b"aa", b"bb", b"a")


@settings(max_examples=25, deadline=None)
@given(
    row=st.integers(0, 65535),
    offset=st.integers(0, 1),
    mask=st.integers(1, 255),
    layout=st.sampled_from(["interleaved", "grouped"]),
)
def test_audit_catches_any_single_byte_mutation(tt, tt_grouped, row, offset, mask, layout):
    table = {"interleaved": tt, "grouped": tt_grouped}[layout]
    buf = bytearray(table.originals)
    buf[2 * row + offset] ^= mask
    report = pigeonhole_audit(transtable.TranslationTable(bytes(buf), layout))
    assert not report.bijection_ok
    assert report.violations[0][0] == row
    assert len(report.violations) == 1


def test_audit_names_both_swapped_records(tt):
    buf = bytearray(tt.originals)
    a, b = 77, 60000
    buf[2 * a : 2 * a + 2], buf[2 * b : 2 * b + 2] = (
        buf[2 * b : 2 * b + 2],
        buf[2 * a : 2 * a + 2],
    )
    report = pigeonhole_audit(transtable.TranslationTable(bytes(buf)))
    assert not report.bijection_ok
    assert len(report.violations) == 2
    assert {row for row, _ in report.violations} == {a, b}


@settings(max_examples=25, deadline=None)
@given(
    flips=st.lists(
        st.tuples(st.integers(0, 2 * 65536 - 1), st.integers(1, 255)),
        min_size=1, max_size=3,
    ),
    layout=st.sampled_from(["interleaved", "grouped"]),
)
def test_verify_and_audit_name_the_changed_rows(tt, tt_grouped, flips, layout):
    canonical = {"interleaved": tt, "grouped": tt_grouped}[layout].originals
    buf = bytearray(canonical)
    for index, mask in flips:
        buf[index] ^= mask
    table = transtable.TranslationTable(bytes(buf), layout)
    changed = [
        row for row in range(65536)
        if buf[2 * row : 2 * row + 2] != canonical[2 * row : 2 * row + 2]
    ]
    verified = [row for row, _ in transtable.verify_tt(table).violations]
    audited = [row for row, _ in pigeonhole_audit(table).violations]
    # at most 3 rows change, fewer than the audit's cap of 16
    assert verified == audited == changed


def test_mislabelled_table_names_its_first_16_rows(tt_grouped):
    # The grouped table read as interleaved differs from the canonical
    # table in 61,440 rows; verification and the audit name the first 16.
    table = transtable.TranslationTable(tt_grouped.originals, "interleaved")
    got, want = table.originals, addressing.pair_table("interleaved")
    changed = [
        (row, f"row {row} holds {got[2 * row : 2 * row + 2].hex()}, "
              f"expected {want[2 * row : 2 * row + 2].hex()}")
        for row in range(65536) if got[2 * row : 2 * row + 2] != want[2 * row : 2 * row + 2]
    ]
    assert len(changed) == 61440
    violations = transtable.verify_tt(table).violations
    assert violations == changed[:16]
    with pytest.raises(transtable.TtError) as err:
        table.ensure_verified()
    assert str(err.value) == f"table failed verification: {changed[0][1]}"
    assert pigeonhole_audit(table).violations == violations


def test_audit_reports_a_broken_chain(tt, monkeypatch):
    encode_stream = addressing.encode_stream

    def second_pair_takes_first_row(data, layout="interleaved"):
        stream = bytearray(encode_stream(data, layout))
        stream[2:4] = stream[0:2]
        return bytes(stream)

    monkeypatch.setattr(addressing, "encode_stream", second_pair_takes_first_row)
    report = pigeonhole_audit(tt)
    assert not report.bijection_ok
    assert report.distinct_rows == 65535
    assert report.violations == []


def test_build_report_fields():
    report = metrics.build_report(
        b"resolved", "1tt", "paper", elapsed=0.5,
        paper_accounted=4, honest_size=8, artifact_size=100,
    )
    assert report.paper_size_1tt == 5
    assert report.paper_size_4tt == 1
    assert report.space_savings_paper == 0.5
    assert report.throughput == 16.0
    assert report.manipulation_total == 32
    assert "input_size=8" in report.render_kv()
    assert "resolved" not in report.render_table()


def test_report_derives_its_nominal_figures():
    report = metrics.MetricsReport(b"resolved!", "4tt", "honest", 0.5, None, 10, 24)
    assert report.input_size == 9
    assert report.paper_size_1tt == metrics.paper_size(9, "1tt")
    assert report.paper_size_4tt == 2
    assert report.space_savings_paper == 1.0 - 2 / 9
    assert report.fbar_H == 0
    assert report.manipulation_total == 40
    derived = ("paper_size_1tt", "paper_size_4tt", "space_savings_paper", "fbar_H",
               "manipulation_total")
    for name in derived:
        with pytest.raises(AttributeError):
            setattr(report, name, 0)


def test_audit_reports_never_share_defaults():
    a, b = AuditReport(True, 65536), AuditReport(True, 65536)
    a.violations.append((0, "row 0"))
    a.channel_bits["address_bits_per_pair"] = 16
    assert b.violations == [] and b.channel_bits == {}
    assert b.collision_witness is None

"""Translation table (TT): the static 65,536-row dictionary.

A table is exactly 65,536 records; row r stores the 2-byte pair whose
flag address linearizes to r.  Two serializations are provided: a
fixed-width text form of exactly 65,536 x 128 bytes = 8 MiB, and a
compact binary form with a magic header and its records in row order.
A table's records are immutable after construction and safe to share.
"""

import itertools

from . import addressing

TT_ROWS = addressing.ROWS
TEXT_ROW_BYTES = 128
TEXT_TOTAL_BYTES = TT_ROWS * TEXT_ROW_BYTES  # 8,388,608

BINARY_MAGIC = b"FBTT"
BINARY_VERSION = 1
_RECORD_BYTES = 4  # row (2 bytes, big-endian) + original pair (2 bytes)

# The 95 printable occupant characters: letters first, then digits with 0
# last, then the remaining printables in ascending code order.  The n-th
# pair within a block is tagged with the n-th character.
_LETTERS_DIGITS = (
    "abcdefghijklmnopqrstuvwxyz" "ABCDEFGHIJKLMNOPQRSTUVWXYZ" "1234567890"
)
OCCUPANT_ALPHABET = (
    _LETTERS_DIGITS
    + "".join(chr(c) for c in range(32, 127) if chr(c) not in _LETTERS_DIGITS)
).encode("ascii")
assert len(OCCUPANT_ALPHABET) == 95
assert len(set(OCCUPANT_ALPHABET)) == 95

_ESCAPE_MARK = 0x25  # '%', escaped as %25 when it appears in an original pair


class TtError(Exception):
    pass


class TtFormatError(TtError):
    """Malformed serialized table; carries the byte offset of the problem."""

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class TranslationTable:
    """Row -> original-pair dictionary of exactly 65,536 immutable records.

    ``layout`` is a plain attribute; a table relabelled with another
    layout is verified again before it codes anything.
    """

    row_count = TT_ROWS

    def __init__(self, originals, layout="interleaved"):
        if len(originals) != 2 * TT_ROWS:
            raise TtError(f"originals buffer of {len(originals)} bytes, expected {2 * TT_ROWS}")
        self._originals = bytes(originals)
        self.layout = layout
        self._verified_layout = None  # the layout the records last passed under

    @property
    def originals(self):
        return self._originals

    def __eq__(self, other):
        return (
            isinstance(other, TranslationTable)
            and self._originals == other._originals
            and self.layout == other.layout
        )

    def __repr__(self):
        return f"{type(self).__name__}(rows={self.row_count}, layout={self.layout!r})"

    def ensure_verified(self):
        """Verify once per layout and cache; raises TtError on any violation."""
        if self._verified_layout != self.layout:
            report = verify_tt(self)
            if not report.ok:
                raise TtError(f"table failed verification: {report.violations[0][1]}")
            self._verified_layout = self.layout


def generate_tt(layout="interleaved"):
    """Build the canonical table: record r holds the pair stored at row r."""
    return TranslationTable(addressing.pair_table(layout), layout)


class TtVerifyReport:
    def __init__(self, violations=None):
        # (row, message); each report gets its own list
        self.violations = [] if violations is None else violations

    @property
    def ok(self):
        return not self.violations


def verify_tt(tt):
    """Name each row whose record differs from ``addressing.pair_table``.

    A canonical table passes with one whole-buffer comparison; a table
    that differs is compared 256 rows at a time, and only the chunks that
    differ are walked.  A pair stored twice always sits at a row where it
    does not belong, so it is named too.
    """
    report = TtVerifyReport()
    expected = addressing.pair_table(tt.layout)
    originals = tt.originals
    if originals == expected:
        return report
    for at in range(0, 2 * TT_ROWS, 512):
        if originals[at : at + 512] != expected[at : at + 512]:
            for row in range(at // 2, at // 2 + 256):
                got = originals[2 * row : 2 * row + 2]
                want = expected[2 * row : 2 * row + 2]
                if got != want:
                    report.violations.append(
                        (row, f"row {row} holds {got.hex()}, expected {want.hex()}")
                    )
    return report


_NIBBLES = tuple(str(c) for c in range(1, 17))
_ALPHABET_TEXT = OCCUPANT_ALPHABET.decode("ascii")
# Lines joined per write: enough to amortize the call, few enough that
# the 8 MiB text is never held whole.
_TEXT_CHUNK_ROWS = 1024


def serialize_text(tt, sink):
    """Write the fixed-width text form; returns the byte count (8 MiB).

    Rows are formatted from the nibble strings of their addresses, taken
    in row order (l fastest), and from a per-byte escape table, and are
    written 1,024 lines per ``sink.write``.
    """
    # Text form of one original byte: printable ASCII stands for itself,
    # any other byte (and the escape mark) is written as %XX.
    escaped = tuple(
        chr(b) if 32 <= b <= 126 and b != _ESCAPE_MARK else f"%{b:02X}" for b in range(256)
    )

    def text_line(number, address, x, x2):  # row number - 1, holding the pair (x, x2)
        body = f"{number} {address} {_ALPHABET_TEXT} {escaped[x]}{escaped[x2]}"
        return body.ljust(TEXT_ROW_BYTES - 1) + "\n"

    addresses = map("x".join, itertools.product(_NIBBLES, repeat=4))
    originals = tt.originals
    lines = map(text_line, itertools.count(1), addresses, originals[0::2], originals[1::2])
    written = 0
    try:
        while chunk := "".join(itertools.islice(lines, _TEXT_CHUNK_ROWS)):
            written += sink.write(chunk.encode("ascii"))
    except OSError as exc:
        raise TtError(f"text serialization failed after {written} bytes: {exc}") from exc
    return written


def serialize_binary(tt, sink):
    """Write the compact binary form; returns the byte count."""
    buf = bytearray(5 + _RECORD_BYTES * TT_ROWS)
    buf[:5] = BINARY_MAGIC + bytes((BINARY_VERSION,))
    buf[5::4] = addressing.ALL_ROWS[0::2]
    buf[6::4] = addressing.ALL_ROWS[1::2]
    buf[7::4] = tt.originals[0::2]
    buf[8::4] = tt.originals[1::2]
    try:
        sink.write(bytes(buf))
    except OSError as exc:
        raise TtError(f"binary serialization failed: {exc}") from exc
    return len(buf)


def load_binary(source, layout="interleaved"):
    """Exact inverse of serialize_binary.

    Addresses are recomputed from row numbers, never stored.  The 65,536
    records must be in row order and are sliced out whole.  Raises
    TtFormatError naming the offending offset on bad magic, truncation,
    a wrong record count, or the first record out of row order.
    """
    data = source.read()
    if data[:4] != BINARY_MAGIC:
        raise TtFormatError(f"bad magic {data[:4]!r}", offset=0)
    if len(data) < 5:
        raise TtFormatError("truncated before version byte", offset=len(data))
    if data[4] != BINARY_VERSION:
        raise TtFormatError(f"unsupported version {data[4]}", offset=4)
    body = len(data) - 5
    if body % _RECORD_BYTES:
        raise TtFormatError(
            "truncated record", offset=5 + body - body % _RECORD_BYTES
        )
    count = body // _RECORD_BYTES
    if count != TT_ROWS:
        raise TtFormatError(f"row count {count}, expected {TT_ROWS}", offset=len(data))
    rows = addressing.ALL_ROWS
    if data[5::4] != rows[0::2] or data[6::4] != rows[1::2]:
        for n in range(TT_ROWS):
            off = 5 + n * _RECORD_BYTES
            row = int.from_bytes(data[off : off + 2], "big")
            if row != n:
                raise TtFormatError(f"record {n} holds row {row}, expected row {n}", offset=off)
    originals = bytearray(2 * TT_ROWS)
    originals[0::2] = data[7::4]
    originals[1::2] = data[8::4]
    return TranslationTable(originals, layout)


class TtSet4(TranslationTable):
    """The 4-TT mode's table: four copies of one table, which it then is.

    The four tables must be equal; the set is their one mapping and keeps
    the first table's verification, so a verified table is not verified
    again.
    """

    def __init__(self, tables):
        tables = tuple(tables)
        if len(tables) != 4:
            raise TtError(f"need exactly 4 tables, got {len(tables)}")
        first = tables[0]
        if not all(t == first for t in tables[1:]):
            raise TtError("the 4 tables of a set must be identical")
        super().__init__(first.originals, first.layout)
        self._verified_layout = first._verified_layout

    @classmethod
    def canonical(cls, layout="interleaved"):
        tt = generate_tt(layout)
        return cls((tt, tt, tt, tt))

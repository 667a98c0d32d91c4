"""Translation table (TT): the static 65,536-row dictionary.

A table is exactly 65,536 records; row r stores the 2-byte pair whose
flag address linearizes to r.  Two serializations are provided: a
fixed-width text form of exactly 65,536 x 128 bytes = 8 MiB, and a
compact binary form with a magic header and its records in row order.
A table's records are immutable after construction and safe to share.
"""

from collections import namedtuple

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

    It passes verification by holding ``addressing.pair_table(layout)``
    itself; ``layout`` is a plain attribute, so a relabelled table is
    verified again before it codes anything.
    """

    row_count = TT_ROWS

    def __init__(self, originals, layout="interleaved"):
        # bytes kept as they are, for ensure_verified's identity check
        self._originals = originals = addressing.as_bytes(originals)
        if len(originals) != 2 * TT_ROWS:
            raise TtError(f"originals buffer of {len(originals)} bytes, expected {2 * TT_ROWS}")
        self.layout = layout

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
        """Pass a table that holds its layout's pair table, else verify it and
        hold that pair table in place of the equal records; raises TtError."""
        canonical = addressing.pair_table(self.layout)
        if self._originals is not canonical:
            report = verify_tt(self)
            if not report.ok:
                raise TtError(f"table failed verification: {report.violations[0][1]}")
            self._originals = canonical


def generate_tt(layout="interleaved"):
    """Build the canonical table: record r holds the pair stored at row r.

    Its records are ``addressing.pair_table``'s own buffer, so it is
    verified from the start.
    """
    return TranslationTable(addressing.pair_table(layout), layout)


# Rows verify_tt names at most: ensure_verified reads the first, the
# pigeonhole audit keeps them all and ``fbar audit`` prints 8.
MAX_VIOLATIONS = 16


class TtVerifyReport(namedtuple("TtVerifyReport", "violations")):
    """(row, message) of the first ``MAX_VIOLATIONS`` rows whose record differs."""

    __slots__ = ()

    @property
    def ok(self):
        return not self.violations


def verify_tt(tt):
    """Name the first ``MAX_VIOLATIONS`` rows whose record differs from
    ``addressing.pair_table``, in row order.

    A canonical table passes with one whole-buffer comparison; in a table
    that differs, each row named is found by halving from the row after
    the last one, so a table that differs everywhere costs no more than
    one that differs in 16 rows.  A pair stored twice always sits at a
    row where it does not belong, so it is named too.
    """
    violations = []
    expected = addressing.pair_table(tt.layout)
    originals = tt.originals
    if originals == expected:
        return TtVerifyReport(violations)
    at = addressing.first_difference(originals, expected)
    while at < len(expected) and len(violations) < MAX_VIOLATIONS:
        row = at // 2
        got, want = originals[2 * row : 2 * row + 2], expected[2 * row : 2 * row + 2]
        violations.append((row, f"row {row} holds {got.hex()}, expected {want.hex()}"))
        at = addressing.first_difference(originals, expected, 2 * row + 2)
    return TtVerifyReport(violations)


# The text form is written _TEXT_CHUNK_ROWS lines per ``sink.write``:
# enough to amortize the per-chunk work, few enough that the 8 MiB text is
# never held whole.
_TEXT_CHUNK_ROWS = 1024
assert TT_ROWS % _TEXT_CHUNK_ROWS == 0

# A grid row (see serialize_text): the row number at 0 (5 digits), the
# address at 6 (4 coordinates of 2 digits), the pair at _GRID_PAIR (two
# escapes of 3 bytes), 7 spaces, and at _GRID_PAD the 10 pad columns: one
# per column that may hold 0x00, with a space exactly where it has 0x00.
_GRID_TEMPLATE = (
    bytes(5) + b" " + b"\0\0x\0\0x\0\0x\0\0 " + OCCUPANT_ALPHABET + b" "
    + bytes(6) + b" " * 7 + bytes(10) + b"\n"
)
_GRID_WIDTH = len(_GRID_TEMPLATE)  # 138
_GRID_PAIR = 114
_GRID_PAD = 127
_SPACE_WHERE_NUL = b" " + bytes(255)  # translate table: 0x00 -> space, all else -> 0x00


def _strip(symbols, stride):
    """(strip, period): strip[i] is symbols[i // stride % len(symbols)].

    The strip holds a period and a chunk more, and at most TT_ROWS and a
    chunk, so rows i..i + _TEXT_CHUNK_ROWS from any i % period are in it.
    """
    period = stride * len(symbols)
    size = min(period, TT_ROWS) + _TEXT_CHUNK_ROWS
    cycle = b"".join(bytes((s,)) * stride for s in symbols)
    return (cycle * (size // period + 1))[:size], period


def serialize_text(tt, sink):
    """Write the fixed-width text form; returns the byte count (8 MiB).

    Line r + 1 is row r: its number, its address (l fastest), the 95
    occupant characters and its pair, separated by spaces and padded with
    spaces to 127 bytes and a newline.  In the pair, printable ASCII but
    '%' stands for itself and any other byte is written %XX.

    The lines are built 1,024 at a time (``_TEXT_CHUNK_ROWS``) as a grid
    of 138-byte rows in one reused bytearray, a column at a time: every
    field sits at its widest, padded with 0x00, a byte no line holds
    since every other byte is escaped.  The constant columns come from
    one template row.  The row-number digits and the address coordinates
    are slices of periodic strips, with 0x00 for leading zeros; the
    pair's columns are ``bytes.translate`` of its bytes, and its second
    escape is padded with spaces.  A pad column per column that may hold
    0x00 gives every row the same 0x00 count, so one translate that
    deletes them gives each chunk's exact 128-byte lines, written with
    one ``sink.write``.
    """
    rows = _TEXT_CHUNK_ROWS
    width = _GRID_WIDTH
    # (grid offset, place value, strip, period) of each row-number digit;
    # its strip is indexed by the number, r + 1
    number = [(4 - e, 10**e, *_strip(b"0123456789", 10**e)) for e in range(5)]
    # (grid offset, tens strip, units strip, period) of each coordinate, 1..16
    tens_symbols, units_symbols = b"\0" * 9 + b"1" * 7, b"1234567890123456"
    address = [
        (6 + 3 * k, _strip(tens_symbols, stride)[0], *_strip(units_symbols, stride))
        for k, stride in enumerate((4096, 256, 16, 1))
    ]
    # Translate tables of an escape's three bytes: a byte that stands for
    # itself, then fill twice; any other byte, %XX.
    printable = [32 <= b <= 126 and b != _ESCAPE_MARK for b in range(256)]

    def escape(fill):
        return (
            bytes(b if p else _ESCAPE_MARK for b, p in enumerate(printable)),
            bytes(fill if p else b"0123456789ABCDEF"[b >> 4] for b, p in enumerate(printable)),
            bytes(fill if p else b"0123456789ABCDEF"[b & 15] for b, p in enumerate(printable)),
        )

    first, second = escape(0), escape(ord(" "))  # only spaces follow the second

    buf = bytearray(_GRID_TEMPLATE * rows)
    originals = tt.originals
    written = 0
    for r0 in range(0, TT_ROWS, rows):
        blanks = []  # the columns that may hold 0x00, in pad order
        n0 = r0 + 1
        for offset, place, strip, period in number:
            at = n0 % period
            column = strip[at : at + rows]
            if n0 < place:  # leading zeros
                column = bytes(min(place - n0, rows)) + column[place - n0 :]
            buf[offset::width] = column
            if place > 1:
                blanks.append(column)
        for offset, tens, units, period in address:
            at = r0 % period
            buf[offset::width] = column = tens[at : at + rows]
            buf[offset + 1 :: width] = units[at : at + rows]
            blanks.append(column)
        x = originals[2 * r0 : 2 * (r0 + rows) : 2]
        y = originals[2 * r0 + 1 : 2 * (r0 + rows) : 2]
        pair = [x.translate(t) for t in first] + [y.translate(t) for t in second]
        for k, column in enumerate(pair):
            buf[_GRID_PAIR + k :: width] = column
        blanks += pair[1:3]  # 0x00 where the first byte stands for itself
        for k, column in enumerate(blanks):
            buf[_GRID_PAD + k :: width] = column.translate(_SPACE_WHERE_NUL)
        try:
            written += sink.write(buf.translate(None, b"\0"))
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
        sink.write(buf)
    except OSError as exc:
        raise TtError(f"binary serialization failed: {exc}") from exc
    return len(buf)


def load_binary(source, layout="interleaved"):
    """Exact inverse of serialize_binary.

    Addresses are recomputed from row numbers, never stored.  The 65,536
    records must be in row order: their row and pair columns are sliced
    out whole, and a row column that differs from ``addressing.ALL_ROWS``
    names its first misplaced record by halving.  Raises
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
    rows, originals = bytearray(2 * TT_ROWS), bytearray(2 * TT_ROWS)
    rows[0::2], rows[1::2] = data[5::4], data[6::4]
    originals[0::2], originals[1::2] = data[7::4], data[8::4]
    if rows != addressing.ALL_ROWS:
        n = addressing.first_difference(rows, addressing.ALL_ROWS) // 2
        row = int.from_bytes(rows[2 * n : 2 * n + 2], "big")
        raise TtFormatError(
            f"record {n} holds row {row}, expected row {n}", offset=5 + n * _RECORD_BYTES
        )
    return TranslationTable(originals, layout)


class TtSet4(TranslationTable):
    """The 4-TT mode's table: four copies of one table, which it then is.

    The four tables must be equal; the set is their one mapping and holds
    the first table's records, so a set of verified tables holds the
    canonical pair table and is not verified again.
    """

    def __init__(self, tables):
        tables = tuple(tables)
        if len(tables) != 4:
            raise TtError(f"need exactly 4 tables, got {len(tables)}")
        first = tables[0]
        if not all(t == first for t in tables[1:]):
            raise TtError("the 4 tables of a set must be identical")
        super().__init__(first.originals, first.layout)

    @classmethod
    def canonical(cls, layout="interleaved"):
        tt = generate_tt(layout)
        return cls((tt, tt, tt, tt))

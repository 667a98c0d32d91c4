"""Mapping between 2-byte pairs, 4D flag addresses and linear rows.

Each byte canonically factors into an (ip-combo, zn-combo) pair; the
1-based positions of those combos in their listed alphabets are the
address coordinates.  A pair of bytes therefore yields four coordinates
(i, j, k, l), each in 1..16, linearized into a row in 0..65535 with l
varying fastest.  The whole chain is a bijection on 16-bit inputs.

Two coordinate layouts are supported and must simply be used
consistently end to end:

    interleaved (default): (ip(x), zn(x), ip(x2), zn(x2))
    grouped:               (ip(x), ip(x2), zn(x), zn(x2))

Closed form.  With 0-based coordinates ip[b] = ip(b) - 1 and
zn[b] = zn(b) - 1, each row nibble is one coordinate, so

    interleaved:  row(x, x2) == F[x] << 8 | F[x2],  F[b] = ip[b] << 4 | zn[b]
    grouped:      row(x, x2) == ip[x] << 12 | ip[x2] << 8 | zn[x] << 4 | zn[x2]

F is a permutation of the 256 byte values.  The grouped row is the
interleaved row with its two middle nibbles swapped, a swap that is its
own inverse.  A "row stream" holds each row as 2 big-endian bytes, so
the interleaved row stream of an even-length input is the input
translated through F, and decoding translates it back through F's
inverse.  Both return bytes, built a chunk at a time (_translate), and
the grouped layout swaps each chunk's nibbles in the same pass: after
its translate when encoding, before it when decoding.  An odd last byte
is never translated: encoding leaves it out and decoding appends it.  F
is a literal here and, with its inverse derived from it once, the only
copy of the byte coordinates: decoding translates through them, never
through a translation table, and the scalar functions below, the
kernel's tested reference, read F's nibbles and inverse.

Every entry point takes any buffer as its bytes, by one of two rules
kept here: as_bytes takes a snapshot, for an input that is kept, and
as_view a byte view, for one that is only read.
"""

import sys
from collections import namedtuple

ROWS = 65536
LAYOUTS = ("interleaved", "grouped")
# The artifacts' modes and formats, named here, where every command can
# read them without loading the codec: gridfile and codec re-export them.
MODES = MODE_1TT, MODE_4TT = ("1tt", "4tt")
FORMATS = FORMAT_PAPER, FORMAT_HONEST = ("paper", "honest")

FlagAddress = namedtuple("FlagAddress", "i j k l")


# The byte kernel.  F maps a byte to the interleaved row byte of its
# coordinates, (ip - 1) << 4 | (zn - 1); a test derives each byte of this
# literal again from pairops.canonical_factor, which no fbar process imports.
_F = bytes.fromhex(
    "ffeceffcde777ed7df7c7fdcfee7eef7"
    "cd888dc8aa444aa4ad484da8ca848ac4"
    "cf8c8fccae474ea7af4c4facce878ec7"
    "fde8edf8da747ad4dd787dd8fae4eaf4"
    "bb666bb6993339939b363b96b96369b3"
    "55222552110001101502051251202150"
    "5b262b56190309131b060b1659232953"
    "b56265b29130319095323592b16061b0"
    "bf6c6fbc9e373e979f3c3f9cbe676eb7"
    "5d282d581a040a141d080d185a242a54"
    "5f2c2f5c1e070e171f0c0f1c5e272e57"
    "bd686db89a343a949d383d98ba646ab4"
    "fbe6ebf6d97379d3db767bd6f9e3e9f3"
    "c58285c2a14041a0a54245a2c18081c0"
    "cb868bc6a94349a3ab464ba6c98389c3"
    "f5e2e5f2d17071d0d57275d2f1e0e1f0"
)
_F_INV = bytes.maketrans(_F, bytes(range(256)))  # maps each F[b] back to b

# Every whole-stream translate reads this many bytes at a time (_translate).
# bytearray.translate skips the per-byte test of whether anything changed
# that bytes.translate makes, so it runs faster, but only on a bytearray.
# One stream-sized bytearray copy would be freed and handed back to the OS
# by the allocator and faulted in again on the next call; a chunk this
# size is reused from the heap.
_TRANSLATE_CHUNK = 65536


def as_bytes(data):
    """The snapshot rule of every entry point that keeps an input, kept
    where each module can import it: ``data`` itself when it is bytes,
    else one copy of its buffer's bytes; a non-buffer raises TypeError."""
    return data if type(data) is bytes else memoryview(data).tobytes()


def as_view(data):
    """The read rule of every entry point that only reads an input: a
    view of its buffer's bytes, of one copy when the buffer is not
    C-contiguous; a non-buffer raises TypeError."""
    view = memoryview(data)
    return view.cast("B") if view.c_contiguous else memoryview(view.tobytes())


def _check_layout(layout):
    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}; expected one of {LAYOUTS}")


def first_difference(got, want, start=0):
    """Index of the first byte at or after ``start`` where two byte strings
    differ, found by halving; the shorter length when they agree up to it."""
    lo, hi = start, min(len(got), len(want))  # got[start:lo] == want[start:lo]; it is <= hi
    while lo < hi:
        mid = (lo + hi) // 2
        if got[lo : mid + 1] == want[lo : mid + 1]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def address_of_pair(x, x2, layout="interleaved"):
    """4D flag address of a 2-byte pair: the nibbles of F[x] and F[x2], 1-based."""
    _check_layout(layout)
    if not (0 <= x <= 255 and 0 <= x2 <= 255):
        raise ValueError(f"not a byte pair: {(x, x2)!r}")
    (i, j), (k, l) = divmod(_F[x], 16), divmod(_F[x2], 16)
    if layout == "grouped":
        j, k = k, j
    return FlagAddress(i + 1, j + 1, k + 1, l + 1)


def row_of_address(address):
    """Zero-based linear row of an address, l fastest-varying."""
    i, j, k, l = address
    if not all(1 <= coord <= 16 for coord in (i, j, k, l)):
        raise ValueError(f"coordinate out of range 1..16: {address}")
    return (i - 1) * 4096 + (j - 1) * 256 + (k - 1) * 16 + (l - 1)


def address_of_row(row):
    """Inverse of row_of_address."""
    if not 0 <= row < ROWS:
        raise ValueError(f"row out of range 0..65535: {row!r}")
    i, rest = divmod(row, 4096)
    j, rest = divmod(rest, 256)
    k, l = divmod(rest, 16)
    return FlagAddress(i + 1, j + 1, k + 1, l + 1)


def pair_of_row(row, layout="interleaved"):
    """Recover the 2-byte pair stored at a row; exact inverse of row_of_pair."""
    _check_layout(layout)
    i, j, k, l = address_of_row(row)
    if layout == "grouped":
        j, k = k, j
    return _F_INV[(i - 1) << 4 | (j - 1)], _F_INV[(k - 1) << 4 | (l - 1)]


def row_of_pair(x, x2, layout="interleaved"):
    return row_of_address(address_of_pair(x, x2, layout))


def _all_rows():
    stream = bytearray(2 * ROWS)
    stream[0::2] = b"".join(bytes((a,)) * 256 for a in range(256))
    stream[1::2] = bytes(range(256)) * 256
    return bytes(stream)


# Rows 0..65535 as a row stream; read as pairs, it is every pair in
# (x << 8 | x2) order.
ALL_ROWS = _all_rows()


def _swapped(chunk, mask):
    """``chunk``'s rows, middle nibbles swapped: ``t`` marks where they
    differ, and XOR-ing in ``t * 17``, ``t`` at both places, swaps them."""
    words = int.from_bytes(chunk, "big")
    t = (words >> 4 ^ words) & mask
    return (words ^ t * 17).to_bytes(len(chunk), "big")


def _translate(data, table, suffix=b"", swap=None):
    """``bytes(data).translate(table) + suffix`` as bytes, for any buffer
    read as its bytes.

    Each _TRANSLATE_CHUNK bytes are copied into a bytearray and translated
    there, and the chunks are joined once.  ``swap`` "after" or "before"
    swaps each chunk's nibbles after or before its translate, through a
    mask of one chunk at most, which fits a shorter last chunk too.
    """
    view = as_view(data)  # a slice of bytes would be copied once more
    if swap:
        mask = int.from_bytes(b"\x00\xf0" * (min(len(view), _TRANSLATE_CHUNK) // 2), "big")
    chunks = []
    for at in range(0, len(view), _TRANSLATE_CHUNK):
        chunk = view[at : at + _TRANSLATE_CHUNK]
        chunk = bytearray(_swapped(chunk, mask) if swap == "before" else chunk).translate(table)
        chunks.append(_swapped(chunk, mask) if swap == "after" else chunk)
    chunks.append(suffix)
    return b"".join(chunks)


def encode_stream(data, layout="interleaved"):
    """Row stream of every complete pair of ``data``, as bytes; an odd last
    byte is left out, and only the pairs are translated."""
    data = as_view(data)
    _check_layout(layout)
    even = data[: len(data) - len(data) % 2]
    return _translate(even, _F, swap="after" if layout == "grouped" else None)


def decode_stream(stream, layout="interleaved", tail=None):
    """Pairs of a row stream, any buffer read as its bytes, then ``tail``,
    the odd last byte, when given; exact inverse of encode_stream."""
    if tail is not None and not 0 <= tail <= 255:
        raise ValueError(f"not a tail byte: {tail!r}")
    stream = as_view(stream)
    _check_layout(layout)
    if len(stream) % 2:
        raise ValueError(f"row stream of odd length {len(stream)}")
    suffix = b"" if tail is None else bytes((tail,))
    return _translate(stream, _F_INV, suffix, "before" if layout == "grouped" else None)


def row_array(stream):
    """Row numbers of a row stream, as an array('H')."""
    from array import array  # imported on first use: gen-tt and audit never load it

    words = array("H")
    words.frombytes(stream)
    if sys.byteorder == "little":
        words.byteswap()
    return words


def row_table(layout="interleaved"):
    """List mapping (x << 8 | x2) -> row for all 65,536 pairs."""
    return row_array(encode_stream(ALL_ROWS, layout)).tolist()


# Each layout's pair table, built by the first pair_table call for it.
_PAIR_TABLES = {}


def pair_table(layout="interleaved"):
    """Bytes of length 131,072 mapping row -> its original 2-byte pair.

    Built once per layout and kept: every call for a layout returns the
    same immutable buffer.
    """
    _check_layout(layout)
    if layout not in _PAIR_TABLES:
        _PAIR_TABLES[layout] = decode_stream(ALL_ROWS, layout)
    return _PAIR_TABLES[layout]

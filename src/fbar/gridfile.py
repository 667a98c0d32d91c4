"""Grid artifact serialization: the compressed file formats.

Paper-style format (magic FBGR): header, a fixed 64 KiB grid region, an
occupant-char stream with block separators, an explicit address channel
(2 bytes per row) and an optional odd-byte tail.  The occupant stream
is the nominally accounted payload; the address channel is what
actually makes the artifact decodable and is reported as the honest
payload, never hidden.

Honest format (magic FBHN): header, the row stream, the tail.  Nothing
else; decodable with a translation table alone.

Inside the occupant stream, the n-th unit of a block is tagged with the
n-th character of the 95-char occupant alphabet, so each char encodes
its within-block ordinal.  A control byte (cycling 1..31) closes every
complete 95-unit block; a block also closes early when a unit's row
would land on a slot already occupied in the current block's region.
The grid region holds the chars of the last block at its rows' slots.

Rows come in and go out only as a row stream (2 big-endian bytes per
row, the address channel's bytes): the writers take one, and the
parsers take the artifact's bytes and return one.

One routine (_render) lays out the occupant stream from the unit count
of each block, and one (_region) the grid region from the last block's
rows.  The writer finds the block lengths with one 65,536-slot table of
the block that last placed each row, indexed by the row as a native
16-bit word.  The parser checks that the occupant stream is _render's
output for its own blocks (by its distinct blocks, not by rendering
again) but does not derive the lengths from the rows: an early restart
without a collision, or a repeated row inside a 1tt block, still parses.
"""

from collections import namedtuple
from itertools import cycle
from operator import getitem

from . import addressing
from .transtable import OCCUPANT_ALPHABET

GRID_MAGIC = b"FBGR"
HONEST_MAGIC = b"FBHN"
VERSION = 1
GRID_REGION_BYTES = 65536
BLOCK_UNITS = 95
SEPARATOR_CODES = tuple(range(1, 32))
TAIL_MARKER = 0x00

MODE_1TT = "1tt"
MODE_4TT = "4tt"
_MODE_BYTES = {MODE_1TT: 1, MODE_4TT: 4}
_MODE_NAMES = {v: k for k, v in _MODE_BYTES.items()}

_HEADER_LEN = 4 + 1 + 1 + 8  # magic, version, mode, pair count
HONEST_OVERHEAD = 4 + 1 + 8 + 1  # magic, version, pair count, tail length

_SEPARATORS = [bytes((code,)) for code in SEPARATOR_CODES]
# _CHARS[n]: the chars of an n-unit block; _PIECES[k][n]: those chars,
# then the cycle's k-th separator.
_CHARS = [OCCUPANT_ALPHABET[:n] for n in range(BLOCK_UNITS + 1)]
_PIECES = [[chars + sep for chars in _CHARS] for sep in _SEPARATORS]
# Blocks are joined a slice of whole separator cycles at a time: a join
# allocates an 80-byte record per piece, which for a stream of one-unit
# blocks would be 40 times the stream itself.
_CHUNK = len(_PIECES) * 128
# Every byte below 32 is read as a separator; translating them all to
# one marker lets a split find the blocks.
_MARK = b"\x00"
_NOT_SEPARATORS = bytes(range(32, 256))
_MARK_SEPARATORS = bytes(32) + _NOT_SEPARATORS
_CYCLE = bytes(SEPARATOR_CODES)
_PREFIXES = frozenset(_CHARS[1:])


class GridFormatError(Exception):
    """Malformed artifact; names the byte offset and block when known."""

    def __init__(self, message, offset=None, block=None):
        self.offset = offset
        self.block = block
        parts = [message]
        if offset is not None:
            parts.append(f"at byte offset {offset}")
        if block is not None:
            parts.append(f"in block {block}")
        super().__init__(" ".join(parts))


class GridArtifact(namedtuple(
    "GridArtifact",
    "mode pair_count occupant_len separator_count block_count collision_restarts "
    "address_len tail_len total_len",
)):
    """Writer summary: what went into each channel of one artifact.

    occupant_len counts the occupant chars and the separators: the
    nominal, paper-accounted size.
    """

    __slots__ = ()

    @property
    def honest_payload_size(self):
        """Bytes actually required to decode: address channel plus tail."""
        return self.address_len + self.tail_len


# stream: the row stream; tail: the odd last byte, or None.
ParsedHonest = namedtuple("ParsedHonest", "stream tail")
# block_count: the number of blocks in the occupant stream.
ParsedGrid = namedtuple("ParsedGrid", "stream tail mode block_count")


def _tail_bytes(tail):
    """The serialized tail: nothing, or the marker and the odd last byte."""
    if tail is None:
        return b""
    if not 0 <= tail <= 0xFF:
        raise ValueError(f"tail byte out of range: {tail!r}")
    return bytes((TAIL_MARKER, tail))


def _unit_count(pair_count, mode):
    """Units of a stream of ``pair_count`` rows: one row each, or four (the last maybe fewer)."""
    return pair_count if mode == MODE_1TT else -(-pair_count // 4)


def _pair_count(stream):
    """Rows in a row stream; ValueError unless it holds whole rows."""
    if len(stream) % 2:
        raise ValueError(f"row stream of odd length {len(stream)}")
    return len(stream) // 2


def _emit(sink, out):
    try:
        sink.write(bytes(out))
    except OSError as exc:
        raise GridFormatError(f"sink write failed: {exc}") from exc


def _block_lengths(stream, mode):
    """Unit count of each block the writer lays out, in stream order.

    A block closes after 95 units, or early, before a unit with a row
    that an earlier unit placed in the block (a collision restart).
    last[w] is the number of the block that last placed the row read as
    native 16-bit word w, so a unit collides exactly when one of its
    slots holds the current block's number.  A 4tt unit is checked whole
    before it is marked: a row repeated inside one unit is no collision.
    """
    per_unit = 1 if mode == MODE_1TT else 4
    partial = len(stream) // 2 % per_unit
    if partial:  # fill a partial last unit up with its first row, which cannot collide
        stream = bytes(stream) + bytes(stream[-2 * partial :][:2]) * (per_unit - partial)
    words = memoryview(stream).cast("B").cast("H")  # a collision needs no byte order
    last = [-1] * 65536
    lengths = []
    block = n = 0  # the current block's number and its units so far
    if per_unit == 1:
        for w in words:
            if n == BLOCK_UNITS or last[w] == block:
                lengths.append(n)
                block, n = block + 1, 0
            last[w] = block
            n += 1
    else:
        for w0, w1, w2, w3 in zip(words[0::4], words[1::4], words[2::4], words[3::4]):
            if n == BLOCK_UNITS or last[w0] == block or last[w1] == block or last[w2] == block \
                    or last[w3] == block:
                lengths.append(n)
                block, n = block + 1, 0
            last[w0] = last[w1] = last[w2] = last[w3] = block
            n += 1
    if n:
        lengths.append(n)
    return lengths


def _render(block_units):
    """The occupant stream of blocks of ``block_units`` units, each count in 1..95.

    Every block but the last is closed by the next separator of the
    cycle; the last keeps its separator only when it is full.
    """
    chunks = (block_units[at : at + _CHUNK] for at in range(0, len(block_units), _CHUNK))
    occupant = b"".join([b"".join(map(getitem, cycle(_PIECES), chunk)) for chunk in chunks])
    return occupant[:-1] if block_units and block_units[-1] < BLOCK_UNITS else occupant


def _region(stream, mode, first, units):
    """The grid region: the chars of ``units`` units from unit ``first`` at their rows."""
    per_unit = 1 if mode == MODE_1TT else 4
    region = bytearray(GRID_REGION_BYTES)
    rows = addressing.row_array(stream[2 * per_unit * first : 2 * per_unit * (first + units)])
    for i, r in enumerate(rows):
        region[r] = OCCUPANT_ALPHABET[i // per_unit]
    return region


def write_grid(stream, mode, sink, tail=None):
    """Write a paper-style artifact; returns a GridArtifact summary.

    ``stream`` is the row stream, any bytes-like object; it becomes the
    address channel as it is.  ValueError if its length is odd.
    """
    if mode not in _MODE_BYTES:
        raise ValueError(f"unknown mode {mode!r}")
    pair_count = _pair_count(stream)
    tail_bytes = _tail_bytes(tail)

    lengths = _block_lengths(stream, mode)
    units = _unit_count(pair_count, mode)
    last = lengths[-1] if lengths else 0
    occupant = _render(lengths)

    out = bytearray()
    out += GRID_MAGIC
    out.append(VERSION)
    out.append(_MODE_BYTES[mode])
    out += pair_count.to_bytes(8, "big")
    out += _region(stream, mode, units - last, last)
    out += len(occupant).to_bytes(8, "big")
    out += occupant
    out += len(stream).to_bytes(8, "big")
    out += stream
    out.append(len(tail_bytes))
    out += tail_bytes
    _emit(sink, out)
    separators = len(occupant) - units
    return GridArtifact(
        mode=mode,
        pair_count=pair_count,
        occupant_len=len(occupant),
        separator_count=separators,
        block_count=len(lengths),
        # every full block holds the last alphabet char once and keeps its separator
        collision_restarts=separators - occupant.count(OCCUPANT_ALPHABET[-1]),
        address_len=len(stream),
        tail_len=len(tail_bytes),
        total_len=len(out),
    )


def write_honest(stream, sink, tail=None):
    """Write a self-contained artifact from a row stream; returns bytes written."""
    pair_count = _pair_count(stream)
    tail_bytes = _tail_bytes(tail)
    out = bytearray()
    out += HONEST_MAGIC
    out.append(VERSION)
    out += pair_count.to_bytes(8, "big")
    out += stream
    out.append(len(tail_bytes))
    out += tail_bytes
    _emit(sink, out)
    return len(out)


class _Reader:
    def __init__(self, data):
        self.data = data
        self.off = 0

    def take(self, n, what):
        if len(self.data) - self.off < n:
            raise GridFormatError(f"truncated in {what}", offset=len(self.data))
        chunk = self.data[self.off : self.off + n]
        self.off += n
        return chunk


def _open(data, magic):
    """Reader over the artifact, positioned after its checked magic and version."""
    reader = _Reader(bytes(data))
    found = reader.take(4, "magic")
    if found != magic:
        raise GridFormatError(f"bad magic {bytes(found)!r}", offset=0)
    version = reader.take(1, "version")[0]
    if version != VERSION:
        raise GridFormatError(f"unsupported version {version}", offset=4)
    return reader


def _read_tail(reader):
    """The optional odd-byte tail, which must end the artifact."""
    tail_start = reader.off
    tail_len = reader.take(1, "tail length")[0]
    tail = None
    if tail_len:
        if tail_len != 2:
            raise GridFormatError(f"bad tail length {tail_len}", offset=tail_start)
        tail_bytes = reader.take(2, "tail")
        if tail_bytes[0] != TAIL_MARKER:
            raise GridFormatError(
                f"bad tail marker {tail_bytes[0]:#04x}", offset=tail_start + 1
            )
        tail = tail_bytes[1]
    if reader.off != len(reader.data):
        raise GridFormatError("trailing garbage after tail", offset=reader.off)
    return tail


def _canonical_blocks(occupant):
    """(block count, units, last block's units) when the occupant stream is
    exactly _render's output for the blocks its separators delimit, else None."""
    blocks = occupant.translate(_MARK_SEPARATORS).split(_MARK)
    closed = not blocks[-1]  # the stream ends with a separator, or is empty
    if closed:
        blocks.pop()
    last = len(blocks[-1]) if blocks else 0
    separators = occupant.translate(None, _NOT_SEPARATORS)
    cycles, rest = divmod(len(separators), len(_CYCLE))
    if (_PREFIXES.issuperset(blocks) and separators == _CYCLE * cycles + _CYCLE[:rest]
            and (closed == (last == BLOCK_UNITS) or not occupant)):
        return len(blocks), len(occupant) - len(separators), last
    return None


def _claimed_block_units(occupant, base_offset):
    """Unit count of each block as the occupant stream's separators delimit it.

    A separator that ends the stream closes the last block.  Raises
    GridFormatError on an empty block or one longer than 95 units.
    """
    lengths = list(map(len, occupant.translate(_MARK_SEPARATORS).split(_MARK)))
    if lengths[-1] == 0:
        lengths.pop()

    if 0 in lengths or max(lengths, default=0) > BLOCK_UNITS:
        block = next(n for n, k in enumerate(lengths) if not 0 < k <= BLOCK_UNITS)
        offset = base_offset + sum(lengths[:block]) + block
        if lengths[block]:
            raise GridFormatError(
                "missing block separator after 95 occupant chars",
                offset=offset + BLOCK_UNITS,
                block=block,
            )
        raise GridFormatError(
            "separator without preceding occupant chars", offset=offset, block=block
        )
    return lengths


def _first_difference(got, want):
    """Index of the first byte where two unequal byte strings differ, found by halving."""
    lo, hi = 0, min(len(got), len(want))  # got[:lo] == want[:lo]; it is at most hi
    while lo < hi:
        mid = (lo + hi) // 2
        if got[lo : mid + 1] == want[lo : mid + 1]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _occupant_mismatch(got, want, base_offset):
    """The error for an occupant stream that differs from its rendering."""
    i = _first_difference(got, want)
    if i == len(got):
        what = f"missing separator code {want[i]} after a full final block"
    elif i == len(want):
        what = f"separator code {got[i]} after a partial final block"
    elif want[i] < 32:
        what = f"separator code {got[i]} does not match cycle value {want[i]}"
    else:
        what = (
            f"occupant ordinal gap: char {got[i]:#04x} where {want[i]:#04x} "
            f"(ordinal {OCCUPANT_ALPHABET.index(want[i]) + 1}) was expected"
        )
    block = want[:i].translate(_MARK_SEPARATORS).count(_MARK)
    return GridFormatError(what, offset=base_offset + i, block=block)


def parse_grid(data):
    """Parse a paper-style artifact's bytes; exact inverse of write_grid.

    Accepts the occupant stream only when it is exactly _render's output
    for its own blocks, and the region only when it is _region of the
    last block.  Raises GridFormatError naming offset and block on any
    defect: bad magic, separator or ordinal mismatches, channel length
    mismatches, inconsistent grid region, trailing garbage.
    """
    reader = _open(data, GRID_MAGIC)
    mode_byte = reader.take(1, "mode")[0]
    parsed_mode = _MODE_NAMES.get(mode_byte)
    if parsed_mode is None:
        raise GridFormatError(f"unknown mode byte {mode_byte}", offset=5)
    pair_count = int.from_bytes(reader.take(8, "pair count"), "big")

    region = reader.take(GRID_REGION_BYTES, "grid region")

    occ_len = int.from_bytes(reader.take(8, "occupant length"), "big")
    occ_start = reader.off
    occupant = reader.take(occ_len, "occupant stream")
    canonical = _canonical_blocks(occupant)
    # a rejected stream is rendered from its claimed lengths to name its first defect
    block_units = None if canonical else _claimed_block_units(occupant, occ_start)

    addr_len = int.from_bytes(reader.take(8, "address length"), "big")
    addr_start = reader.off
    if addr_len != 2 * pair_count:
        raise GridFormatError(
            f"address channel length {addr_len} does not match "
            f"{2 * pair_count} for {pair_count} pairs",
            offset=addr_start,
        )
    address = reader.take(addr_len, "address channel")

    tail = _read_tail(reader)

    if canonical is None:
        raise _occupant_mismatch(occupant, _render(block_units), occ_start)
    block_count, units_seen, last = canonical
    units_expected = _unit_count(pair_count, parsed_mode)
    if units_seen != units_expected:
        raise GridFormatError(
            f"occupant stream holds {units_seen} units, header implies "
            f"{units_expected}",
            offset=occ_start,
        )
    want_region = _region(address, parsed_mode, units_seen - last, last)
    if region != want_region:
        slot = _first_difference(region, want_region)
        raise GridFormatError(
            f"grid region inconsistent with channels: slot {slot} holds "
            f"{region[slot]:#04x}, {want_region[slot]:#04x} expected",
            offset=_HEADER_LEN + slot,
            block=block_count - 1 if block_count else None,
        )

    return ParsedGrid(
        stream=address, tail=tail, mode=parsed_mode, block_count=block_count
    )


def parse_honest(data):
    """Parse a self-contained artifact's bytes; exact inverse of write_honest."""
    reader = _open(data, HONEST_MAGIC)
    pair_count = int.from_bytes(reader.take(8, "pair count"), "big")
    body = reader.take(2 * pair_count, "row stream")
    tail = _read_tail(reader)
    return ParsedHonest(stream=body, tail=tail)


def artifact_kind(data):
    """Classify raw artifact bytes by magic: 'paper', 'honest' or None."""
    if data[:4] == GRID_MAGIC:
        return "paper"
    if data[:4] == HONEST_MAGIC:
        return "honest"
    return None


def occupant_stream(data):
    """Raw occupant stream of paper-format bytes; checks magic and truncation only."""
    if data[:4] != GRID_MAGIC:
        raise GridFormatError(f"bad magic {bytes(data[:4])!r}", offset=0)
    reader = _Reader(data)
    reader.take(_HEADER_LEN + GRID_REGION_BYTES, "header and grid region")
    occ_len = int.from_bytes(reader.take(8, "occupant length"), "big")
    return bytes(reader.take(occ_len, "occupant stream"))

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
"""

from dataclasses import dataclass
from typing import Optional

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


@dataclass
class GridArtifact:
    """Writer summary: what went into each channel of one artifact."""

    mode: str
    pair_count: int
    occupant_len: int  # occupant chars + separators
    separator_count: int
    block_count: int
    collision_restarts: int
    address_len: int
    tail_len: int
    total_len: int

    @property
    def paper_accounted_size(self):
        """Nominal size: the occupant stream alone."""
        return self.occupant_len

    @property
    def honest_payload_size(self):
        """Bytes actually required to decode: address channel plus tail."""
        return self.address_len + self.tail_len


@dataclass
class ParsedHonest:
    stream: bytes  # the rows, 2 big-endian bytes each
    tail: Optional[int]

    @property
    def rows(self):
        """The row numbers as a list, built on each access."""
        return addressing.row_array(self.stream).tolist()


@dataclass
class ParsedGrid(ParsedHonest):
    mode: str
    block_units: list  # unit count per block, in stream order


def _units_of(rows, mode):
    if mode == MODE_1TT:
        return [(r,) for r in rows]
    return [tuple(rows[i : i + 4]) for i in range(0, len(rows), 4)]


def _tail_bytes(tail):
    """The serialized tail: nothing, or the marker and the odd last byte."""
    if tail is None:
        return b""
    if not 0 <= tail <= 0xFF:
        raise ValueError(f"tail byte out of range: {tail!r}")
    return bytes((TAIL_MARKER, tail))


def _emit(sink, out):
    try:
        sink.write(bytes(out))
    except OSError as exc:
        raise GridFormatError(f"sink write failed: {exc}") from exc


def _layout_blocks(units):
    """Assign units to blocks and occupant chars, restarting on collisions.

    Returns (occupant stream bytes, final block cells, separator count,
    block count, collision restarts).
    """
    occupant = bytearray()
    occupied = set()
    current_cells = []
    last_cells = []
    block_len = 0
    sep_count = 0
    blocks = 0
    restarts = 0

    def close_block():
        nonlocal block_len, sep_count, current_cells, last_cells
        occupant.append(SEPARATOR_CODES[sep_count % len(SEPARATOR_CODES)])
        sep_count += 1
        last_cells = current_cells
        current_cells = []
        occupied.clear()
        block_len = 0

    for unit in units:
        if block_len and any(r in occupied for r in unit):
            close_block()
            restarts += 1
        if block_len == 0:
            blocks += 1
        char = OCCUPANT_ALPHABET[block_len]
        occupant.append(char)
        for r in unit:
            occupied.add(r)
            current_cells.append((r, char))
        block_len += 1
        if block_len == BLOCK_UNITS:
            close_block()

    final_cells = current_cells if current_cells else last_cells
    return bytes(occupant), final_cells, sep_count, blocks, restarts


def write_grid(rows, mode, sink, tail=None):
    """Write a paper-style artifact; returns a GridArtifact summary."""
    if mode not in _MODE_BYTES:
        raise ValueError(f"unknown mode {mode!r}")
    rows = list(rows)
    address = addressing.row_stream(rows)
    tail_bytes = _tail_bytes(tail)

    occupant, final_cells, sep_count, blocks, restarts = _layout_blocks(
        _units_of(rows, mode)
    )
    region = bytearray(GRID_REGION_BYTES)
    for r, char in final_cells:
        region[r] = char

    out = bytearray()
    out += GRID_MAGIC
    out.append(VERSION)
    out.append(_MODE_BYTES[mode])
    out += len(rows).to_bytes(8, "big")
    out += region
    out += len(occupant).to_bytes(8, "big")
    out += occupant
    out += len(address).to_bytes(8, "big")
    out += address
    out.append(len(tail_bytes))
    out += tail_bytes
    _emit(sink, out)
    return GridArtifact(
        mode=mode,
        pair_count=len(rows),
        occupant_len=len(occupant),
        separator_count=sep_count,
        block_count=blocks,
        collision_restarts=restarts,
        address_len=len(address),
        tail_len=len(tail_bytes),
        total_len=len(out),
    )


def write_honest(rows, sink, tail=None):
    """Write a self-contained artifact; returns bytes written."""
    stream = addressing.row_stream(rows)
    tail_bytes = _tail_bytes(tail)
    out = bytearray()
    out += HONEST_MAGIC
    out.append(VERSION)
    out += (len(stream) // 2).to_bytes(8, "big")
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


def _open(source, magic):
    """Reader over the artifact, positioned after its checked magic and version."""
    reader = _Reader(source.read())
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


def _validate_occupant(occupant, base_offset):
    """Check separator cycling and per-block ordinal consecutiveness.

    Returns the unit count per block (trailing partial block included).
    """
    blocks = []
    in_block = 0
    sep_seen = 0
    for idx, byte in enumerate(occupant):
        offset = base_offset + idx
        if byte < 32:
            if in_block == 0:
                raise GridFormatError(
                    "separator without preceding occupant chars",
                    offset=offset,
                    block=len(blocks),
                )
            expected = SEPARATOR_CODES[sep_seen % len(SEPARATOR_CODES)]
            if byte != expected:
                raise GridFormatError(
                    f"separator code {byte} does not match cycle value {expected}",
                    offset=offset,
                    block=len(blocks),
                )
            sep_seen += 1
            blocks.append(in_block)
            in_block = 0
        else:
            if in_block >= BLOCK_UNITS:
                raise GridFormatError(
                    "missing block separator after 95 occupant chars",
                    offset=offset,
                    block=len(blocks),
                )
            expected = OCCUPANT_ALPHABET[in_block]
            if byte != expected:
                raise GridFormatError(
                    f"occupant ordinal gap: char {byte:#04x} where "
                    f"{expected:#04x} (ordinal {in_block + 1}) was expected",
                    offset=offset,
                    block=len(blocks),
                )
            in_block += 1
    if in_block:
        blocks.append(in_block)
    return blocks


def _expected_region(stream, mode, block_units):
    """Rebuild the final block's region cells from parsed structure."""
    region = bytearray(GRID_REGION_BYTES)
    if not block_units:
        return region
    rows_per_unit = 1 if mode == MODE_1TT else 4
    units = -(-len(stream) // (2 * rows_per_unit))
    first_row = (units - block_units[-1]) * rows_per_unit
    last_rows = addressing.row_array(stream[2 * first_row :])
    for n, unit in enumerate(_units_of(last_rows, mode)):
        char = OCCUPANT_ALPHABET[n]
        for r in unit:
            region[r] = char
    return region


def parse_grid(source, mode=None):
    """Parse a paper-style artifact; exact inverse of write_grid.

    Raises GridFormatError naming offset and block on any structural
    defect: bad magic, separator or ordinal mismatches, channel length
    mismatches, inconsistent grid region, trailing garbage.
    """
    reader = _open(source, GRID_MAGIC)
    mode_byte = reader.take(1, "mode")[0]
    parsed_mode = _MODE_NAMES.get(mode_byte)
    if parsed_mode is None:
        raise GridFormatError(f"unknown mode byte {mode_byte}", offset=5)
    if mode is not None and parsed_mode != mode:
        raise GridFormatError(
            f"artifact mode {parsed_mode} does not match requested {mode}", offset=5
        )
    pair_count = int.from_bytes(reader.take(8, "pair count"), "big")

    region = reader.take(GRID_REGION_BYTES, "grid region")

    occ_len = int.from_bytes(reader.take(8, "occupant length"), "big")
    occ_start = reader.off
    occupant = reader.take(occ_len, "occupant stream")
    block_units = _validate_occupant(occupant, occ_start)
    units_expected = pair_count if parsed_mode == MODE_1TT else -(-pair_count // 4)
    units_seen = sum(block_units)
    if units_seen != units_expected:
        raise GridFormatError(
            f"occupant stream holds {units_seen} units, header implies "
            f"{units_expected}",
            offset=occ_start,
        )

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

    if bytes(region) != bytes(_expected_region(address, parsed_mode, block_units)):
        raise GridFormatError("grid region inconsistent with channels", offset=14)

    return ParsedGrid(
        stream=bytes(address), tail=tail, mode=parsed_mode, block_units=block_units
    )


def parse_honest(source):
    """Parse a self-contained artifact; exact inverse of write_honest."""
    reader = _open(source, HONEST_MAGIC)
    pair_count = int.from_bytes(reader.take(8, "pair count"), "big")
    body = reader.take(2 * pair_count, "row stream")
    tail = _read_tail(reader)
    return ParsedHonest(stream=bytes(body), tail=tail)


def artifact_kind(data):
    """Classify raw artifact bytes by magic: 'paper', 'honest' or None."""
    if data[:4] == GRID_MAGIC:
        return "paper"
    if data[:4] == HONEST_MAGIC:
        return "honest"
    return None


def occupant_stream(data):
    """Extract the raw occupant stream from paper-format artifact bytes."""
    if data[:4] != GRID_MAGIC:
        raise GridFormatError(f"bad magic {bytes(data[:4])!r}", offset=0)
    start = _HEADER_LEN + GRID_REGION_BYTES
    occ_len = int.from_bytes(data[start : start + 8], "big")
    return bytes(data[start + 8 : start + 8 + occ_len])

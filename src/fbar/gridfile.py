"""Grid artifact serialization: the compressed file formats.

_PAPER_FIELDS (magic FBGR) and _HONEST_FIELDS (magic FBHN) declare the
two formats field by field, in one registry keyed by magic and version
(_FORMATS), for one packer (_pack) and one walker (_fields), which the
parsers and the tests share.  The paper format's occupant stream is the
nominally accounted payload; its address channel is what actually makes
the artifact decodable and is reported as the honest payload, never
hidden.
The honest format holds the row stream and the tail, nothing else, and
decodes with a translation table alone.

Inside the occupant stream, the n-th unit of a block is tagged with the
n-th character of the 95-char occupant alphabet, so each char encodes
its within-block ordinal.  A control byte (cycling 1..31) closes every
complete 95-unit block; a block also closes early when a unit's row
would land on a slot already occupied in the current block's region.
The grid region holds the chars of the last block at its rows' slots.

Rows come in and go out only as a row stream (2 big-endian bytes per
row, the address channel's bytes): the writers take one, and the
parsers take the artifact's bytes and return one.  A writer builds the
artifact with one join of its fields and returns it.
A parser reads its fields as slices of a snapshot it takes of the
artifact (no copy when given bytes), so the row stream it returns is a
read-only view of that snapshot: later changes to a mutable input do
not reach it.

One routine (_render) lays out the occupant stream from the unit count
of each block, and one (_region) the grid region from the last block's
rows.  A block holds at most 95 units, so the counts travel as bytes,
one byte per block, from the writer's layout to the render.  The writer
finds them with one 65,536-slot table of the block that last placed
each row, indexed by the row as a native 16-bit word.  A unit equal to
the one before it always starts a block, since the two collide: so the
writer reads the rows a span at a time, and a span that is one unit
repeated becomes that many one-unit blocks (a run of 0x01 bytes) with
only its first unit looked up, and _render emits each chunk of
one-unit blocks as one constant.  The parser checks each field as it
reads it, in file order.  It accepts the occupant stream when it is
_render's output for its own blocks, which it checks without rendering
again or making an object per block.  First it sets aside the copies
of that constant that cannot change the verdict; which ones, and why,
is stated once, at _without_one_unit_chunks.  What is left is
translated once to its ordinals (0 for a separator, n for the n-th
char), where each char must be the ordinal after the byte before it
and each separator must follow a char, tested a span of bytes at a
time as one integer, and its separators alone must follow their cycle.
Otherwise it names the first byte where the stream departs from the
rendering of its own blocks, each held to 1..95 units, which it renders
once, whole.  It does not derive the lengths from the rows: an early
restart without a collision, or a repeated row inside a 1tt block,
still parses.
"""

from collections import namedtuple
from itertools import cycle
from operator import getitem

from . import addressing
from .addressing import MODE_1TT, MODE_4TT  # re-exported: defined beside the layouts
from .transtable import OCCUPANT_ALPHABET

GRID_MAGIC = b"FBGR"
HONEST_MAGIC = b"FBHN"
VERSION = 1
GRID_REGION_BYTES = 65536
BLOCK_UNITS = 95
SEPARATOR_CODES = tuple(range(1, 32))
TAIL_MARKER = 0x00

_MODE_BYTES = {MODE_1TT: 1, MODE_4TT: 4}  # a mode's header byte is its rows per unit
_MODE_NAMES = {v: k for k, v in _MODE_BYTES.items()}
_KINDS = {GRID_MAGIC: addressing.FORMAT_PAPER, HONEST_MAGIC: addressing.FORMAT_HONEST}


class _Channel(int):
    """A channel's size: the width of the length written before its bytes."""


class _Rows(_Channel):
    """A channel of the rows: its bytes are twice the pair count."""


# Each format's fields in file order: (name, size).  A field of plain int
# size is that many bytes: the magic, a big-endian number or the grid
# region.  A channel is its bytes behind a big-endian length that size
# wide; the row stream's is not written (size 0).  Every format starts
# with its magic and version, which pick its table in _FORMATS.
_PAPER_FIELDS = (
    ("magic", 4), ("version", 1), ("mode", 1), ("pair count", 8),
    ("grid region", GRID_REGION_BYTES),
    ("occupant stream", _Channel(8)),
    ("address channel", _Rows(8)),
    ("tail", _Channel(1)),
)
_HONEST_FIELDS = (
    ("magic", 4), ("version", 1), ("pair count", 8),
    ("row stream", _Rows(0)),
    ("tail", _Channel(1)),
)
_FORMATS = {(GRID_MAGIC, VERSION): _PAPER_FIELDS, (HONEST_MAGIC, VERSION): _HONEST_FIELDS}
HONEST_OVERHEAD = sum(size for _, size in _HONEST_FIELDS)

_SEPARATORS = [bytes((code,)) for code in SEPARATOR_CODES]
# _CHARS[n]: the chars of an n-unit block; _PIECES[k][n]: those chars,
# then the cycle's k-th separator, built by the first _render.
_CHARS = [OCCUPANT_ALPHABET[:n] for n in range(BLOCK_UNITS + 1)]
_PIECES = None
# Blocks are joined a slice of whole separator cycles at a time: a join
# allocates an 80-byte record per piece, which for a stream of one-unit
# blocks would be 40 times the stream itself.  Every slice so starts the
# cycle afresh, and a slice of one-unit blocks is always the same bytes.
_CHUNK = len(_SEPARATORS) * 128
_ONE_UNIT_BLOCKS = b"\x01" * _CHUNK
_ONE_UNIT_CHUNK = b"".join(_CHARS[1] + sep for sep in _SEPARATORS) * 128
# That chunk where the cycle starts afresh: right after its last separator.
_AFTER_CYCLE = _SEPARATORS[-1] + _ONE_UNIT_CHUNK
# _block_lengths reads the rows this many bytes at a time: 4,096 1tt units
# or 1,024 4tt units; _ordinals_ascend reads an occupant stream's ordinals
# this many bytes at a time.
_SPAN = 8192
# Every byte below 32 is read as a separator: deleting the others
# leaves the separators alone.
_NOT_SEPARATORS = bytes(range(32, 256))
_CYCLE = bytes(SEPARATOR_CODES)
# _CLAMPED[n]: a block of n bytes held to 1..95 units, for the rendering
# that names a defect: an empty or over-long block has no rendering.
_CLAMPED = b"\x01" + bytes(range(1, BLOCK_UNITS + 1)) + bytes((BLOCK_UNITS,)) * (255 - BLOCK_UNITS)
# _ORDINALS[b]: a byte's ordinal, 0 for a separator and n for the n-th
# char, so a split of the image at 0 finds the blocks; any other byte
# reads _OTHER, which is no ordinal's successor, so only a separator may
# follow it.  Every ordinal stays below 0x7F, so
# each byte of s + 1, of x ^ (s + 1) and of s | x in the span check
# below stays below 0x80, and adding 0x7F to it never carries into the
# next byte.
# The chars are exactly the bytes 0x20-0x7E.
_OTHER = 0x70
_ORDINALS = (bytes(32) + bytes.maketrans(OCCUPANT_ALPHABET, bytes(range(1, 96)))[32:127]
             + bytes((_OTHER,)) * 129)
# _ONES has a 1 in each byte of a span, _LOW7 a 0x7F and _HIGH a 0x80;
# _PAIR_HIGH has a 0x80 in each but the span's last byte.
_ONES = int.from_bytes(b"\x01" * _SPAN, "little")
_LOW7, _HIGH = 0x7F * _ONES, _ONES << 7
_PAIR_HIGH = _HIGH >> 8


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


def _sized_repr(record):
    """A namedtuple's repr with each buffer field shown as its byte count."""
    fields = []
    for name, value in zip(record._fields, record):
        try:
            fields.append(f"{name}=<{memoryview(value).nbytes} bytes>")
        except TypeError:
            fields.append(f"{name}={value!r}")
    return f"{type(record).__name__}({', '.join(fields)})"


class GridArtifact(namedtuple(
    "GridArtifact",
    "mode pair_count occupant_len separator_count block_count collision_restarts "
    "address_len tail_len artifact",
)):
    """What write_grid returns: the artifact's bytes, and what went into
    each of its channels.

    occupant_len counts the occupant chars and the separators: the
    nominal, paper-accounted size.
    """

    __slots__ = ()

    @property
    def honest_payload_size(self):
        """Bytes actually required to decode: address channel plus tail."""
        return self.address_len + self.tail_len

    __repr__ = _sized_repr


# stream: the row stream; tail: the odd last byte, or None.
ParsedHonest = namedtuple("ParsedHonest", "stream tail")
ParsedHonest.__repr__ = _sized_repr
# block_count: the number of blocks in the occupant stream.
ParsedGrid = namedtuple("ParsedGrid", "stream tail mode block_count")
ParsedGrid.__repr__ = _sized_repr


def _tail_bytes(tail):
    """The serialized tail: nothing, or the marker and the odd last byte."""
    return b"" if tail is None else bytes((TAIL_MARKER, tail))  # ValueError past 0xFF


def _unit_count(pair_count, mode):
    """Units of a stream of ``pair_count`` rows: one row each, or four (the last maybe fewer)."""
    return -(-pair_count // _MODE_BYTES[mode])


def _pair_count(stream):
    """Rows in a row stream; ValueError unless it holds whole rows."""
    if len(stream) % 2:
        raise ValueError(f"row stream of odd length {len(stream)}")
    return len(stream) // 2


def _pack(fields, values):
    """One artifact's bytes, a value per field, made with one join.  A
    number goes big-endian into its field; a channel's bytes, any
    bytes-like object, follow their length."""
    parts = []
    for (_, size), value in zip(fields, values):
        if isinstance(size, _Channel) and size:
            parts.append(len(value).to_bytes(size, "big"))
        parts.append(value.to_bytes(size, "big") if isinstance(value, int) else value)
    return b"".join(parts)


def _block_lengths(stream, mode):
    """Unit count of each block the writer lays out, in stream order, as
    bytes: one byte per block, since a block holds at most 95 units.

    A block closes after 95 units, or early, before a unit with a row
    that an earlier unit placed in the block (a collision restart).
    last[w] is the number of the block that last placed the row read as
    native 16-bit word w, so a unit collides exactly when one of its
    slots holds the current block's number.  A 4tt unit is checked whole
    before it is marked: a row repeated inside one unit is no collision.

    A unit equal to the unit before it always starts a block: that unit
    is still in the current block, so the two collide.  The rows are
    read _SPAN bytes at a time, and a span that is one unit repeated
    is laid out without the loop past its first unit: each later copy
    is a one-unit block, a 0x01 byte, and the last of them is the
    current block.  The loop reads whole units only; a 4tt stream's
    partial last unit, of 1 to 3 rows, is checked after it, once.
    """
    per_unit = _MODE_BYTES[mode]
    unit = 2 * per_unit
    octets = addressing.as_view(stream)
    partial = octets[len(octets) - len(octets) % unit :]
    octets = octets[: len(octets) - len(partial)]
    words = octets.cast("H")  # a collision needs no byte order
    last = [-1] * 65536
    lengths = bytearray()
    block = n = 0  # the current block's number and its units so far
    for at in range(0, len(octets), _SPAN):
        span = octets[at : at + _SPAN]
        copies = len(span) // unit
        # the first 16 bytes tell most spans that are no run, without a copy
        uniform = span[:8] == span[8:16] and bytes(span) == bytes(span[:unit]) * copies
        part = words[at // 2 : at // 2 + (per_unit if uniform else _SPAN // 2)]
        if per_unit == 1:
            for w in part:
                if n == BLOCK_UNITS or last[w] == block:
                    lengths.append(n)
                    block, n = block + 1, 0
                last[w] = block
                n += 1
        else:
            for w0, w1, w2, w3 in zip(part[0::4], part[1::4], part[2::4], part[3::4]):
                if n == BLOCK_UNITS or last[w0] == block or last[w1] == block \
                        or last[w2] == block or last[w3] == block:
                    lengths.append(n)
                    block, n = block + 1, 0
                last[w0] = last[w1] = last[w2] = last[w3] = block
                n += 1
        if uniform:  # each later copy closes the block before it and starts its own
            lengths.append(n)
            lengths += b"\x01" * (copies - 2)
            block, n = block + copies - 1, 1
            for w in part:
                last[w] = block
    if partial:  # no generator here: it would make last and block cells of the loop above
        if n == BLOCK_UNITS or block in map(last.__getitem__, partial.cast("H")):
            lengths.append(n)
            n = 0
        n += 1
    if n:
        lengths.append(n)
    return bytes(lengths)


def _render(block_units):
    """The occupant stream of blocks of ``block_units`` units: bytes, one
    count in 1..95 per block.

    Every block but the last is closed by the next separator of the
    cycle; the last keeps its separator only when it is full.  A chunk
    of _CHUNK one-unit blocks is found with one compare against
    _ONE_UNIT_BLOCKS and emitted as _ONE_UNIT_CHUNK.
    """
    global _PIECES
    if _PIECES is None:
        _PIECES = [[chars + sep for chars in _CHARS] for sep in _SEPARATORS]
    chunks = (block_units[at : at + _CHUNK] for at in range(0, len(block_units), _CHUNK))
    occupant = b"".join([
        _ONE_UNIT_CHUNK if chunk == _ONE_UNIT_BLOCKS
        else b"".join(map(getitem, cycle(_PIECES), chunk))
        for chunk in chunks
    ])
    return occupant[:-1] if block_units and block_units[-1] < BLOCK_UNITS else occupant


def _region(stream, mode, first, units):
    """The grid region: the chars of ``units`` units from unit ``first`` at their rows."""
    per_unit = _MODE_BYTES[mode]
    region = bytearray(GRID_REGION_BYTES)
    rows = addressing.row_array(stream[2 * per_unit * first : 2 * per_unit * (first + units)])
    for i, r in enumerate(rows):
        region[r] = OCCUPANT_ALPHABET[i // per_unit]
    return region


def write_grid(stream, mode, tail=None):
    """A paper-style artifact, returned as a GridArtifact: its bytes and
    a summary of its channels.

    ``stream`` is the row stream, any bytes-like object taken as bytes;
    it becomes the address channel as it is.  ValueError if odd-sized.
    """
    if mode not in _MODE_BYTES:
        raise ValueError(f"unknown mode {mode!r}")
    stream = addressing.as_view(stream)
    pair_count = _pair_count(stream)
    tail_bytes = _tail_bytes(tail)

    lengths = _block_lengths(stream, mode)
    units = _unit_count(pair_count, mode)
    last = lengths[-1] if lengths else 0
    occupant = _render(lengths)
    separators = len(occupant) - units
    block_count = len(lengths)
    # a separator closes a full block or a collision restart
    collision_restarts = separators - lengths.count(BLOCK_UNITS)
    del lengths  # not held while the artifact is joined
    region = _region(stream, mode, units - last, last)
    artifact = _pack(_PAPER_FIELDS, (GRID_MAGIC, VERSION, _MODE_BYTES[mode], pair_count,
                                     region, occupant, stream, tail_bytes))
    return GridArtifact(
        mode=mode,
        pair_count=pair_count,
        occupant_len=len(occupant),
        separator_count=separators,
        block_count=block_count,
        collision_restarts=collision_restarts,
        address_len=len(stream),
        tail_len=len(tail_bytes),
        artifact=artifact,
    )


def write_honest(stream, tail=None):
    """The bytes of a self-contained artifact of a row stream, taken as bytes."""
    stream = addressing.as_view(stream)
    return _pack(_HONEST_FIELDS, (HONEST_MAGIC, VERSION, _pair_count(stream), stream,
                                  _tail_bytes(tail)))


def _fields(data, magic):
    """Each field of an artifact after its version, in file order, as
    (name, offset, bytes): read-only slices of one bytes snapshot of
    ``data``, a channel's offset being the one after its length.

    The magic must be ``magic``, and (magic, version) a key of _FORMATS.
    Each field is checked whole before it is yielded, so a consumer's
    check of one field precedes those of the fields after it: none is
    truncated, the pair count's rows fit in the bytes after it, a channel
    of rows holds twice the pair count, and the tail, of 0 or 2 bytes
    (the marker, then the odd byte), ends the artifact.
    """
    data = memoryview(addressing.as_bytes(data))
    end = len(data)

    def take(at, size, what):
        if end - at < size:
            raise GridFormatError(f"truncated in {what}", offset=end)
        return data[at : at + size]

    found = bytes(take(0, len(magic), "magic"))
    if found != magic:
        raise GridFormatError(f"bad magic {found!r}", offset=0)
    version = take(len(magic), 1, "version")[0]
    fields = _FORMATS.get((magic, version))
    if fields is None:
        raise GridFormatError(f"unsupported version {version}", offset=len(magic))
    at = len(magic) + 1
    for name, size in fields[2:]:
        if isinstance(size, _Channel):
            length = int.from_bytes(take(at, size, f"{name} length"), "big") if size else 2 * pairs
            if isinstance(size, _Rows) and length != 2 * pairs:
                raise GridFormatError(f"{name} length {length} does not match {2 * pairs}",
                                      offset=at + size)
            if name == "tail" and length not in (0, 2):
                raise GridFormatError(f"bad tail length {length}", offset=at)
            at, size = at + size, length
        field = take(at, size, name)
        if name == "pair count":
            pairs, left = int.from_bytes(field, "big"), end - at - size
            if 2 * pairs > left:
                raise GridFormatError(f"pair count {pairs} needs {2 * pairs} row bytes; the "
                                      f"artifact ends {left} bytes after it", offset=at)
        elif name == "tail":
            if field and field[0] != TAIL_MARKER:
                raise GridFormatError(f"bad tail marker {field[0]:#04x}", offset=at)
            if at + size != end:
                raise GridFormatError("trailing garbage after tail", offset=at + size)
        yield name, at, field
        at += size


def _ordinals_ascend(ordinals):
    """Whether each byte of an ordinal image after the first is 0 (a
    separator) or the byte before it plus one, and no 0 follows a 0.

    Checked _SPAN bytes at a time, consecutive spans sharing one byte:
    with s the span's bytes as a little-endian integer and x = s >> 8
    its bytes from the second on, byte by byte, (x ^ (s + 1)) + 0x7F sets
    the high bit where a byte is not its predecessor plus one, x + 0x7F
    where it is not 0, and (s | x) + 0x7F where it or its predecessor is
    not 0.  Only the high bits of the span's pairs are read, those of its
    first len - 1 bytes (the mask m): past its last byte x is 0.
    """
    m = _PAIR_HIGH
    for at in range(0, len(ordinals) - 1, _SPAN - 1):
        span = ordinals[at : at + _SPAN]
        if len(span) < _SPAN:
            m = _HIGH >> 8 * (_SPAN + 1 - len(span))
        s = int.from_bytes(span, "little")
        x = s >> 8
        if ((((x ^ (s + _ONES)) + _LOW7) & (x + _LOW7)) | (((s | x) + _LOW7) ^ m)) & m:
            return False
    return True


def _without_one_unit_chunks(occupant):
    """(the stream left, chunks taken): the stream without each copy of
    _ONE_UNIT_CHUNK where the cycle starts afresh (at the stream's start
    or right after separator 31) and that does not end the stream.

    Such a copy is valid wherever it stands: it starts a block and holds
    whole cycles of separators, so the separators after it keep their
    place in the cycle, and the byte after it follows a separator, as it
    does in what is left (or starts it).  At the end a copy would close
    a one-unit final block with a separator.  So the stream is valid
    exactly when what is left is.  The first copy of a run is found with
    one search, and each next copy of the run with one compare where the
    last one ends.
    """
    size, end = len(_ONE_UNIT_CHUNK), len(occupant) - 1  # no copy taken ends the stream
    if occupant.startswith(_ONE_UNIT_CHUNK, 0, end):
        at = 0
    else:
        at = occupant.find(_AFTER_CYCLE, 0, end) + 1 or -1
    kept, done = [], 0
    while at >= 0:
        kept.append(occupant[done:at])
        done = at + size
        while occupant.startswith(_ONE_UNIT_CHUNK, done, end):
            done += size
        at = occupant.find(_AFTER_CYCLE, done, end) + 1 or -1
    left = b"".join(kept + [occupant[done:]])  # the stream itself when nothing is taken
    return left, (len(occupant) - len(left)) // size


def _occupant_blocks(occupant, base_offset):
    """(block count, units, last block's units) of an occupant stream that
    is exactly _render's output for the blocks its separators delimit.

    The chunks that _without_one_unit_chunks sets aside first count as
    _CHUNK one-unit blocks each, and the checks below run on what is left.

    Every block is a prefix of the alphabet exactly when the stream
    starts with the first char and, in its ordinal image (_ORDINALS),
    every byte after the first is the ordinal after the one before it or
    a separator that follows a char: no block is then empty, each starts
    with the first char, and each char after it is the next one.  The
    ordinals are checked a span at a time (_ordinals_ascend), no block
    made.  Besides, the separators must follow the cycle, and the stream
    ends with one exactly when its last block is full.

    Otherwise raises the error for the first byte where the whole stream
    departs from the rendering of its own blocks.  Only then is it split
    into blocks, whose sizes, as bytes, are held to 1..95 units by one
    translate (an empty or over-long block has no rendering) and rendered
    once, whole.  Every block before the first that is no prefix of the
    alphabet renders as it stands, and that block departs from its
    rendering within its own bytes or at the byte after its 95th, so what
    follows it cannot move the first difference.
    """
    if not occupant:
        return 0, 0, 0
    left, chunks = _without_one_unit_chunks(occupant)
    separators = left.translate(None, _NOT_SEPARATORS)
    cycles, rest = divmod(len(separators), len(_CYCLE))
    ordinals = addressing._translate(left, _ORDINALS)
    closed = ordinals[-1] == 0
    block_count = len(separators) + (not closed)
    if (ordinals[0] == 1 and (ordinals[-1 - closed] == BLOCK_UNITS) == closed
            and separators == _CYCLE * cycles + _CYCLE[:rest]
            and _ordinals_ascend(ordinals)):
        return (block_count + chunks * _CHUNK, len(left) - len(separators) + chunks * _CHUNK,
                ordinals[-1 - closed])
    blocks = occupant.translate(_ORDINALS).split(b"\0")
    if closed:
        blocks.pop()
    sizes = list(map(len, blocks))
    if max(sizes) > 255:
        sizes = [min(size, BLOCK_UNITS) for size in sizes]
    raise _occupant_mismatch(occupant, _render(bytes(sizes).translate(_CLAMPED)), base_offset)


def _occupant_mismatch(got, want, base_offset):
    """The error for an occupant stream that differs from its rendering."""
    i = addressing.first_difference(got, want)
    if i == len(got):
        what = f"missing separator code {want[i]} after a full final block"
    elif i == len(want):
        what = f"separator code {got[i]} after a partial final block"
    elif got[i] < 32 <= want[i]:
        what = "separator without preceding occupant chars"
    elif want[i] < 32 <= got[i]:
        what = "missing block separator after 95 occupant chars"
    elif want[i] < 32:
        what = f"separator code {got[i]} does not match cycle value {want[i]}"
    else:
        what = (
            f"occupant ordinal gap: char {got[i]:#04x} where {want[i]:#04x} "
            f"(ordinal {OCCUPANT_ALPHABET.index(want[i]) + 1}) was expected"
        )
    block = want[:i].translate(_ORDINALS).count(0)
    return GridFormatError(what, offset=base_offset + i, block=block)


def parse_grid(data):
    """Parse a paper-style artifact's bytes; exact inverse of write_grid.

    Its row stream is a read-only view of the artifact.  Checks each
    field as it reads it, in file order.  Accepts the
    occupant stream only when it is exactly _render's output for its own
    blocks, and the region only when it is _region of the last block.
    Raises GridFormatError naming offset and block at the first defect:
    bad magic, a pair count whose rows cannot fit, separator or ordinal
    mismatches, channel length mismatches, inconsistent grid region,
    trailing garbage.
    """
    fields = _fields(data, GRID_MAGIC)
    _, at, mode_byte = next(fields)
    parsed_mode = _MODE_NAMES.get(mode_byte[0])
    if parsed_mode is None:
        raise GridFormatError(f"unknown mode byte {mode_byte[0]}", offset=at)
    _, _, pair_count = next(fields)
    _, region_start, region = next(fields)
    region = bytes(region)  # compared as bytes: a memoryview compares far slower
    _, occ_start, occupant = next(fields)
    block_count, units_seen, last = _occupant_blocks(bytes(occupant), occ_start)
    units_expected = _unit_count(int.from_bytes(pair_count, "big"), parsed_mode)
    if units_seen != units_expected:
        raise GridFormatError(
            f"occupant stream holds {units_seen} units, header implies "
            f"{units_expected}",
            offset=occ_start,
        )
    (_, _, address), (_, _, tail) = fields

    want_region = _region(address, parsed_mode, units_seen - last, last)
    if region != want_region:
        slot = addressing.first_difference(region, want_region)
        raise GridFormatError(
            f"grid region inconsistent with channels: slot {slot} holds "
            f"{region[slot]:#04x}, {want_region[slot]:#04x} expected",
            offset=region_start + slot,
            block=block_count - 1 if block_count else None,
        )

    return ParsedGrid(
        stream=address, tail=tail[1] if tail else None, mode=parsed_mode,
        block_count=block_count,
    )


def parse_honest(data):
    """Parse a self-contained artifact's bytes; exact inverse of write_honest.

    Its row stream is a read-only view of the artifact.
    """
    _, (_, _, stream), (_, _, tail) = _fields(data, HONEST_MAGIC)
    return ParsedHonest(stream=stream, tail=tail[1] if tail else None)


def artifact_kind(data):
    """Classify an artifact, any bytes-like object taken as bytes, by its
    magic: 'paper', 'honest' or None."""
    return _KINDS.get(bytes(addressing.as_view(data)[: len(GRID_MAGIC)]))


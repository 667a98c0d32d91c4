"""Silent-corruption oracles: bit flips and structural mutations of
small v1 artifacts, and structural mutations of a table file.

Each case is one small artifact, for a format, a mode and a layout.  A
copy of it with one bit flipped is decompressed, and the flip is sorted
into a typed error (GridFormatError, which the CLI maps to exit code 4),
the same output, or wrong output.  Every bit outside the paper grid
region is flipped, and a seeded sample of REGION_SAMPLES region bits.
Any other exception fails the test.  ``flip_counts(fmt, mode, layout)``
returns one case's three counts.

The structural pass (``mutation_counts``) sorts the same way a seeded,
fixed number of each kind of mutation per case: truncation, one byte
overwritten, 1-8 bytes inserted or deleted, and a splice of the case's
artifact with another's, plus each length field and the pair count set
to 0, to its value - 1 and + 1 and to its field's maximum.  Its typed
errors are GridFormatError and, since the case's mode is requested,
ModeMismatchError.  A table file gets the same random kinds, and there
the typed errors are TtFormatError and TtError.
"""

import io
import random

from fbar import codec, gridfile, transtable

from conftest import walked

# ROADMAP gap 3's input, 200 pairs, and an odd last byte, the tail.  Its
# five distinct pairs repeat, so blocks restart on collisions.
DATA = b"resolved! " * 40 + b"?"
REGION_SAMPLES = 256
SEED = 1
CASES = [
    (fmt, mode, layout)
    for fmt in codec.FORMATS
    for mode in (gridfile.MODE_1TT, gridfile.MODE_4TT)
    for layout in ("interleaved", "grouped")
]

# Wrong-output flips per case at v1: known silent failures, since v1
# carries no checksum (ROADMAP gaps 2-3).  Every flip of the row stream
# (the paper address channel) or of the tail byte decodes to other bytes,
# but for a paper flip in the last block's rows, which the region check
# catches.  A count that falls is good news: the change that lowers it
# updates it here.
V1_SILENT_WRONG_OUTPUTS = {
    ("paper", "1tt", "interleaved"): 3128,
    ("paper", "1tt", "grouped"): 3128,
    ("paper", "4tt", "interleaved"): 3144,
    ("paper", "4tt", "grouped"): 3144,
    ("honest", "1tt", "interleaved"): 3208,
    ("honest", "1tt", "grouped"): 3208,
    ("honest", "4tt", "interleaved"): 3208,
    ("honest", "4tt", "grouped"): 3208,
}


def flipped_bits(artifact, fmt):
    """Bit offsets to flip: all of them, but only REGION_SAMPLES drawn
    ones inside a paper artifact's grid region."""
    if fmt != codec.FORMAT_PAPER:
        return list(range(8 * len(artifact)))
    start, size = walked(artifact, gridfile.GRID_MAGIC)["grid region"]
    start, end = 8 * start, 8 * (start + size)
    sample = random.Random(SEED).sample(range(start, end), REGION_SAMPLES)
    return [*range(start), *sorted(sample), *range(end, 8 * len(artifact))]


def flip_counts(fmt, mode, layout):
    """{"typed error": n, "same output": n, "wrong output": n} over one
    case's flipped bits."""
    tables = transtable.generate_tt(layout)
    artifact = codec.compress(codec.CompressJob(DATA, tables, mode, fmt)).artifact
    counts = {"typed error": 0, "same output": 0, "wrong output": 0}
    copy = bytearray(artifact)
    for bit in flipped_bits(artifact, fmt):
        copy[bit >> 3] ^= 0x80 >> (bit & 7)
        try:
            out = codec.decompress(codec.DecompressJob(bytes(copy), tables))
        except gridfile.GridFormatError:
            counts["typed error"] += 1
        else:
            counts["same output" if out == DATA else "wrong output"] += 1
        copy[bit >> 3] ^= 0x80 >> (bit & 7)
    return counts


def test_no_single_bit_flip_decodes_to_the_same_output():
    """Every flip is caught or changes the output.  A defect in the paper
    occupant stream never changes the decoded bytes, so a parser that
    wrongly accepted one would show here, and nowhere in the wrong-output
    counts."""
    same = {case: flip_counts(*case)["same output"] for case in CASES}
    assert same == dict.fromkeys(CASES, 0)


def test_v1_known_silent_failures_under_single_bit_flips():
    """Known silent failures: the wrong-output flips of v1 artifacts,
    recorded per case, not passed (ROADMAP gaps 2-3)."""
    wrong = {case: flip_counts(*case)["wrong output"] for case in CASES}
    assert wrong == V1_SILENT_WRONG_OUTPUTS


# Random mutations per kind: for each case, and for the table file, whose
# load checks each record's row in a loop once one is out of order.  Each
# pass draws them with SEED.
MUTATIONS_PER_KIND = 64
TABLE_MUTATIONS_PER_KIND = 16
# Another input of DATA's length, for the splices.
SPLICE_DATA = b"revolved? " * 40 + b"!"

# Wrong-output structural mutations per case at v1, recorded as the
# bit-flip ones are: v1 carries no checksum (ROADMAP gaps 2-3).  A count
# that falls is good news: the change that lowers it updates it here.
V1_STRUCTURAL_WRONG_OUTPUTS = {
    ("paper", "1tt", "interleaved"): 33,
    ("paper", "1tt", "grouped"): 33,
    ("paper", "4tt", "interleaved"): 35,
    ("paper", "4tt", "grouped"): 35,
    ("honest", "1tt", "interleaved"): 126,
    ("honest", "1tt", "grouped"): 126,
    ("honest", "4tt", "interleaved"): 126,
    ("honest", "4tt", "grouped"): 126,
}


def mutation_sites(artifact, fmt):
    """Byte offsets a mutation may start at: those of the bits that
    flipped_bits flips, so a paper grid region gives only a sample."""
    return sorted({bit >> 3 for bit in flipped_bits(artifact, fmt)})


def length_fields(artifact, fmt):
    """(offset, width) of the pair count and of each written channel
    length: the bytes between a field and the end of the one before it."""
    found, end = [], None
    magic = gridfile.GRID_MAGIC if fmt == codec.FORMAT_PAPER else gridfile.HONEST_MAGIC
    for name, (at, size) in walked(artifact, magic).items():
        if name == "pair count":
            found.append((at, size))
        elif end is not None and at > end:
            found.append((end, at - end))
        end = at + size
    return found


def random_mutations(data, sites, partner, n):
    """``n`` seeded copies of ``data`` for each random kind: truncation,
    one byte overwritten, 1-8 bytes inserted, 1-8 deleted, and a splice
    with ``partner`` at one offset of each.  All but truncations start
    at one of ``sites``."""
    rng = random.Random(SEED)
    out = [data[: rng.randrange(len(data))] for _ in range(n)]
    for _ in range(n):
        at = rng.choice(sites)
        out.append(data[:at] + bytes((data[at] ^ rng.randrange(1, 256),)) + data[at + 1 :])
    for _ in range(n):
        at = rng.choice(sites)
        out.append(data[:at] + rng.randbytes(rng.randint(1, 8)) + data[at:])
    for _ in range(n):
        at = rng.choice(sites)
        out.append(data[:at] + data[at + rng.randint(1, 8) :])
    for _ in range(n):
        at = rng.choice(sites)
        out.append(data[:at] + partner[at:])
    return out


def length_mutations(data, fmt):
    """``data`` with each length field and the pair count set to 0, to its
    value - 1 and + 1, and to its field's maximum (2^64 - 1 for 8 bytes)."""
    out = []
    for at, width in length_fields(data, fmt):
        value, top = int.from_bytes(data[at : at + width], "big"), (1 << 8 * width) - 1
        for new in sorted({0, value - 1, value + 1, top} - {-1, top + 1, value}):
            out.append(data[:at] + new.to_bytes(width, "big") + data[at + width :])
    return out


def mutation_counts(fmt, mode, layout):
    """{"typed error": n, "same output": n, "wrong output": n} over one
    case's structural mutations."""
    tables = transtable.generate_tt(layout)
    artifact, partner = (
        codec.compress(codec.CompressJob(data, tables, mode, fmt)).artifact
        for data in (DATA, SPLICE_DATA)
    )
    mutants = random_mutations(artifact, mutation_sites(artifact, fmt), partner,
                               MUTATIONS_PER_KIND)
    mutants += length_mutations(artifact, fmt)
    counts = {"typed error": 0, "same output": 0, "wrong output": 0}
    for mutant in mutants:
        try:
            out = codec.decompress(codec.DecompressJob(mutant, tables, mode))
        except (gridfile.GridFormatError, codec.ModeMismatchError):
            counts["typed error"] += 1
        else:
            counts["same output" if out == DATA else "wrong output"] += 1
    return counts


def test_structural_mutations_raise_only_typed_errors():
    """Any other exception escapes and fails the test; the wrong outputs
    are v1's known silent failures, recorded per case, not passed."""
    counts = {case: mutation_counts(*case) for case in CASES}
    wrong = {case: c["wrong output"] for case, c in counts.items()}
    assert wrong == V1_STRUCTURAL_WRONG_OUTPUTS


def test_table_file_mutations_raise_only_typed_errors():
    """A mutated table file fails to load or to verify with a typed error,
    or loads as the canonical table; any other exception fails the test."""
    canonical = transtable.generate_tt()
    files = []
    for layout in ("interleaved", "grouped"):
        sink = io.BytesIO()
        transtable.serialize_binary(transtable.generate_tt(layout), sink)
        files.append(sink.getvalue())
    table, partner = files
    mutants = random_mutations(table, range(len(table)), partner, TABLE_MUTATIONS_PER_KIND)
    counts = {"typed error": 0, "canonical": 0}
    for mutant in mutants:
        try:
            loaded = transtable.load_binary(io.BytesIO(mutant))
            loaded.ensure_verified()
        except transtable.TtError:  # TtFormatError is one
            counts["typed error"] += 1
        else:
            assert loaded == canonical
            counts["canonical"] += 1
    assert counts == {"typed error": 5 * TABLE_MUTATIONS_PER_KIND, "canonical": 0}

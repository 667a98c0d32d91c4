"""Silent-corruption oracle: single bit flips in small v1 artifacts.

Each case is one small artifact, for a format, a mode and a layout.  A
copy of it with one bit flipped is decompressed, and the flip is sorted
into a typed error (GridFormatError, which the CLI maps to exit code 4),
the same output, or wrong output.  Every bit outside the paper grid
region is flipped, and a seeded sample of REGION_SAMPLES region bits.
Any other exception fails the test.

This module imports nothing but fbar and the standard library, so it
also runs against an installed package without pytest:
``flip_counts(fmt, mode, layout)`` returns one case's three counts.
"""

import random

from fbar import codec, gridfile, transtable

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
    names = [name for name, _ in gridfile._PAPER_FIELDS]
    start = 8 * sum(size for _, size in gridfile._PAPER_FIELDS[: names.index("grid region")])
    end = start + 8 * gridfile.GRID_REGION_BYTES
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

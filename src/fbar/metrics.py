"""Entropy, size and audit arithmetic for the codec.

Two accountings are kept strictly apart and both are always reported:

* nominal ("paper-accounted"): the occupant stream alone, which yields
  the fixed 2:1 and 8:1 ratios;
* honest: every channel a decoder actually needs (the address channel
  plus any tail), which is never smaller than the input.  The
  pigeonhole audit demonstrates by construction which channel carries
  the information.
"""

import math
from collections import Counter, namedtuple

from . import addressing, gridfile, transtable

# Nominal block amortization: one separator byte per 96 pairs.  The
# artifact writer closes blocks at 95 units (the occupant alphabet has
# 95 symbols), so real streams run marginally larger; the reported
# corpus sizes are reproduced by the 96-pair amortization.
ACCOUNTED_BLOCK_PAIRS = 96

MODE_RATIO_H = {gridfile.MODE_1TT: 2, gridfile.MODE_4TT: 0}  # 8:4 and 8:1


def paper_size(n_bytes, mode):
    """Nominal compressed size in bytes for an n-byte input."""
    if n_bytes < 0:
        raise ValueError("size must be non-negative")
    if mode == gridfile.MODE_4TT:
        return -(-n_bytes // 8)
    if mode == gridfile.MODE_1TT:
        pairs = -(-n_bytes // 2)
        return pairs + -(-pairs // ACCOUNTED_BLOCK_PAIRS)
    raise ValueError(f"unknown mode {mode!r}")


def order0(data):
    """Order-0 statistics of a byte sequence from one histogram.

    Returns (distinct symbols, log2 of that alphabet, the entropy of the
    empirical byte frequencies); both entropies are in bits and 0.0 for
    empty input.
    """
    counts = Counter(data).values()
    total = sum(counts)
    if not total:
        return 0, 0.0, 0.0
    h = -sum(c / total * math.log2(c / total) for c in counts)
    return len(counts), math.log2(len(counts)), h if h > 0.0 else 0.0


def fbar_H(ratio):
    """Entropy ladder value H for an 8:B ratio, H = log2(B).

    Exact (an int) whenever B is an exact power of two, including
    fractional powers like 1/2; otherwise a float.
    """
    from fractions import Fraction  # imported here: no command path needs it

    frac = Fraction(ratio)
    if frac <= 0:
        raise ValueError(f"ratio must be positive, got {ratio!r}")
    num, den = frac.numerator, frac.denominator
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        return num.bit_length() - den.bit_length()
    return math.log2(num / den)


def savings_from_H(H):
    """Space savings fraction 1 - 2**H / 8; exact Fraction for integer H."""
    from fractions import Fraction  # imported here: no command path needs it

    if isinstance(H, float) and H.is_integer():
        H = int(H)
    if isinstance(H, int):
        return Fraction(1) - Fraction(2) ** H / 8
    return 1.0 - 2.0 ** H / 8.0


def manipulation_distance(n_compressed_units, decompressed=False):
    """Pair-manipulation count: 8 per unit before decompression, 0 after."""
    if n_compressed_units < 0:
        raise ValueError("unit count must be non-negative")
    return 0 if decompressed else 8 * n_compressed_units


class MetricsReport:
    """One compression run's measured values and the figures derived from them.

    It keeps the input's bytes (``data``, any buffer, taken through
    ``addressing.as_bytes``), ``elapsed`` and the sizes of the channels
    written; every nominal figure is a read-only property of the input
    size and the mode.  The order-0 entropies (``shannon_H0``,
    ``empirical_H``) describe the input, so its byte histogram is built
    on their first read, once, and ``elapsed`` never includes it.
    """

    def __init__(self, data, mode, fmt, elapsed, paper_accounted, honest_size, artifact_size):
        data = addressing.as_bytes(data)
        self.input_size = len(data)
        self.mode = mode
        self.fmt = fmt
        self.elapsed = elapsed
        # actual occupant stream bytes (paper fmt), None for the honest format
        self.paper_accounted = paper_accounted
        self.honest_size = honest_size
        self.artifact_size = artifact_size
        self._data = data
        self._order0 = None

    def __repr__(self):
        return (
            f"{type(self).__name__}(mode={self.mode!r}, fmt={self.fmt!r}, "
            f"input_size={self.input_size}, honest_size={self.honest_size}, "
            f"artifact_size={self.artifact_size}, elapsed={self.elapsed!r})"
        )

    @property
    def paper_size_1tt(self):
        """Nominal 1tt size of the input."""
        return paper_size(self.input_size, gridfile.MODE_1TT)

    @property
    def paper_size_4tt(self):
        """Nominal 4tt size of the input."""
        return paper_size(self.input_size, gridfile.MODE_4TT)

    @property
    def space_savings_paper(self):
        """Savings of the occupant stream written, or else of the mode's nominal size."""
        n, size = self.input_size, self.paper_accounted
        if size is None:
            size = paper_size(n, self.mode)
        return 1.0 - size / n if n else 0.0

    @property
    def fbar_H(self):
        """The mode's entropy ladder value H."""
        return MODE_RATIO_H[self.mode]

    @property
    def manipulation_total(self):
        """Pair manipulations the input's pairs need before decompression."""
        return manipulation_distance(-(-self.input_size // 2))

    def _entropies(self):
        if self._order0 is None:
            _, h0, h = order0(self._data)
            self._order0 = (h0, h)
            self._data = None
        return self._order0

    @property
    def throughput(self):
        """Input bytes per second of ``elapsed``; 0.0 when ``elapsed`` is 0."""
        return self.input_size / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def shannon_H0(self):
        """log2 of the input's distinct byte count, bits per symbol."""
        return self._entropies()[0]

    @property
    def empirical_H(self):
        """Order-0 entropy of the input's byte frequencies, bits per byte."""
        return self._entropies()[1]

    def as_kv(self):
        pairs = [
            ("input_size", self.input_size),
            ("mode", self.mode),
            ("format", self.fmt),
            ("paper_size_1tt", self.paper_size_1tt),
            ("paper_size_4tt", self.paper_size_4tt),
            ("paper_accounted", self.paper_accounted),
            ("honest_size", self.honest_size),
            ("artifact_size", self.artifact_size),
            ("space_savings_paper", f"{self.space_savings_paper:.6f}"),
            ("fbar_H_bpB", self.fbar_H),
            ("shannon_H0_bpc", f"{self.shannon_H0:.4f}"),
            ("empirical_H_bits_per_byte", f"{self.empirical_H:.4f}"),
            ("manipulation_total", self.manipulation_total),
            ("elapsed_s", f"{self.elapsed:.6f}"),
            ("throughput_Bps", f"{self.throughput:.1f}"),
        ]
        return pairs

    def render_kv(self):
        return "\n".join(f"{k}={v}" for k, v in self.as_kv())

    def render_table(self):
        rows = self.as_kv()
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


# The report's constructor, under the name the codec calls.
build_report = MetricsReport


# violations: verify_tt's (row, message) pairs; collision_witness: (a, b, stream) or None.
AuditReport = namedtuple(
    "AuditReport", "bijection_ok distinct_rows violations collision_witness channel_bits"
)


def _occupant_only(stream):
    """The occupant stream a 1tt paper artifact of ``stream`` holds."""
    return gridfile._render(gridfile._block_lengths(stream, gridfile.MODE_1TT))


def pigeonhole_audit(tt):
    """Exhaustively audit a table against an independent enumeration.

    Two whole-buffer comparisons cover all 65,536 two-byte inputs.  The
    first, which never reads the table under test, runs every input
    through the addressing chain and back: a map on 65,536 keys with a
    left inverse is injective, so the rows are distinct and the chain is
    a bijection.  The second, ``transtable.verify_tt``, compares the
    table's records with that inverse, so every record returns the pair
    that produced its row; it names at most the first 16 rows that
    differ (``transtable.MAX_VIOLATIONS``), and the audit keeps them.  A
    concrete witness shows that the occupant-only channel cannot
    distinguish distinct inputs.
    """
    layout = tt.layout
    rows = addressing.encode_stream(addressing.ALL_ROWS, layout)
    chain_ok = addressing.decode_stream(rows, layout) == addressing.ALL_ROWS
    distinct = addressing.ROWS if chain_ok else len(set(memoryview(rows).cast("H")))
    violations = transtable.verify_tt(tt).violations

    witness_a, witness_b = b"aa", b"bb"
    stream_a = _occupant_only(addressing.encode_stream(witness_a, layout))
    stream_b = _occupant_only(addressing.encode_stream(witness_b, layout))
    witness = (witness_a, witness_b, stream_a) if stream_a == stream_b else None

    return AuditReport(
        bijection_ok=chain_ok and not violations,
        distinct_rows=distinct,
        violations=violations,
        collision_witness=witness,
        channel_bits={
            "occupant_bits_per_pair": 8,
            "address_bits_per_pair": 16,
            "grid_region_bits": 8 * gridfile.GRID_REGION_BYTES,
        },
    )

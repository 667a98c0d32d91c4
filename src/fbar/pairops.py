"""Bit-pair operator algebra over the four symbols z, n, i, p.

A byte is treated as four 2-bit pairs, most-significant pair first.
Every byte can be regenerated from the pure byte 0xFF by applying two
operator quadruples ("combos"): a stage-1 combo drawn from {i, p}
followed by a stage-2 combo drawn from {z, n}.  Per pair the action is

    stage 1:  i turns a pure pair (11 or 00) into 01, p keeps it pure
    stage 2:  z passes the pair through, n negates both bits

which forces a bijection between bytes and (ip-combo, zn-combo) pairs:
01 <- (i,z), 10 <- (i,n), 11 <- (p,z), 00 <- (p,n).

The operators i and p also have a second, lossy "closure" role that
collapses one pair to one bit.  Closure is deliberately ambiguous
(i(10) and p(00) close identically, likewise i(01) and p(11)); it is
exposed separately for auditing and never used on the decode path.
"""

OP_SYMBOLS = "znip"
PURE_BYTE = 0xFF

# Combo alphabets in their canonical listed order (1-based positions are
# the address coordinates used by the addressing layer).
IP_COMBOS = (
    "iiii", "iiip", "iipi", "ipii", "piii", "iipp", "ippi", "ppii",
    "pipi", "ipip", "piip", "ippp", "pipp", "ppip", "pppi", "pppp",
)
ZN_COMBOS = (
    "zzzz", "zzzn", "zznz", "znzz", "nzzz", "zznn", "znnz", "nnzz",
    "nznz", "znzn", "nzzn", "znnn", "nnnz", "nznn", "nnzn", "nnnn",
)

# Forced per-pair factorization: final pair value -> (stage-1 op, stage-2 op).
_PAIR_FACTOR = {0b01: ("i", "z"), 0b10: ("i", "n"), 0b11: ("p", "z"), 0b00: ("p", "n")}

# Closure role: pair -> (closing operator, closure bit).
_CLOSURE = {0b01: ("i", 1), 0b10: ("i", 0), 0b11: ("p", 1), 0b00: ("p", 0)}


def transform_pair(op, pair):
    """Generative action of one operator on a 2-bit pair.

    z and p pass the pair, n negates both bits, i maps a pure pair
    (00 or 11) to the impure form 01.  i on an impure pair is left as a
    pass-through; stage-1 inputs derived from the pure byte never hit
    that case.
    """
    if not 0 <= pair <= 3:
        raise ValueError(f"not a bit pair: {pair!r}")
    if op in ("z", "p"):
        return pair
    if op == "n":
        return pair ^ 0b11
    if op == "i":
        return 0b01 if pair in (0b00, 0b11) else pair
    raise ValueError(f"unknown operator {op!r}")


def _check_combo(combo, allowed=OP_SYMBOLS):
    if len(combo) != 4 or any(op not in allowed for op in combo):
        raise ValueError(f"not a valid combo over {{{allowed}}}: {combo!r}")


def apply_stage1(combo, byte=PURE_BYTE):
    """Apply a stage-1 combo to a byte, most-significant pair first.

    Any combo over all four symbols is accepted here, and apply_stage2
    applies its zn-combos through it; the canonical encode path only
    ever uses ip-combos on the pure byte.
    """
    _check_combo(combo)
    if not 0 <= byte <= 0xFF:
        raise ValueError(f"not a byte: {byte!r}")
    out = 0
    for pos, op in enumerate(combo):
        shift = (3 - pos) * 2
        out |= transform_pair(op, (byte >> shift) & 0b11) << shift
    return out


def apply_stage2(combo, byte):
    """Apply a zn-combo to a byte: z passes each pair, n negates it."""
    _check_combo(combo, allowed="zn")
    return apply_stage1(combo, byte)


def decode_byte(stage1, stage2):
    """Regenerate a byte from the pure byte via (stage-1, stage-2) combos."""
    return apply_stage2(stage2, apply_stage1(stage1, PURE_BYTE))


def canonical_factor(byte):
    """Return the unique (ip-combo, zn-combo) pair that decodes to ``byte``.

    Inverse of decode_byte restricted to the canonical alphabets; a
    bijection on the 256 byte values.
    """
    if not 0 <= byte <= 0xFF:
        raise ValueError(f"not a byte: {byte!r}")
    stage1, stage2 = zip(*(_PAIR_FACTOR[byte >> shift & 0b11] for shift in (6, 4, 2, 0)))
    return "".join(stage1), "".join(stage2)


def closure_classify(pair):
    """Collapse a pair to (operator, closure bit) in the closure role.

    The outputs coincide pairwise (i on 10 closes like p on 00, i on 01
    like p on 11); this ambiguity is the reason closure is never used
    for decoding.
    """
    if not 0 <= pair <= 3:
        raise ValueError(f"not a bit pair: {pair!r}")
    return _CLOSURE[pair]


def count_manipulations(n_pairs_of_chars):
    """Composed per-pair manipulations needed to decode n two-char units.

    One manipulation per bit-pair regardless of how many operator
    applications compose it: 4 per byte, hence 8 per two-char unit.
    """
    if n_pairs_of_chars < 0:
        raise ValueError("unit count must be non-negative")
    return 8 * n_pairs_of_chars

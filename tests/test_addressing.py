import random

import pytest

from fbar import addressing, pairops, transtable
from fbar.addressing import (
    FlagAddress,
    address_of_pair,
    address_of_row,
    pair_of_row,
    pair_table,
    row_of_address,
    row_of_pair,
    row_table,
)


def combo_index(combo):
    """1-based position of a combo in its 16-element alphabet: the oracle
    for the address coordinates, read from the alphabets themselves."""
    for alphabet in (pairops.IP_COMBOS, pairops.ZN_COMBOS):
        if combo in alphabet:
            return alphabet.index(combo) + 1
    raise ValueError(f"not an alphabet combo: {combo!r}")


def test_combo_index_examples():
    assert combo_index("iiii") == 1
    assert combo_index("ippi") == 7
    assert combo_index("nnnn") == 16
    assert combo_index("zzzz") == 1
    with pytest.raises(ValueError):
        combo_index("ippz")


def test_address_examples():
    assert address_of_pair(ord("r"), ord("e")) == FlagAddress(7, 6, 1, 4)
    assert address_of_pair(ord("s"), ord("o")) == FlagAddress(12, 3, 6, 4)
    assert address_of_pair(ord("@"), ord("$")) == FlagAddress(12, 12, 11, 15)


def test_address_derivation_via_combo_oracle():
    # recompute '@$' coordinates straight from the factorization
    for byte, want in ((ord("@"), (12, 12)), (ord("$"), (11, 15))):
        s1, s2 = pairops.canonical_factor(byte)
        assert (combo_index(s1), combo_index(s2)) == want


@pytest.mark.parametrize(
    "address,row",
    [((1, 1, 1, 1), 0), ((16, 16, 16, 15), 65534), ((16, 16, 16, 16), 65535)],
)
def test_row_linearization(address, row):
    assert row_of_address(address) == row
    assert address_of_row(row) == address


def test_row_range_checks():
    with pytest.raises(ValueError):
        row_of_address((0, 1, 1, 1))
    with pytest.raises(ValueError):
        row_of_address((1, 1, 1, 17))
    with pytest.raises(ValueError):
        address_of_row(65536)
    with pytest.raises(ValueError):
        address_of_row(-1)
    # a byte out of 0..255 is no pair, not the pair 256 places away
    for layout in addressing.LAYOUTS:
        for x, x2 in ((-1, 0), (0, -1), (256, 0), (0, 256)):
            with pytest.raises(ValueError, match="not a byte pair"):
                address_of_pair(x, x2, layout)
            with pytest.raises(ValueError, match="not a byte pair"):
                row_of_pair(x, x2, layout)


def test_pair_of_row_anchors():
    # row 0 decodes through (iiii, zzzz) twice: 01010101 = 0x55
    assert pairops.decode_byte("iiii", "zzzz") == 0x55
    assert pair_of_row(0) == (0x55, 0x55)
    # row 65535 decodes through (pppp, nnnn) twice: 0x00
    assert pairops.decode_byte("pppp", "nnnn") == 0x00
    assert pair_of_row(65535) == (0x00, 0x00)


def test_roundtrip_identity_example():
    row = row_of_pair(ord("@"), ord("$"))
    assert pair_of_row(row) == (ord("@"), ord("$"))


@pytest.mark.parametrize("layout", addressing.LAYOUTS)
def test_exhaustive_bijection(layout):
    # the operational content of the 65,536-combination bound
    seen = bytearray(65536)
    for x in range(256):
        for x2 in range(256):
            row = row_of_pair(x, x2, layout)
            assert not seen[row]
            seen[row] = 1
            assert pair_of_row(row, layout) == (x, x2)
    assert all(seen)


def test_table3_partial_agreement():
    # printed first/third coordinates of the four sample addresses
    anchors = {"re": (7, 1), "so": (12, 6), "lv": (6, 4), "ed": (1, 2)}
    for pair, (i, k) in anchors.items():
        addr = address_of_pair(ord(pair[0]), ord(pair[1]))
        assert (addr.i, addr.k) == (i, k)


def test_layouts_permute_coordinates():
    inter = address_of_pair(ord("r"), ord("e"), "interleaved")
    grouped = address_of_pair(ord("r"), ord("e"), "grouped")
    assert grouped == FlagAddress(inter.i, inter.k, inter.j, inter.l)
    with pytest.raises(ValueError):
        address_of_pair(1, 2, "diagonal")


def test_flat_tables_agree_with_functions():
    for layout in addressing.LAYOUTS:
        rows = row_table(layout)
        pairs = pair_table(layout)
        for key in (0, 1, 0x6568, 0xFFFF, 0x2440):
            x, x2 = key >> 8, key & 0xFF
            row = rows[key]
            assert row == row_of_pair(x, x2, layout)
            assert pairs[2 * row : 2 * row + 2] == bytes((x, x2))


def test_pair_table_is_built_once_per_layout():
    # Each layout's table is one buffer for the life of the process, and a
    # generated table holds it, so verifying that table compares the
    # buffer with itself.
    for layout in addressing.LAYOUTS:
        assert pair_table(layout) is pair_table(layout)
        assert transtable.generate_tt(layout).originals is pair_table(layout)
    with pytest.raises(ValueError, match="unknown layout"):
        pair_table("diagonal")


def test_f_literal_matches_the_canonical_factorization():
    # F is a literal in the module, so the kernel-against-scalar tests
    # would compare it with itself; derive every byte again here.
    for b in range(256):
        s1, s2 = pairops.canonical_factor(b)
        ip, zn = combo_index(s1), combo_index(s2)
        assert addressing._F[b] == (ip - 1) << 4 | (zn - 1)
        assert addressing._F_INV[addressing._F[b]] == b
        # the scalar functions read F's nibbles and its inverse
        assert address_of_pair(b, b) == (ip, zn, ip, zn)
        assert pair_of_row(row_of_address((ip, zn, ip, zn))) == (b, b)
    assert len(addressing._F) == len(addressing._F_INV) == 256


def first_difference_walk(got, want, start):
    """The first differing index from ``start`` by a walk in Python: the reference."""
    pairs = enumerate(zip(got, want))
    return next((i for i, (a, b) in pairs if i >= start and a != b), min(len(got), len(want)))


def test_first_difference_matches_a_walk():
    rng = random.Random(12)
    for _ in range(3000):
        got = rng.randbytes(rng.randint(1, 300))
        case = rng.choice(("changed", "prefix", "first", "last"))
        if case == "prefix":
            want = bytearray(got[: rng.randrange(len(got))])
        else:
            want = bytearray(got)
            spots = {"first": [0], "last": [len(got) - 1]}.get(case)
            for at in spots or rng.sample(range(len(got)), min(len(got), rng.randint(1, 3))):
                want[at] ^= rng.randint(1, 255)
        start = rng.randint(0, len(want))
        for a, b in ((got, want), (want, got)):
            found = addressing.first_difference(a, b, start)
            assert found == first_difference_walk(a, b, start), (case, start, a, b)

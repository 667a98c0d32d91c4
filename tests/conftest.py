import pytest

from fbar import gridfile, transtable


@pytest.fixture(scope="session")
def tt():
    return transtable.generate_tt()


@pytest.fixture(scope="session")
def tt_grouped():
    return transtable.generate_tt("grouped")


@pytest.fixture(scope="session")
def set4():
    return transtable.TtSet4.canonical()


def walked(data, magic):
    """{name: (offset, size)} of each field after the version, read
    through gridfile's field walker."""
    return {name: (at, len(field)) for name, at, field in gridfile._fields(data, magic)}


def occupant_stream(data):
    """Raw occupant stream of paper-format bytes, read through gridfile's
    field walker, which checks the fields up to it: magic, version,
    truncation and the pair count."""
    for name, _, field in gridfile._fields(data, gridfile.GRID_MAGIC):
        if name == "occupant stream":
            return bytes(field)


def strided(data):
    """A view of ``data``'s bytes that is not C-contiguous: every other
    byte of a buffer twice as long."""
    spread = bytearray(2 * len(data))
    spread[::2] = data
    return memoryview(spread)[::2]

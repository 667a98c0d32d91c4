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


def occupant_stream(data):
    """Raw occupant stream of paper-format bytes, read through gridfile's
    field table; checks magic, version and truncation only.  The reader
    refuses a version it cannot walk before the fields after it."""
    reader = gridfile._Reader(data, gridfile._PAPER_FIELDS, gridfile.GRID_MAGIC)
    for name, _ in gridfile._PAPER_FIELDS[2:]:
        field = reader.next()
        if name == "occupant stream":
            return bytes(field)

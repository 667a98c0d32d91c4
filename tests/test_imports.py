"""The modules a cold `fbar` process loads.

Each command runs in a fresh interpreter, so every module imported by
``fbar.cli`` is paid for on every call.  Heavy standard-library modules
the codec never runs must stay out of the import graph.
"""

import os
import subprocess
import sys

import fbar
from fbar import codec, transtable

# The directory this process imported fbar from: the checkout's src/ or
# an installed copy.  Each child interpreter imports fbar.cli from there,
# and checks that it did, so the checks hold for the package under test.
IMPORT_ROOT = os.path.dirname(os.path.dirname(fbar.__file__))
PRELUDE = (
    f"import sys; sys.path.insert(0, {IMPORT_ROOT!r}); import fbar.cli; "
    f"assert fbar.cli.__file__.startswith({IMPORT_ROOT!r}), fbar.cli.__file__; "
)

# dataclasses pulls in inspect and ast; fractions pulls in decimal.
# fbar.pairops is the operator algebra: the tests' oracle for F, which no
# command runs.
NOT_IMPORTED = {"dataclasses", "typing", "inspect", "ast", "fractions", "decimal", "fbar.pairops"}


def _child(code):
    """The stdout of ``code`` run after PRELUDE in a fresh ``python -S``."""
    child = subprocess.run(
        [sys.executable, "-S", "-c", PRELUDE + code], capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def _loaded_after(code):
    """The modules a fresh ``python -S`` holds after PRELUDE and ``code``."""
    return set(_child(code + "; print(chr(10).join(sorted(sys.modules)))").split())


def test_cli_import_graph_stays_light():
    loaded = _loaded_after("pass")
    assert "fbar.cli" in loaded
    assert NOT_IMPORTED & loaded == set()


def test_parser_build_stays_light():
    # Help and usage errors build the parser; argparse's help formatter
    # may load shutil, but nothing in NOT_IMPORTED loads.
    loaded = _loaded_after("fbar.cli.build_parser()")
    assert "argparse" in loaded
    assert NOT_IMPORTED & loaded == set()


def test_cli_run_leaves_shutil_out(tmp_path):
    # argparse's help formatter imports shutil (with zlib, bz2, lzma and
    # fnmatch); a plain command line builds no parser, so none of it loads.
    missing = str(tmp_path / "missing.fbar")
    loaded = _loaded_after(
        f"assert fbar.cli.main(['decompress', {missing!r}]) == fbar.cli.EXIT_UNREADABLE"
    )
    assert "shutil" not in loaded


def test_plain_cli_runs_leave_argparse_out(tmp_path):
    # A plain command line is read from the option table; argparse (with
    # gettext, re and enum) is imported only for help and usage errors.
    missing = str(tmp_path / "missing.fbar")
    small = tmp_path / "small.bin"
    small.write_bytes(b"fbar" * 64)
    loaded = _loaded_after(
        f"assert fbar.cli.main(['decompress', {missing!r}]) == fbar.cli.EXIT_UNREADABLE; "
        f"assert fbar.cli.main(['entropy', {str(small)!r}]) == fbar.cli.EXIT_OK"
    )
    assert {"argparse", "gettext"} & loaded == set()


def test_cli_help_builds_argparse():
    out = _child(
        "assert fbar.cli.main(['decompress', '--help']) == fbar.cli.EXIT_OK; "
        "assert 'argparse' in sys.modules"
    )
    assert out.startswith("usage: fbar decompress")


def test_decompress_and_honest_compress_leave_render_pieces_unbuilt(tmp_path):
    # The paper writer's render pieces are built by its first render, not
    # at import: a plain decompress, of a paper artifact too, and an
    # honest compress never render, so they must leave them unbuilt.
    tt = transtable.generate_tt()
    table = tmp_path / "tt1.bin"
    with open(table, "wb") as sink:
        transtable.serialize_binary(tt, sink)
    small = tmp_path / "small.bin"
    small.write_bytes(b"resolved! " * 40 + b"?")
    paper = tmp_path / "small.fbar"
    paper.write_bytes(codec.compress(codec.CompressJob(small.read_bytes(), tt)).artifact)
    tt_args = ["--tt", str(table)]
    plain = [
        ["decompress", str(paper), *tt_args, "--out", str(tmp_path / "out.bin")],
        ["compress", str(small), *tt_args, "--format", "honest", "--out", str(tmp_path / "h.fbar")],
    ]
    render = ["compress", str(small), *tt_args, "--out", str(tmp_path / "paper.fbar")]
    _child(
        f"assert [fbar.cli.main(argv) for argv in {plain!r}] == [fbar.cli.EXIT_OK] * 2; "
        "assert fbar.gridfile._PIECES is None; "
        # a paper compress renders, and builds them
        f"assert fbar.cli.main({render!r}) == fbar.cli.EXIT_OK; "
        "assert fbar.gridfile._PIECES is not None"
    )
    assert (tmp_path / "out.bin").read_bytes() == small.read_bytes()
    assert (tmp_path / "paper.fbar").read_bytes() == paper.read_bytes()

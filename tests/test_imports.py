"""The modules a cold `fbar` process loads.

Each command runs in a fresh interpreter, so every module imported by
``fbar.cli`` is paid for on every call.  Heavy standard-library modules
the codec never runs must stay out of the import graph.
"""

import os
import subprocess
import sys

from fbar import codec, transtable

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# dataclasses pulls in inspect and ast; fractions pulls in decimal.
# fbar.pairops is the operator algebra: the tests' oracle for F, which no
# command runs.
NOT_IMPORTED = {"dataclasses", "typing", "inspect", "ast", "fractions", "decimal", "fbar.pairops"}


def test_cli_import_graph_stays_light():
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); import fbar.cli; "
        "print(chr(10).join(sorted(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    loaded = set(out.split())
    assert "fbar.cli" in loaded
    assert NOT_IMPORTED & loaded == set()


def test_cli_run_leaves_shutil_out(tmp_path):
    # argparse's help formatter imports shutil (with zlib, bz2, lzma and
    # fnmatch); a plain command line builds no parser, so none of it loads.
    missing = str(tmp_path / "missing.fbar")
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); import fbar.cli; "
        f"assert fbar.cli.main(['decompress', {missing!r}]) == fbar.cli.EXIT_UNREADABLE; "
        "print(chr(10).join(sorted(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert "shutil" not in set(out.split())


def test_plain_cli_runs_leave_argparse_out(tmp_path):
    # A plain command line is read from the option table; argparse (with
    # gettext, re and enum) is imported only for help and usage errors.
    missing = str(tmp_path / "missing.fbar")
    small = tmp_path / "small.bin"
    small.write_bytes(b"fbar" * 64)
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); import fbar.cli; "
        f"assert fbar.cli.main(['decompress', {missing!r}]) == fbar.cli.EXIT_UNREADABLE; "
        f"assert fbar.cli.main(['entropy', {str(small)!r}]) == fbar.cli.EXIT_OK; "
        "print(chr(10).join(sorted(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert {"argparse", "gettext"} & set(out.split()) == set()


def test_cli_help_builds_argparse():
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); import fbar.cli; "
        "assert fbar.cli.main(['decompress', '--help']) == fbar.cli.EXIT_OK; "
        "assert 'argparse' in sys.modules"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
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
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); import fbar.cli; "
        f"assert [fbar.cli.main(argv) for argv in {plain!r}] == [fbar.cli.EXIT_OK] * 2; "
        "assert fbar.gridfile._PIECES is None; "
        # a paper compress renders, and builds them
        f"assert fbar.cli.main({render!r}) == fbar.cli.EXIT_OK; "
        "assert fbar.gridfile._PIECES is not None"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out.bin").read_bytes() == small.read_bytes()
    assert (tmp_path / "paper.fbar").read_bytes() == paper.read_bytes()

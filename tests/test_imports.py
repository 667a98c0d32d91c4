"""The modules a cold `fbar` process loads.

Each command runs in a fresh interpreter, so every module imported by
``fbar.cli`` is paid for on every call.  Heavy standard-library modules
the codec never runs must stay out of the import graph.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# dataclasses pulls in inspect and ast; fractions pulls in decimal.
NOT_IMPORTED = {"dataclasses", "typing", "inspect", "ast", "fractions", "decimal"}


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

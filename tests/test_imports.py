"""The modules a cold `fbar` process loads.

Each command runs in a fresh interpreter, so every module imported by
``fbar.cli`` is paid for on every call.  Heavy standard-library modules
the codec never runs must stay out of the import graph, and a command
loads only the fbar modules it runs: the package resolves its exports
on first use.
"""

import os
import subprocess
import sys
import textwrap

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
# The same, with a bare ``import fbar``.
BARE_PRELUDE = (
    f"import sys; sys.path.insert(0, {IMPORT_ROOT!r}); import fbar; "
    f"assert fbar.__file__.startswith({IMPORT_ROOT!r}), fbar.__file__; "
)
SUBMODULES = ("addressing", "cli", "codec", "gridfile", "metrics", "pairops", "transtable")

# dataclasses pulls in inspect and ast; fractions pulls in decimal.
# fbar.pairops is the operator algebra: the tests' oracle for F, which no
# command runs.
NOT_IMPORTED = {"dataclasses", "typing", "inspect", "ast", "fractions", "decimal", "fbar.pairops"}


def _child(code, prelude=PRELUDE):
    """The stdout of ``code`` run after ``prelude`` in a fresh ``python -S``."""
    child = subprocess.run(
        [sys.executable, "-S", "-c", prelude + code], capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def _loaded_after(code, prelude=PRELUDE):
    """The modules a fresh ``python -S`` holds after ``prelude`` and ``code``."""
    return set(_child(code + "; print(chr(10).join(sorted(sys.modules)))", prelude).split())


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


def test_bare_import_loads_no_submodule():
    loaded = _loaded_after("pass", BARE_PRELUDE)
    assert "fbar" in loaded
    assert {name for name in loaded if name.startswith("fbar.")} == set()


def test_table_commands_load_only_what_they_run(tmp_path):
    # gen-tt runs the table modules alone; audit runs no codec.
    tables = tmp_path / "tt"
    not_gen_tt = {"fbar.codec", "fbar.gridfile", "fbar.metrics", "array"}
    for argv, absent in (
        (["gen-tt", "--out", str(tables), "--format", "binary"], not_gen_tt),
        (["gen-tt", "--out", str(tables / "text"), "--format", "text"], not_gen_tt),
        (["audit", "--tt", str(tables / "tt1.bin")], {"fbar.codec"}),
    ):
        loaded = _loaded_after(f"assert fbar.cli.main({argv!r}) == fbar.cli.EXIT_OK")
        assert absent & loaded == set(), argv


def test_exports_resolve_to_their_modules_objects():
    # Read through the package first, each name and module is the very
    # object its defining module holds, and every submodule that names
    # it holds the same one.
    _child(textwrap.dedent(f"""
        import importlib
        exports = {{name: getattr(fbar, name) for name in fbar.__all__}}
        modules = {{name: getattr(fbar, name) for name in {SUBMODULES!r}}}
        assert set(fbar.__all__) | set(modules) <= set(dir(fbar))
        for name, module in modules.items():
            assert module is importlib.import_module("fbar." + name), name
        for name, value in exports.items():
            holders = [m for m in modules.values() if hasattr(m, name)]
            assert holders and all(getattr(m, name) is value for m in holders), name
            if callable(value):  # a class or a function: it names its module
                assert getattr(sys.modules[value.__module__], name) is value, name
    """), BARE_PRELUDE)


def test_public_names_are_pinned():
    assert set(fbar.__all__) == {
        "CompressJob", "CompressResult", "DecompressJob", "FORMAT_HONEST", "FORMAT_PAPER",
        "GridFormatError", "MODE_1TT", "MODE_4TT", "MetricsReport", "ModeMismatchError",
        "TranslationTable", "TtError", "TtFormatError", "TtSet4", "compress", "decompress",
        "generate_tt", "load_binary", "paper_size", "pigeonhole_audit", "roundtrip",
        "serialize_binary", "serialize_text", "verify_tt",
    }

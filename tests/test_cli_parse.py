"""The table-driven argv reader against argparse.

``cli._parse_fast`` reads a plain command line from the same table that
``cli.build_parser`` hands to argparse.  Whenever it answers, its answer
must be the Namespace argparse gives; for everything else it returns None
and argparse parses the line.
"""

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from fbar import cli

PARSER = cli.build_parser()


def _argparse(argv):
    try:
        return vars(PARSER.parse_args(argv))
    except SystemExit as exc:
        return f"exit {exc.code}"


COMMANDS = ("gen-tt", "compress", "decompress", "audit", "bench", "entropy")
# Each declared flag with values it accepts, and some it does not.
FLAG_VALUES = {
    "--out": ("a", "dir/b.fbar", ""),
    "--format": ("text", "binary", "paper", "honest"),
    "--count": ("1", "4", " 4", "04", "+4", "x"),
    "--layout": ("interleaved", "grouped", "x"),
    "--report": ("table", "kv", "x"),
    "--tt": ("t.bin",),
    "--mode": ("1tt", "4tt", "2tt"),
}
NAMES = ("a", "b.fbar", "4", "")
ODD = ("--out=x", "--ou", "-h", "--help", "--", "-1", "-", *FLAG_VALUES)
# The flags each command declares, so that most drawn lines parse.
OWN_FLAGS = {
    command: sorted(name for name, _ in arguments if name.startswith("--"))
    for command, (_, _, arguments) in cli._COMMANDS.items()
}


def _pairs(flags, values=None):
    return st.sampled_from(flags).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(values or FLAG_VALUES[flag]))
    )


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(COMMANDS))
    own = [_pairs(OWN_FLAGS[command])] * 6 if OWN_FLAGS[command] else []
    items = draw(
        st.lists(
            st.sampled_from((
                *own,  # mostly the command's own flags, with their values
                _pairs(sorted(FLAG_VALUES)),
                _pairs(sorted(FLAG_VALUES), ("-1", "--out", "-", *NAMES)),
                st.sampled_from(NAMES).map(lambda token: (token,)),
                st.sampled_from(ODD).map(lambda token: (token,)),
            )).flatmap(lambda item: item),
            max_size=4,
        )
    )
    # one run of positionals, placed before, between or after the options
    run = draw(st.lists(st.sampled_from(NAMES), max_size=2))
    items.insert(draw(st.integers(0, len(items))), run)
    return [command, *(token for item in items for token in item)]


@settings(max_examples=1500, deadline=None)
@given(command_lines())
@example(["compress", "a", "--count", "4"])
@example(["gen-tt", "--count", "04", "--count", "x"])
@example(["gen-tt", "--count", " 4", "--out", "d", "--count", "+4"])
@example(["bench", "a", "--tt", "t", "b"])
@example(["bench", "--mode", "4tt", "a", "b", "--tt", "t"])
@example(["entropy"])
@example(["-h"])
@example(["--help", "compress"])
@example(["nope", "a"])
@example(["decompress", "a", "--out"])
def test_fast_parse_is_argparse_or_none(argv):
    fast = cli._parse_fast(argv)
    if fast is not None:
        assert vars(fast) == _argparse(argv)


def test_empty_argv_goes_to_argparse():
    assert cli._parse_fast([]) is None


# The command lines perfbench/run.py spawns and the file round trips in
# test_cli.py run, then lines giving every other flag and an int value.
PLAIN = [
    ["gen-tt", "--out", "tables", "--format", "binary"],
    ["gen-tt", "--out", "tables/text", "--format", "text"],
    ["audit", "--tt", "tables/tt1.bin"],
    ["compress", "in/f.bin", "--tt", "tables/tt1.bin", "--out", "art/f.fbar"],
    ["decompress", "art/f.fbar", "--tt", "tables/tt1.bin", "--out", "out/f.bin"],
    *(
        [
            "compress", "input", "--tt", "tt/tt1.bin", "--mode", mode, "--format", fmt,
            "--out", f"input.{mode}.{fmt}.fbar",
        ]
        for fmt in ("paper", "honest")
        for mode in ("1tt", "4tt")
    ),
    *(
        [
            "decompress", f"input.{mode}.{fmt}.fbar", "--tt", "tt/tt1.bin",
            "--out", f"input.{mode}.{fmt}.out",
        ]
        for fmt in ("paper", "honest")
        for mode in ("1tt", "4tt")
    ),
    ["compress", "zero", "--tt", "tt/tt1.bin", "--mode", "4tt", "--format", "paper",
     "--out", "zero.4tt.fbar"],
    ["compress", "input", "--tt", "gtt/tt1.bin", "--layout", "grouped", "--out",
     "input.grouped.fbar"],
    ["decompress", "input.grouped.fbar", "--tt", "gtt/tt1.bin", "--layout", "grouped",
     "--out", "input.grouped.out"],
    ["gen-tt", "--count", "4", "--layout", "grouped", "--report", "kv"],
    ["decompress", "a", "--mode", "4tt"],
    ["bench", "a", "b", "--tt", "t", "--mode", "4tt", "--report", "kv"],
    ["entropy", "a", "b"],
]


@pytest.mark.parametrize("argv", PLAIN, ids=lambda argv: " ".join(argv))
def test_plain_command_lines_take_the_fast_path(argv):
    fast = cli._parse_fast(argv)
    assert fast is not None
    assert vars(fast) == _argparse(argv)

import os
import random

import pytest

from fbar import cli, codec, gridfile, transtable
from fbar.cli import (
    EXIT_AUDIT_FAIL,
    EXIT_BAD_ARTIFACT,
    EXIT_MODE_MISMATCH,
    EXIT_NO_TT,
    EXIT_OK,
    EXIT_UNREADABLE,
    EXIT_USAGE,
    main,
)
from fbar.codec import CompressJob
from fbar.gridfile import MODE_1TT, MODE_4TT
from conftest import occupant_stream
from test_gridfile import OCCUPANT_AT
from test_readme import README


@pytest.fixture(scope="module")
def tt_file(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tables")
    assert main(["gen-tt", "--out", str(directory), "--format", "binary"]) == EXIT_OK
    return str(directory / "tt1.bin")


@pytest.fixture()
def no_tt_env(monkeypatch):
    monkeypatch.delenv(cli.TT_DIR_ENV, raising=False)


def test_gen_tt_text_is_8mib(tmp_path, capsys):
    assert main(["gen-tt", "--out", str(tmp_path), "--format", "text"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "8388608 bytes" in out
    assert os.path.getsize(tmp_path / "tt1.txt") == 8388608


@pytest.mark.parametrize("layout", ["interleaved", "grouped"])
def test_gen_tt_report_kv_names_each_table(tmp_path, capsys, layout):
    argv = ["gen-tt", "--out", str(tmp_path), "--count", "4", "--layout", layout]
    assert main(argv) == EXIT_OK
    paths = [tmp_path / f"tt{n}.bin" for n in range(1, 5)]
    assert capsys.readouterr().out == "".join(
        f"wrote {path}: 262149 bytes, 65536 rows, verified\n" for path in paths
    )
    assert main(argv + ["--report", "kv"]) == EXIT_OK
    assert capsys.readouterr().out == "".join(
        f"path={path} bytes=262149 rows=65536 layout={layout}\n" for path in paths
    )
    assert all(os.path.getsize(path) == 262149 for path in paths)


def test_gen_tt_binary_count_4(tmp_path):
    assert main(
        ["gen-tt", "--out", str(tmp_path), "--format", "binary", "--count", "4"]
    ) == EXIT_OK
    for n in range(1, 5):
        path = tmp_path / f"tt{n}.bin"
        assert os.path.getsize(path) == 5 + 4 * 65536
        with open(path, "rb") as fh:
            tt = transtable.load_binary(fh)
        assert transtable.verify_tt(tt).ok


def test_gen_tt_unwritable_destination(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["gen-tt", "--out", str(blocker / "sub")]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_compress_decompress_cycle(tmp_path, tt_file, capsys, no_tt_env):
    source = tmp_path / "sample.txt"
    payload = b"resolved resolved resolved!" * 10 + b"\x00\xff odd"
    source.write_bytes(payload)
    artifact = tmp_path / "sample.fbar"
    assert main(
        ["compress", str(source), "--out", str(artifact), "--tt", tt_file]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert "honest_size" in out or "honest" in out

    restored = tmp_path / "restored.bin"
    assert main(
        ["decompress", str(artifact), "--out", str(restored), "--tt", tt_file]
    ) == EXIT_OK
    assert restored.read_bytes() == payload


def test_compress_4tt_honest(tmp_path, tt_file, no_tt_env):
    source = tmp_path / "four.bin"
    source.write_bytes(bytes(range(64)))
    artifact = tmp_path / "four.fbar"
    assert main(
        [
            "compress", str(source), "--out", str(artifact), "--tt", tt_file,
            "--mode", "4tt", "--format", "honest", "--report", "kv",
        ]
    ) == EXIT_OK
    restored = tmp_path / "four.out"
    assert main(
        ["decompress", str(artifact), "--out", str(restored), "--tt", tt_file]
    ) == EXIT_OK
    assert restored.read_bytes() == bytes(range(64))


def test_missing_tt_exit_code(tmp_path, capsys, no_tt_env):
    source = tmp_path / "x.bin"
    source.write_bytes(b"12")
    assert main(["compress", str(source)]) == EXIT_NO_TT
    assert "translation table" in capsys.readouterr().err


def test_tt_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.TT_DIR_ENV, str(tmp_path))
    assert main(["gen-tt", "--format", "binary"]) == EXIT_OK
    source = tmp_path / "data.bin"
    source.write_bytes(b"environment lookup")
    assert main(["compress", str(source), "--out", str(tmp_path / "a.fbar")]) == EXIT_OK


def test_decompress_bad_artifact(tmp_path, tt_file, capsys, no_tt_env):
    bogus = tmp_path / "bogus.fbar"
    bogus.write_bytes(b"not an artifact at all")
    assert main(["decompress", str(bogus), "--tt", tt_file]) == EXIT_BAD_ARTIFACT


def test_decompress_truncated_artifact(tmp_path, tt_file, no_tt_env):
    source = tmp_path / "t.bin"
    source.write_bytes(b"truncate me please")
    artifact = tmp_path / "t.fbar"
    assert main(
        ["compress", str(source), "--out", str(artifact), "--tt", tt_file]
    ) == EXIT_OK
    clipped = artifact.read_bytes()[:-5]
    artifact.write_bytes(clipped)
    assert main(["decompress", str(artifact), "--tt", tt_file]) == EXIT_BAD_ARTIFACT


def test_decompress_mode_mismatch(tmp_path, tt_file, no_tt_env):
    source = tmp_path / "m.bin"
    source.write_bytes(b"mode check")
    artifact = tmp_path / "m.fbar"
    assert main(
        ["compress", str(source), "--out", str(artifact), "--tt", tt_file]
    ) == EXIT_OK
    assert main(
        ["decompress", str(artifact), "--tt", tt_file, "--mode", "4tt"]
    ) == EXIT_MODE_MISMATCH


@pytest.mark.parametrize("fmt", ["paper", "honest"])
def test_decompress_4tt_reads_mode_from_artifact(tmp_path, tt_file, fmt, no_tt_env):
    source = tmp_path / "four.bin"
    payload = b"eight-byte chunks, one table" * 5 + b"!"
    source.write_bytes(payload)
    artifact = tmp_path / "four.fbar"
    assert main(
        [
            "compress", str(source), "--out", str(artifact), "--tt", tt_file,
            "--mode", "4tt", "--format", fmt,
        ]
    ) == EXIT_OK
    restored = tmp_path / "restored.bin"
    assert main(
        ["decompress", str(artifact), "--out", str(restored), "--tt", tt_file]
    ) == EXIT_OK
    assert restored.read_bytes() == payload
    if fmt == "paper":
        assert main(
            ["decompress", str(artifact), "--tt", tt_file, "--mode", "1tt"]
        ) == EXIT_MODE_MISMATCH


def test_audit_ok(tt_file, capsys, no_tt_env):
    assert main(["audit", "--tt", tt_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "bijection over 65536 pairs: OK" in out
    assert "collision witness" in out
    assert "16 bits/pair" in out


def test_audit_mutated_table(tmp_path, tt_file, capsys, no_tt_env):
    with open(tt_file, "rb") as f:
        data = bytearray(f.read())
    row = 100
    data[5 + 4 * row + 2] ^= 0x20  # flip a bit inside the original pair
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(data))
    assert main(["audit", "--tt", str(bad)]) == EXIT_AUDIT_FAIL
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert f"row {row}" in out


def test_bench_table(tmp_path, tt_file, capsys, no_tt_env):
    files = []
    for name, blob in (("a.txt", b"hello world " * 400), ("b.bin", bytes(range(256)))):
        path = tmp_path / name
        path.write_bytes(blob)
        files.append(str(path))
    assert main(["bench", *files, "--tt", tt_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "a.txt" in out and "b.bin" in out
    assert "Total" in out


def test_bench_marks_unreadable_file(tmp_path, tt_file, capsys, no_tt_env):
    good = tmp_path / "good.txt"
    good.write_bytes(b"fine")
    missing = tmp_path / "missing.txt"
    assert main(
        ["bench", str(good), str(missing), "--tt", tt_file]
    ) == EXIT_UNREADABLE
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert "good.txt" in out


def test_bench_table_failing_verification(tmp_path, capsys, no_tt_env):
    # a grouped table read as interleaved fails verification before any file
    assert main(
        ["gen-tt", "--out", str(tmp_path), "--format", "binary", "--layout", "grouped"]
    ) == EXIT_OK
    files = []
    for name in ("a.txt", "b.txt"):
        (tmp_path / name).write_bytes(b"never compressed")
        files.append(str(tmp_path / name))
    capsys.readouterr()
    assert main(["bench", *files, "--tt", str(tmp_path / "tt1.bin")]) == EXIT_AUDIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: table failed verification: row ")
    assert len(captured.err.splitlines()) == 1


def test_entropy_command(tmp_path, capsys):
    flat = tmp_path / "flat.bin"
    flat.write_bytes(b"a" * 100)
    mixed = tmp_path / "mixed.bin"
    mixed.write_bytes(bytes(range(256)))
    skewed = tmp_path / "skewed.bin"
    skewed.write_bytes(b"aab")
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    missing = tmp_path / "missing.bin"
    files = [flat, mixed, missing, skewed, empty]
    # an unreadable file gets its own line and exit 6; the others are still measured
    assert main(["entropy", *map(str, files)]) == EXIT_UNREADABLE
    lines = capsys.readouterr().out.splitlines()
    assert lines.pop(2).startswith(f"{missing}: unreadable (")
    assert lines == [
        f"{flat}: 100 bytes, 1 symbols, empirical H 0.0000 bits/byte, log2(m) 0.0000 bpc",
        f"{mixed}: 256 bytes, 256 symbols, empirical H 8.0000 bits/byte, log2(m) 8.0000 bpc",
        f"{skewed}: 3 bytes, 2 symbols, empirical H 0.9183 bits/byte, log2(m) 1.0000 bpc",
        f"{empty}: 0 bytes, 0 symbols, empirical H 0.0000 bits/byte, log2(m) 0.0000 bpc",
    ]


def test_grouped_layout_cycle(tmp_path, no_tt_env):
    tables = tmp_path / "grouped"
    assert main(
        ["gen-tt", "--out", str(tables), "--format", "binary", "--layout", "grouped"]
    ) == EXIT_OK
    tt_path = str(tables / "tt1.bin")
    source = tmp_path / "g.bin"
    source.write_bytes(b"grouped layout end to end")
    artifact = tmp_path / "g.fbar"
    common = ["--tt", tt_path, "--layout", "grouped"]
    assert main(["compress", str(source), "--out", str(artifact), *common]) == EXIT_OK
    restored = tmp_path / "g.out"
    assert main(
        ["decompress", str(artifact), "--out", str(restored), *common]
    ) == EXIT_OK
    assert restored.read_bytes() == source.read_bytes()
    # the same file audited under the wrong layout is caught
    assert main(["audit", "--tt", tt_path]) == EXIT_AUDIT_FAIL
    assert main(["audit", "--tt", tt_path, "--layout", "grouped"]) == EXIT_OK


def test_kv_report(tmp_path, tt_file, capsys, no_tt_env):
    source = tmp_path / "kv.bin"
    source.write_bytes(b"key value output")
    assert main(
        [
            "compress", str(source), "--out", str(tmp_path / "kv.fbar"),
            "--tt", tt_file, "--report", "kv",
        ]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert "paper_size_1tt=" in out
    assert "space_savings_paper=" in out


@pytest.fixture(scope="module")
def failure_dir(tmp_path_factory):
    """Tables, inputs and artifacts that the failure cases name by relative path."""
    directory = tmp_path_factory.mktemp("failures")
    for layout in ("interleaved", "grouped"):
        assert main(["gen-tt", "--out", str(directory / layout), "--layout", layout]) == EXIT_OK
    (directory / "in.txt").write_bytes(b"resolved resolved")
    (directory / "bad.bin").write_bytes(b"junk" * 10)
    (directory / "blocker").write_bytes(b"x")
    artifact = directory / "in.fbar"
    assert main(
        ["compress", str(directory / "in.txt"), "--out", str(artifact),
         "--tt", str(directory / "interleaved" / "tt1.bin")]
    ) == EXIT_OK
    (directory / "short.fbar").write_bytes(artifact.read_bytes()[:-5])
    table = bytearray((directory / "interleaved" / "tt1.bin").read_bytes())
    table[5:9], table[9:13] = table[9:13], table[5:9]  # records 0 and 1
    (directory / "swapped.bin").write_bytes(table)
    return directory


_TT = ("--tt", "interleaved/tt1.bin")
_NO_FILE = "[Errno 2] No such file or directory"
_NOT_DIR = "[Errno 20] Not a directory"
# Each failure: the command line, its exit status and its one stderr line.
FAILURES = {
    "no table": (["compress", "in.txt"], EXIT_NO_TT,
                 "error: no translation table; pass --tt or set $FBAR_TT_DIR"),
    "table not found": (["audit", "--tt", "missing.bin"], EXIT_NO_TT,
                        "error: translation table not found: missing.bin"),
    "table unloadable": (["bench", "in.txt", "--tt", "bad.bin"], EXIT_NO_TT,
                         "error: cannot load translation table bad.bin: "
                         "bad magic b'junk' (at byte offset 0)"),
    "table records swapped": (["audit", "--tt", "swapped.bin"], EXIT_NO_TT,
                              "error: cannot load translation table swapped.bin: "
                              "record 0 holds row 1, expected row 0 (at byte offset 5)"),
    "unreadable input": (["compress", "missing.txt", *_TT], EXIT_UNREADABLE,
                         f"error: cannot read missing.txt: {_NO_FILE}: 'missing.txt'"),
    "unreadable artifact": (["decompress", "missing.fbar", "--tt", "missing.bin"],
                            EXIT_UNREADABLE,
                            f"error: cannot read missing.fbar: {_NO_FILE}: 'missing.fbar'"),
    "unwritable out": (["compress", "in.txt", "--out", "blocker/in.fbar", *_TT], EXIT_USAGE,
                       f"error: cannot write blocker/in.fbar: {_NOT_DIR}: 'blocker/in.fbar'"),
    "unwritable decompress out": (
        ["decompress", "in.fbar", "--out", "blocker/in.txt", *_TT], EXIT_USAGE,
        f"error: cannot write blocker/in.txt: {_NOT_DIR}: 'blocker/in.txt'"),
    "gen-tt uncreatable directory": (
        ["gen-tt", "--out", "blocker/tables"], EXIT_USAGE,
        f"error: cannot create blocker/tables: {_NOT_DIR}: 'blocker/tables'"),
    # a table that fails verification stops either command before it
    # writes its output
    "verification failure": (
        ["decompress", "in.fbar", "--tt", "grouped/tt1.bin", "--out", "gate.out"],
        EXIT_AUDIT_FAIL, "error: table failed verification: row 16 holds 5655, expected 5557"),
    "compress verification failure": (
        ["compress", "in.txt", "--tt", "grouped/tt1.bin", "--out", "gate.fbar"],
        EXIT_AUDIT_FAIL, "error: table failed verification: row 16 holds 5655, expected 5557"),
    "compress reads its input before verifying": (
        ["compress", "missing.txt", "--tt", "grouped/tt1.bin"], EXIT_UNREADABLE,
        f"error: cannot read missing.txt: {_NO_FILE}: 'missing.txt'"),
    "unrecognized artifact": (["decompress", "in.txt", "--tt", "missing.bin"],
                              EXIT_BAD_ARTIFACT,
                              "error: in.txt is not a recognized artifact"),
    "malformed artifact": (
        ["decompress", "short.fbar", *_TT], EXIT_BAD_ARTIFACT,
        "error: malformed artifact: truncated in address channel at byte offset 65588"),
    "mode mismatch": (["decompress", "in.fbar", "--mode", "4tt", *_TT], EXIT_MODE_MISMATCH,
                      "error: artifact mode 1tt does not match requested 4tt"),
}


@pytest.mark.parametrize("case", FAILURES)
def test_failure_prints_one_error_line(case, failure_dir, monkeypatch, capsys, no_tt_env):
    argv, status, line = FAILURES[case]
    monkeypatch.chdir(failure_dir)
    assert main(argv) == status
    assert capsys.readouterr() == ("", line + "\n")
    if "--out" in argv:
        assert not os.path.exists(argv[argv.index("--out") + 1])


def test_bad_choice_is_a_usage_error_naming_the_option(capsys):
    argv = ["compress", "input", "--tt", "tt/tt1.bin", "--mode", "2tt"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --mode: invalid choice" in captured.err


def _masked(row):
    """A bench table row with its timed columns (t_c, t_d, MB/s) blanked."""
    return f"{row[:28]}{'~' * 8}{row[36]}{'~' * 8}{row[45:-8]}{'~' * 8}"


def test_bench_table_layout(tmp_path, tt_file, monkeypatch, capsys, no_tt_env):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.txt").write_bytes(b"hello world " * 400)
    (tmp_path / "b.bin").write_bytes(bytes(range(256)))
    assert main(["bench", "a.txt", "b.bin", "missing.txt", "--tt", tt_file]) == EXIT_UNREADABLE
    header, rule, *rows, failed = capsys.readouterr().out.splitlines()
    assert header == (
        "file               size KiB    t_c s    t_d s      1TT:4TT KiB  honest KiB   H b/B     MB/s"
    )
    assert rule == "-" * len(header)
    assert [_masked(row) for row in rows] == [
        "a.txt                  4.69 ~~~~~~~~ ~~~~~~~~     2.37:0.59           4.69   2.855 ~~~~~~~~",
        "b.bin                  0.25 ~~~~~~~~ ~~~~~~~~     0.13:0.03           0.25   8.000 ~~~~~~~~",
        "Total                  4.94 ~~~~~~~~ ~~~~~~~~     2.50:0.62           4.94         ~~~~~~~~",
    ]
    assert failed == f"missing.txt      FAILED: {_NO_FILE}: 'missing.txt'"


def test_bench_kv_lines_all_start_with_file(tmp_path, tt_file, monkeypatch, capsys, no_tt_env):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.txt").write_bytes(b"hello world " * 400)
    argv = ["bench", "a.txt", "missing.txt", "--tt", tt_file, "--report", "kv"]
    assert main(argv) == EXIT_UNREADABLE
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("file=") for line in lines)
    # the message may hold spaces, so ``failed`` is the last key
    assert lines[1] == f"file=missing.txt failed={_NO_FILE}: 'missing.txt'"


COMMANDS = ("gen-tt", "compress", "decompress", "audit", "bench", "entropy")


def _help_texts(capsys):
    texts = []
    for argv in [["--help"]] + [[command, "--help"] for command in COMMANDS]:
        assert main(argv) == EXIT_OK
        texts.append(capsys.readouterr().out)
    return texts


def test_help_follows_columns(monkeypatch, capsys):
    by_width = {}
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        by_width[columns] = _help_texts(capsys)
    assert by_width["60"] != by_width["120"]


def _inputs():
    with open(README, "rb") as fh:
        text = fh.read()
    chunks = random.Random(22)
    return {
        # an odd and an even length: with and without the tail byte
        "odd": text[:5001],
        "even": text[:5000],
        # every paper block one unit; 50,001 rows leave a partial last
        # 4tt unit, and the odd last byte is the tail
        "zero": bytes(100003),
        # 95 distinct pairs: one exactly full 1tt block, which keeps its separator
        "full": bytes(range(190)),
        # runs of one repeated unit that cover whole 8 KiB spans and end
        # mid-span, with the tail byte last
        "runs": bytes(20480) + random.Random(19).randbytes(8192) + (b"AB" * 10001)[:20001],
        # a run that starts at a separator-cycle phase other than 0 and
        # holds whole chunks of one-unit blocks in both modes
        "chunks": chunks.randbytes(3001) + bytes(65536) + chunks.randbytes(999),
    }


INPUTS = _inputs()


@pytest.fixture(scope="module")
def layout_tables(tmp_path_factory):
    directory = tmp_path_factory.mktemp("layouts")
    for layout in ("interleaved", "grouped"):
        assert main(["gen-tt", "--out", str(directory / layout), "--layout", layout]) == EXIT_OK
    return directory


@pytest.mark.parametrize("fmt", codec.FORMATS)
@pytest.mark.parametrize("mode", (MODE_1TT, MODE_4TT))
@pytest.mark.parametrize("layout", ("interleaved", "grouped"))
@pytest.mark.parametrize("name", INPUTS)
def test_file_round_trip(name, layout, mode, fmt, layout_tables, tmp_path, no_tt_env):
    # every step names the layout; decompress takes the mode from the artifact
    common = ["--tt", str(layout_tables / layout / "tt1.bin"), "--layout", layout]
    source, artifact, restored = (tmp_path / f for f in ("in", "in.fbar", "in.out"))
    source.write_bytes(INPUTS[name])
    assert main(["compress", str(source), "--mode", mode, "--format", fmt,
                 "--out", str(artifact), *common]) == EXIT_OK
    assert main(["decompress", str(artifact), "--out", str(restored), *common]) == EXIT_OK
    assert restored.read_bytes() == INPUTS[name]


def _flip(data, at):
    return data[:at] + bytes((data[at] ^ 1,)) + data[at + 1 :]


@pytest.fixture(scope="module")
def broken_artifacts(tt):
    """Interleaved artifacts one edit away from valid, by name."""
    broken = {}
    for mode in (MODE_1TT, MODE_4TT):
        # one changed occupant byte, and the first separator deleted or
        # doubled, with the length prefix mended
        paper = codec.compress(CompressJob(INPUTS["odd"], tt, mode)).artifact
        size = len(occupant_stream(paper))
        sep = next(i for i in range(OCCUPANT_AT, OCCUPANT_AT + size) if paper[i] < 32)
        head = paper[: OCCUPANT_AT - 8]
        broken[f"changed.{mode}"] = _flip(paper, OCCUPANT_AT + 7)
        broken[f"cut.{mode}"] = (head + (size - 1).to_bytes(8, "big")
                                 + paper[OCCUPANT_AT:sep] + paper[sep + 1 :])
        broken[f"doubled.{mode}"] = (head + (size + 1).to_bytes(8, "big")
                                     + paper[OCCUPANT_AT : sep + 1] + paper[sep:])
        # one byte cut from or appended to an honest artifact
        honest = codec.compress(CompressJob(INPUTS["odd"], tt, mode, codec.FORMAT_HONEST)).artifact
        broken[f"short.{mode}"] = honest[:-1]
        broken[f"long.{mode}"] = honest + b"x"
        # the first and last occupant byte and the last separator of
        # 50,001 one-unit 1tt blocks or 12,501 4tt ones; in 1tt, whose
        # stream the parser checks in many spans, each byte next to the
        # first span boundary too
        zero = codec.compress(CompressJob(INPUTS["zero"], tt, mode)).artifact
        end = OCCUPANT_AT + len(occupant_stream(zero))
        last_sep = next(i for i in reversed(range(OCCUPANT_AT, end)) if zero[i] < 32)
        for bad, at in (("first", OCCUPANT_AT), ("last", end - 1), ("lastsep", last_sep)):
            broken[f"{bad}.{mode}"] = _flip(zero, at)
        if mode == MODE_1TT:
            assert end - OCCUPANT_AT > 2 * gridfile._SPAN
            for bad, at in (("span-1", -1), ("span", 0), ("span+1", 1)):
                broken[f"{bad}.{mode}"] = _flip(zero, OCCUPANT_AT + gridfile._SPAN + at)
    # separator 31 before the first chunk of one-unit blocks that the
    # parser sets aside, that chunk's first byte, and the byte after the
    # last such chunk
    chunks = codec.compress(CompressJob(INPUTS["chunks"], tt)).artifact
    occupant, chunk = occupant_stream(chunks), gridfile._ONE_UNIT_CHUNK
    first = occupant.find(b"\x1f" + chunk) + 1
    after = first
    while occupant.startswith(chunk, after, len(occupant) - 1):
        after += len(chunk)
    assert first > 0 and after - first >= 2 * len(chunk)
    for bad, at in (("sep31", first - 1), ("copy", first), ("after", after)):
        broken[f"chunks-{bad}.1tt"] = _flip(chunks, OCCUPANT_AT + at)
    return broken


BROKEN = (
    *(f"{bad}.{mode}" for bad in ("changed", "cut", "doubled", "short", "long",
                                  "first", "last", "lastsep") for mode in ("1tt", "4tt")),
    "span-1.1tt", "span.1tt", "span+1.1tt", "chunks-sep31.1tt", "chunks-copy.1tt",
    "chunks-after.1tt",
)


@pytest.mark.parametrize("name", BROKEN)
def test_broken_artifact_exits_4_naming_its_offset(name, broken_artifacts, tt_file, tmp_path,
                                                    capsys, no_tt_env):
    artifact, out = tmp_path / "broken.fbar", tmp_path / "broken.out"
    artifact.write_bytes(broken_artifacts[name])
    assert main(["decompress", str(artifact), "--tt", tt_file, "--out", str(out)]) == EXIT_BAD_ARTIFACT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed artifact: ")
    assert captured.err.count("\n") == 1 and "at byte offset" in captured.err
    if name.startswith("doubled"):
        assert "separator without preceding occupant chars" in captured.err
    assert not out.exists()

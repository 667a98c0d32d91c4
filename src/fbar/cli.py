"""Command-line surface: gen-tt, compress, decompress, audit, bench, entropy.

Each command's arguments are declared once, in ``_COMMANDS``.  A plain
command line is read straight from that table.  argparse is imported, and
builds its parser from the same table, only for help and for lines that
need its rules or its usage errors; its stock formatter lays out the help.

A command imports the codec, the artifact formats and the metrics
inside its handler, when it runs them: gen-tt loads none of them, and
audit no codec.  Mode, format and layout choices come from ``addressing``.

A command that cannot finish raises ``_Failure``, and ``main`` prints its
one ``error:`` line on stderr.  Exit codes:
    0  success
    1  audit or verification failure
    2  usage error / unwritable destination
    3  translation table missing or unloadable
    4  malformed artifact
    5  mode mismatch
    6  input file unreadable
"""

import os
import sys
import time

from . import addressing, transtable
from .transtable import TtError, TtFormatError

EXIT_OK = 0
EXIT_AUDIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NO_TT = 3
EXIT_BAD_ARTIFACT = 4
EXIT_MODE_MISMATCH = 5
EXIT_UNREADABLE = 6

TT_DIR_ENV = "FBAR_TT_DIR"
_TT_BASENAME = "tt1.bin"


class _Failure(Exception):
    """A command's failure: main prints ``error: <message>`` and returns ``code``."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _Failure(EXIT_UNREADABLE, f"cannot read {path}: {exc}")


def _write(path, writer, *args):
    """Open ``path`` for writing and return ``writer(*args, fh)``."""
    try:
        with open(path, "wb") as fh:
            return writer(*args, fh)
    except (OSError, TtError) as exc:
        raise _Failure(EXIT_USAGE, f"cannot write {path}: {exc}")


def _put(data, fh):
    return fh.write(data)


def _load_tables(args):
    """The translation table named by --tt or $FBAR_TT_DIR; it serves every mode."""
    tt_dir = os.environ.get(TT_DIR_ENV)
    path = args.tt or (tt_dir and os.path.join(tt_dir, _TT_BASENAME))
    if not path:
        raise _Failure(EXIT_NO_TT, f"no translation table; pass --tt or set ${TT_DIR_ENV}")
    try:
        with open(path, "rb") as fh:
            return transtable.load_binary(fh, layout=args.layout)
    except FileNotFoundError:
        raise _Failure(EXIT_NO_TT, f"translation table not found: {path}")
    except (OSError, TtFormatError) as exc:
        raise _Failure(EXIT_NO_TT, f"cannot load translation table {path}: {exc}")


def _verified(tt):
    """``tt``, once it passes verification."""
    try:
        tt.ensure_verified()
    except TtError as exc:
        raise _Failure(EXIT_AUDIT_FAIL, str(exc))
    return tt


def cmd_gen_tt(args):
    out_dir = args.out or os.environ.get(TT_DIR_ENV) or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise _Failure(EXIT_USAGE, f"cannot create {out_dir}: {exc}")
    tt = _verified(transtable.generate_tt(args.layout))
    ext = "txt" if args.format == "text" else "bin"
    writer = (
        transtable.serialize_text if args.format == "text" else transtable.serialize_binary
    )
    for n in range(1, args.count + 1):
        path = os.path.join(out_dir, f"tt{n}.{ext}")
        written = _write(path, writer, tt)
        if args.report == "kv":
            print(f"path={path} bytes={written} rows={tt.row_count} layout={tt.layout}")
        else:
            print(f"wrote {path}: {written} bytes, {tt.row_count} rows, verified")
    return EXIT_OK


def cmd_compress(args):
    from . import codec

    tables = _load_tables(args)
    data = _read(args.input)
    result = codec.compress(
        codec.CompressJob(data=data, tables=_verified(tables), mode=args.mode, fmt=args.format)
    )
    out_path = args.out or args.input + ".fbar"
    _write(out_path, _put, result.artifact)
    print(f"compressed {args.input} -> {out_path}")
    print(result.report.render_kv() if args.report == "kv" else result.report.render_table())
    return EXIT_OK


def cmd_decompress(args):
    from . import codec, gridfile

    artifact = _read(args.input)
    if gridfile.artifact_kind(artifact) is None:
        raise _Failure(EXIT_BAD_ARTIFACT, f"{args.input} is not a recognized artifact")
    tt = _verified(_load_tables(args))  # keep verification out of the timed region
    start = time.perf_counter()
    try:
        data = codec.decompress(codec.DecompressJob(artifact=artifact, tables=tt, mode=args.mode))
    except codec.ModeMismatchError as exc:
        raise _Failure(EXIT_MODE_MISMATCH, str(exc))
    except gridfile.GridFormatError as exc:
        raise _Failure(EXIT_BAD_ARTIFACT, f"malformed artifact: {exc}")
    elapsed = time.perf_counter() - start
    out_path = args.out or (
        args.input[: -len(".fbar")] if args.input.endswith(".fbar") else args.input + ".out"
    )
    _write(out_path, _put, data)
    print(f"decompressed {args.input} -> {out_path} ({len(data)} bytes, {elapsed:.4f}s)")
    return EXIT_OK


def cmd_audit(args):
    from . import metrics

    report = metrics.pigeonhole_audit(_load_tables(args))
    print(f"bijection over 65536 pairs: {'OK' if report.bijection_ok else 'FAILED'}")
    if not report.bijection_ok:
        for row, message in report.violations[:8]:
            print(f"  violation at row {row}: {message}")
    if report.collision_witness:
        a, b, stream = report.collision_witness
        print(
            f"occupant-only collision witness: inputs {a!r} and {b!r} "
            f"share occupant stream {stream!r}"
        )
    bits = report.channel_bits
    print(
        f"address channel carries {bits['address_bits_per_pair']} bits/pair; "
        f"occupant stream {bits['occupant_bits_per_pair']} bits/pair; "
        f"grid region {bits['grid_region_bits']} bits/artifact"
    )
    return EXIT_OK if report.bijection_ok else EXIT_AUDIT_FAIL


def _bench_row(path, tables, mode):
    from . import codec

    with open(path, "rb") as fh:
        data = fh.read()
    result = codec.compress(codec.CompressJob(data=data, tables=tables, mode=mode))
    start = time.perf_counter()
    restored = codec.decompress(codec.DecompressJob(artifact=result.artifact, tables=tables))
    t_d = time.perf_counter() - start
    if restored != data:
        raise RuntimeError(f"round-trip mismatch on {path}")
    return {
        "file": os.path.basename(path),
        "size": len(data),
        "t_c": result.report.elapsed,
        "t_d": t_d,
        "p1": result.report.paper_size_1tt,
        "p4": result.report.paper_size_4tt,
        "honest": result.report.honest_size,
        "H": result.report.empirical_H,
    }


def _bench_line(r):
    """One line of the bench table: a file's row, or the total, which has no H."""
    mbps = r["size"] / r["t_c"] / 1e6 if r["t_c"] > 0 else 0.0
    h = f"{r['H']:.3f}" if "H" in r else ""
    return (
        f"{r['file']:<16} {r['size'] / 1024:>10.2f} {r['t_c']:>8.3f} {r['t_d']:>8.3f} "
        f"{r['p1'] / 1024:>8.2f}:{r['p4'] / 1024:<7.2f} "
        f"{r['honest'] / 1024:>11.2f} {h:>7} {mbps:>8.2f}"
    )


def cmd_bench(args):
    from . import gridfile

    tables = _verified(_load_tables(args))
    rows, failed = [], []
    for path in args.files:
        try:
            rows.append(_bench_row(path, tables, args.mode))
        except (OSError, RuntimeError, gridfile.GridFormatError) as exc:
            failed.append((path, str(exc)))
    if args.report == "kv":
        for r in rows:
            print(
                f"file={r['file']} size={r['size']} t_c={r['t_c']:.4f} "
                f"t_d={r['t_d']:.4f} paper_1tt={r['p1']} paper_4tt={r['p4']} "
                f"honest={r['honest']} H={r['H']:.4f}"
            )
    else:
        header = (
            f"{'file':<16} {'size KiB':>10} {'t_c s':>8} {'t_d s':>8} "
            f"{'1TT:4TT KiB':>16} {'honest KiB':>11} {'H b/B':>7} {'MB/s':>8}"
        )
        print(header)
        print("-" * len(header))
        for r in rows:
            print(_bench_line(r))
        if rows:
            summed = ("size", "t_c", "t_d", "p1", "p4", "honest")
            total = {key: sum(r[key] for r in rows) for key in summed}
            print(_bench_line({"file": "Total", **total}))
    for path, message in failed:
        name = os.path.basename(path)
        if args.report == "kv":
            print(f"file={name} failed={message}")
        else:
            print(f"{name:<16} FAILED: {message}")
    return EXIT_UNREADABLE if failed else EXIT_OK


def cmd_entropy(args):
    from . import metrics

    status = EXIT_OK
    for path in args.files:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            print(f"{path}: unreadable ({exc})")
            status = EXIT_UNREADABLE
            continue
        distinct, h0, h = metrics.order0(data)
        print(
            f"{path}: {len(data)} bytes, {distinct} symbols, "
            f"empirical H {h:.4f} bits/byte, log2(m) {h0:.4f} bpc"
        )
    return status


_LAYOUT = ("--layout", {
    "choices": addressing.LAYOUTS, "default": "interleaved",
    "help": "address coordinate layout (must match end to end)",
})
_REPORT = ("--report", {"choices": ("table", "kv"), "default": "table", "help": "report rendering"})
_COMMON = (
    ("--tt", {"help": f"translation table file (default ${TT_DIR_ENV}/{_TT_BASENAME})"}),
    _LAYOUT,
    _REPORT,
)
_MODE = ("--mode", {"choices": addressing.MODES, "default": addressing.MODE_1TT})
_FILES = ("files", {"nargs": "+"})

# Every command's summary, handler and arguments, each argument as the
# name and keywords that argparse's add_argument takes. build_parser hands
# them to argparse; _parse_fast reads them without it.
_COMMANDS = {
    "gen-tt": ("generate translation table file(s)", cmd_gen_tt, (
        ("--out", {"help": f"output directory (default ${TT_DIR_ENV} or .)"}),
        ("--format", {"choices": ("text", "binary"), "default": "binary"}),
        ("--count", {"type": int, "choices": (1, 4), "default": 1}),
        _LAYOUT,
        _REPORT,
    )),
    "compress": ("compress a file", cmd_compress, (
        ("input", {}),
        ("--out", {"help": "artifact path (default INPUT.fbar)"}),
        _MODE,
        ("--format", {"choices": addressing.FORMATS, "default": addressing.FORMAT_PAPER}),
        *_COMMON,
    )),
    "decompress": ("decompress an artifact", cmd_decompress, (
        ("input", {}),
        ("--out", {"help": "output path (default strips .fbar)"}),
        ("--mode", {
            "choices": addressing.MODES, "default": None,
            "help": "require this mode; error if the artifact disagrees",
        }),
        *_COMMON,
    )),
    "audit": ("audit a translation table", cmd_audit, _COMMON),
    "bench": ("measure the codec over a corpus", cmd_bench, (_FILES, _MODE, *_COMMON)),
    "entropy": ("order-0 entropy of files", cmd_entropy, (_FILES,)),
}


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="fbar",
        description="Fixed-codebook bit-pair codec with honest accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, kwargs in arguments:
            p.add_argument(name, **kwargs)
        p.set_defaults(func=func)
    return parser


class _Namespace:
    """The attributes argparse's Namespace holds, without importing argparse."""

    def __init__(self, values):
        self.__dict__.update(values)


def _parse_fast(argv):
    """What build_parser().parse_args(argv) returns, for argv in plain form.

    The plain form is ``COMMAND (POSITIONAL | --FLAG VALUE)*``: every flag
    spelled in full, no other token starting with "-", each value of the
    argument's type and among its choices, and the positionals one run of
    the count their nargs takes.  Anything else (help, ``--flag=value``,
    abbreviations, ``--``, a missing or bad value) returns None, and
    argparse parses it, with its own help, messages and exit status.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    flags = {name: (name[2:].replace("-", "_"), kw) for name, kw in arguments if name[0] == "-"}
    values = {dest: kw.get("default") for dest, kw in flags.values()}
    given, closed = [], False
    rest = iter(argv[1:])
    for token in rest:
        if token in flags:
            dest, kw = flags[token]
            value = next(rest, "-")  # a missing value reads as "-"
            if value[:1] == "-":
                return None
            try:
                value = kw.get("type", str)(value)
            except ValueError:
                return None
            if value not in kw.get("choices", (value,)):
                return None
            values[dest], closed = value, bool(given)
        elif token[:1] == "-" or closed:
            return None  # an option, or a run of positionals split by one
        else:
            given.append(token)
    positional = [(name, kw.get("nargs")) for name, kw in arguments if name[0] != "-"]
    if len(positional) != bool(given):
        return None  # a positional missing, or one that no argument takes
    for name, nargs in positional:  # no command takes two
        if nargs != "+" and len(given) != 1:
            return None
        values[name] = given if nargs == "+" else given[0]
    values.update(command=argv[0], func=func)
    return _Namespace(values)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_fast(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on usage errors already
            return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except _Failure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return failure.code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: gen-tt, compress, decompress, audit, bench, entropy.

Exit codes:
    0  success
    1  audit or verification failure
    2  usage error / unwritable destination
    3  translation table missing or unloadable
    4  malformed artifact
    5  mode mismatch
    6  input file unreadable
"""

import argparse
import os
import sys
import time

from . import codec, gridfile, metrics, transtable
from .codec import CompressJob, DecompressJob, ModeMismatchError
from .gridfile import MODE_1TT, MODE_4TT, GridFormatError
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


def _resolve_tt_path(explicit):
    if explicit:
        return explicit
    tt_dir = os.environ.get(TT_DIR_ENV)
    if tt_dir:
        return os.path.join(tt_dir, _TT_BASENAME)
    return None


def _load_tables(args):
    """Load the translation table, which serves every mode."""
    path = _resolve_tt_path(args.tt)
    if path is None:
        print(
            f"error: no translation table; pass --tt or set ${TT_DIR_ENV}",
            file=sys.stderr,
        )
        return None
    try:
        with open(path, "rb") as fh:
            tt = transtable.load_binary(fh, layout=args.layout)
    except FileNotFoundError:
        print(f"error: translation table not found: {path}", file=sys.stderr)
        return None
    except (OSError, TtFormatError) as exc:
        print(f"error: cannot load translation table {path}: {exc}", file=sys.stderr)
        return None
    return tt


def _verified(tables):
    """Whether the tables pass verification; prints the first violation if not."""
    try:
        tables.ensure_verified()
    except TtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _print_report(report, fmt):
    print(report.render_kv() if fmt == "kv" else report.render_table())


def cmd_gen_tt(args):
    out_dir = args.out or os.environ.get(TT_DIR_ENV) or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {out_dir}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    tt = transtable.generate_tt(args.layout)
    report = transtable.verify_tt(tt)
    if not report.ok:
        print("error: generated table failed verification", file=sys.stderr)
        return EXIT_AUDIT_FAIL
    ext = "txt" if args.format == "text" else "bin"
    writer = (
        transtable.serialize_text if args.format == "text" else transtable.serialize_binary
    )
    for n in range(1, args.count + 1):
        path = os.path.join(out_dir, f"tt{n}.{ext}")
        try:
            with open(path, "wb") as fh:
                written = writer(tt, fh)
        except (OSError, TtError) as exc:
            print(f"error: cannot write {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"wrote {path}: {written} bytes, {tt.row_count} rows, verified")
    return EXIT_OK


def cmd_compress(args):
    tables = _load_tables(args)
    if tables is None:
        return EXIT_NO_TT
    try:
        with open(args.input, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    if not _verified(tables):
        return EXIT_AUDIT_FAIL
    result = codec.compress(
        CompressJob(data=data, tables=tables, mode=args.mode, fmt=args.format)
    )
    out_path = args.out or args.input + ".fbar"
    try:
        with open(out_path, "wb") as fh:
            fh.write(result.artifact)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"compressed {args.input} -> {out_path}")
    _print_report(result.report, args.report)
    return EXIT_OK


def cmd_decompress(args):
    try:
        with open(args.input, "rb") as fh:
            artifact = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    if gridfile.artifact_kind(artifact) is None:
        print(f"error: {args.input} is not a recognized artifact", file=sys.stderr)
        return EXIT_BAD_ARTIFACT
    tt = _load_tables(args)
    if tt is None:
        return EXIT_NO_TT
    if not _verified(tt):  # keep verification out of the timed region
        return EXIT_AUDIT_FAIL
    start = time.perf_counter()
    try:
        data = codec.decompress(
            DecompressJob(artifact=artifact, tables=tt, mode=args.mode)
        )
    except ModeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODE_MISMATCH
    except GridFormatError as exc:
        print(f"error: malformed artifact: {exc}", file=sys.stderr)
        return EXIT_BAD_ARTIFACT
    elapsed = time.perf_counter() - start
    out_path = args.out or (
        args.input[: -len(".fbar")] if args.input.endswith(".fbar") else args.input + ".out"
    )
    try:
        with open(out_path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"decompressed {args.input} -> {out_path} ({len(data)} bytes, {elapsed:.4f}s)")
    return EXIT_OK


def cmd_audit(args):
    tables = _load_tables(args)
    if tables is None:
        return EXIT_NO_TT
    report = metrics.pigeonhole_audit(tables)
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
    with open(path, "rb") as fh:
        data = fh.read()
    result = codec.compress(CompressJob(data=data, tables=tables, mode=mode))
    start = time.perf_counter()
    restored = codec.decompress(DecompressJob(artifact=result.artifact, tables=tables))
    t_d = time.perf_counter() - start
    if restored != data:
        raise RuntimeError(f"round-trip mismatch on {path}")
    n = len(data)
    return {
        "file": os.path.basename(path),
        "size": n,
        "t_c": result.report.elapsed,
        "t_d": t_d,
        "p1": result.report.paper_size_1tt,
        "p4": result.report.paper_size_4tt,
        "honest": result.report.honest_size,
        "H": result.report.empirical_H,
    }


def cmd_bench(args):
    tables = _load_tables(args)
    if tables is None:
        return EXIT_NO_TT
    if not _verified(tables):
        return EXIT_AUDIT_FAIL
    rows = []
    failed = []
    for path in args.files:
        try:
            rows.append(_bench_row(path, tables, args.mode))
        except (OSError, RuntimeError, GridFormatError) as exc:
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
            mbps = r["size"] / r["t_c"] / 1e6 if r["t_c"] > 0 else 0.0
            print(
                f"{r['file']:<16} {r['size'] / 1024:>10.2f} {r['t_c']:>8.3f} "
                f"{r['t_d']:>8.3f} "
                f"{r['p1'] / 1024:>8.2f}:{r['p4'] / 1024:<7.2f} "
                f"{r['honest'] / 1024:>11.2f} {r['H']:>7.3f} {mbps:>8.2f}"
            )
        if rows:
            tot = {
                "size": sum(r["size"] for r in rows),
                "t_c": sum(r["t_c"] for r in rows),
                "t_d": sum(r["t_d"] for r in rows),
                "p1": sum(r["p1"] for r in rows),
                "p4": sum(r["p4"] for r in rows),
                "honest": sum(r["honest"] for r in rows),
            }
            mbps = tot["size"] / tot["t_c"] / 1e6 if tot["t_c"] > 0 else 0.0
            print(
                f"{'Total':<16} {tot['size'] / 1024:>10.2f} {tot['t_c']:>8.3f} "
                f"{tot['t_d']:>8.3f} "
                f"{tot['p1'] / 1024:>8.2f}:{tot['p4'] / 1024:<7.2f} "
                f"{tot['honest'] / 1024:>11.2f} {'':>7} {mbps:>8.2f}"
            )
    for path, message in failed:
        print(f"{os.path.basename(path):<16} FAILED: {message}")
    return EXIT_UNREADABLE if failed else EXIT_OK


def cmd_entropy(args):
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


def _terminal_width():
    """Terminal columns, found as shutil.get_terminal_size finds them."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return columns or 80


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's help formatter, given its width.

    Left to find the width itself, argparse imports shutil (and with it
    zlib, bz2, lzma and fnmatch) in every process that builds a parser.
    """

    def __init__(self, prog, **kwargs):
        if kwargs.get("width") is None:
            kwargs["width"] = _terminal_width() - 2  # argparse's own margin
        super().__init__(prog, **kwargs)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fbar",
        description="Fixed-codebook bit-pair codec with honest accounting.",
        formatter_class=_HelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, summary):
        return sub.add_parser(name, help=summary, formatter_class=_HelpFormatter)

    def add_common(p, tt=True):
        if tt:
            p.add_argument("--tt", help=f"translation table file (default ${TT_DIR_ENV}/{_TT_BASENAME})")
        p.add_argument(
            "--layout", choices=("interleaved", "grouped"), default="interleaved",
            help="address coordinate layout (must match end to end)",
        )
        p.add_argument(
            "--report", choices=("table", "kv"), default="table",
            help="report rendering",
        )

    p = add_command("gen-tt", "generate translation table file(s)")
    p.add_argument("--out", help=f"output directory (default ${TT_DIR_ENV} or .)")
    p.add_argument("--format", choices=("text", "binary"), default="binary")
    p.add_argument("--count", type=int, choices=(1, 4), default=1)
    add_common(p, tt=False)
    p.set_defaults(func=cmd_gen_tt)

    p = add_command("compress", "compress a file")
    p.add_argument("input")
    p.add_argument("--out", help="artifact path (default INPUT.fbar)")
    p.add_argument("--mode", choices=(MODE_1TT, MODE_4TT), default=MODE_1TT)
    p.add_argument("--format", choices=codec.FORMATS, default=codec.FORMAT_PAPER)
    add_common(p)
    p.set_defaults(func=cmd_compress)

    p = add_command("decompress", "decompress an artifact")
    p.add_argument("input")
    p.add_argument("--out", help="output path (default strips .fbar)")
    p.add_argument(
        "--mode", choices=(MODE_1TT, MODE_4TT), default=None,
        help="require this mode; error if the artifact disagrees",
    )
    add_common(p)
    p.set_defaults(func=cmd_decompress)

    p = add_command("audit", "audit a translation table")
    add_common(p)
    p.set_defaults(func=cmd_audit)

    p = add_command("bench", "measure the codec over a corpus")
    p.add_argument("files", nargs="+")
    p.add_argument("--mode", choices=(MODE_1TT, MODE_4TT), default=MODE_1TT)
    add_common(p)
    p.set_defaults(func=cmd_bench)

    p = add_command("entropy", "order-0 entropy of files")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_entropy)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return exc.code if exc.code is not None else EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

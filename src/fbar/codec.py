"""End-to-end compression and decompression pipelines.

1-TT mode maps every 2-byte pair to one occupant char plus one row;
4-TT mode maps every 8-byte chunk (4 pairs, each coded by the same
table) to one occupant char plus four rows.  Either pipeline emits the
paper-style or the honest artifact format and is lossless for any
bytes-like input, taken as its bytes, including odd lengths.  Rows
travel from the kernel to the artifact and back only as a row stream.
Decompression reads the mode from the artifact, so any verified table
decodes any artifact.
"""

import time
from collections import namedtuple

from . import addressing, gridfile, metrics
from .gridfile import MODE_1TT, MODE_4TT, GridFormatError

FORMAT_PAPER = "paper"
FORMAT_HONEST = "honest"
FORMATS = (FORMAT_PAPER, FORMAT_HONEST)


class ModeMismatchError(Exception):
    """Artifact mode disagrees with the requested one."""


# tables: any verified TranslationTable (a TtSet4 is one), for either mode.
class CompressJob(namedtuple("CompressJob", "data tables mode fmt",
                             defaults=(MODE_1TT, FORMAT_PAPER))):
    __slots__ = ()
    __repr__ = gridfile._sized_repr


# mode None: trust the header; ValueError unless None, 1tt or 4tt.
class DecompressJob(namedtuple("DecompressJob", "artifact tables mode", defaults=(None,))):
    __slots__ = ()
    __repr__ = gridfile._sized_repr


# artifact: the writer's bytes, not a copy; summary: the
# gridfile.GridArtifact that holds them, None for the honest format;
# report: a metrics.MetricsReport.
class CompressResult(namedtuple("CompressResult", "artifact summary report")):
    __slots__ = ()
    __repr__ = gridfile._sized_repr


def _as_bytes(data):
    """``data`` itself when it is bytes, else a copy of its buffer's bytes."""
    return data if type(data) is bytes else memoryview(data).tobytes()


def encode_rows(data, layout="interleaved"):
    """The row stream of every complete pair of the input, any bytes-like
    object taken as its bytes, plus the tail byte."""
    data = _as_bytes(data)
    tail = data[-1] if len(data) % 2 else None
    return addressing.encode_stream(data, layout), tail


def compress(job: CompressJob) -> CompressResult:
    """Run one compression job; the report carries both accountings."""
    if job.mode not in (MODE_1TT, MODE_4TT):
        raise ValueError(f"unknown mode {job.mode!r}")
    if job.fmt not in FORMATS:
        raise ValueError(f"unknown format {job.fmt!r}")
    job.tables.ensure_verified()
    layout = job.tables.layout

    start = time.perf_counter()
    data = _as_bytes(job.data)
    stream, tail = encode_rows(data, layout)
    if job.fmt == FORMAT_PAPER:
        summary = gridfile.write_grid(stream, job.mode, tail)
        artifact = summary.artifact
        paper_accounted = summary.occupant_len
        honest_size = summary.honest_payload_size
    else:
        summary = None
        artifact = gridfile.write_honest(stream, tail)
        paper_accounted = None
        honest_size = len(artifact) - gridfile.HONEST_OVERHEAD

    report = metrics.build_report(
        data,
        job.mode,
        job.fmt,
        time.perf_counter() - start,
        paper_accounted=paper_accounted,
        honest_size=honest_size,
        artifact_size=len(artifact),
    )
    # The report covers the whole call, its own building included.  The
    # input's order-0 entropies are computed when first read, outside it.
    report.elapsed = time.perf_counter() - start
    return CompressResult(artifact=artifact, summary=summary, report=report)


def decompress(job: DecompressJob) -> bytes:
    """Reconstruct the original input; bit-identical to what was compressed."""
    if job.mode not in (None, MODE_1TT, MODE_4TT):
        raise ValueError(f"unknown mode {job.mode!r}")
    artifact = _as_bytes(job.artifact)
    kind = gridfile.artifact_kind(artifact)
    if kind is None:
        magic = artifact[: len(gridfile.GRID_MAGIC)]
        raise GridFormatError(f"unrecognized artifact magic {magic!r}", offset=0)
    if kind == "paper":
        parsed = gridfile.parse_grid(artifact)
        if job.mode is not None and parsed.mode != job.mode:
            raise ModeMismatchError(
                f"artifact mode {parsed.mode} does not match requested {job.mode}"
            )
    else:
        parsed = gridfile.parse_honest(artifact)

    tt = job.tables
    tt.ensure_verified()
    return addressing.decode_stream(parsed.stream, tt.layout, parsed.tail)


def roundtrip(data, tables, mode=MODE_1TT, fmt=FORMAT_PAPER):
    """Compress then decompress; convenience for tests and benches."""
    result = compress(CompressJob(data=data, tables=tables, mode=mode, fmt=fmt))
    restored = decompress(DecompressJob(artifact=result.artifact, tables=tables))
    return result, restored

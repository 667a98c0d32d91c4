"""The benchmark's tracer (perfbench/tracing.py) against the library.

The tracer wraps fbar's public functions by module attribute and reads
``write_grid``'s return value as its summary, so a renamed boundary or
a changed return shape breaks traced benchmark runs.  This runs it in
process: the module is read from its file and executed, not imported,
so nothing is written under perfbench/.
"""

import os
import types

from fbar import codec
from fbar.codec import FORMATS, CompressJob, DecompressJob
from fbar.gridfile import MODE_1TT, MODE_4TT

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)

TRACED = {
    "codec.compress",
    "codec.decompress",
    "codec.encode_rows",
    "gridfile.write_grid",
    "gridfile.write_honest",
    "gridfile.parse_grid",
    "gridfile.parse_honest",
    "metrics.build_report",
}


def load_tracing():
    tracing = types.ModuleType("tracing")
    with open(TRACING) as fh:
        exec(compile(fh.read(), TRACING, "exec"), tracing.__dict__)
    return tracing


def test_tracer_spans_every_layer_of_both_formats_and_modes(tt):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    data = bytes(range(256)) * 3 + bytes(100) + b"!"
    summaries = []
    original = codec.compress
    tracer.install()
    try:
        for fmt in FORMATS:
            for mode in (MODE_1TT, MODE_4TT):
                result = codec.compress(CompressJob(data=data, tables=tt, mode=mode, fmt=fmt))
                restored = codec.decompress(DecompressJob(artifact=result.artifact, tables=tt))
                assert restored == data
                if result.summary is not None:
                    summaries.append(result.summary)
    finally:
        tracer.uninstall()
    assert codec.compress is original

    rows, errors = tracing.analyze(tracer.spans)
    assert errors == 0
    assert TRACED <= {name for name, *_ in rows}
    grid_counts = [counts for name, _, _, _, counts in rows if name == "gridfile.write_grid"]
    assert grid_counts == [
        {
            "units": -(-s.pair_count // (1 if s.mode == MODE_1TT else 4)),
            "blocks": s.block_count,
            "collision_restarts": s.collision_restarts,
            "occupant_bytes": s.occupant_len,
            "address_bytes": s.address_len,
        }
        for s in summaries
    ]

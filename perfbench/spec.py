"""Workloads and metrics of the benchmark; BENCHMARK.json is written from here.

``inputs`` lists (corpus kind, size in bytes).  Odd sizes make the
codec's tail channel run.  Bulk workloads compress every input in every
mode and then decompress it; cli-small cycles ``files`` files through
``fbar compress`` and ``fbar decompress``, alternating the kinds.
The bulk sizes give each input about 15 calls of each kind in a
30-second run; with half as many, its median call time moved by 5 %
from one run to the next.
"""

KiB = 1024
MiB = 1024 * KiB

WORKLOADS = {
    "honest-bulk": {
        "runner": "bulk",
        "fmt": "honest",
        "modes": ("1tt", "4tt"),
        "inputs": (("random", 1 * MiB), ("text", 1 * MiB + 1)),
        # Setup samples: fresh processes, each timing its own set-up.
        "setup_repeats": 5,
        "why": (
            "library API on the honest format: no block layout, so row encoding, "
            "row-stream serialize/parse, table-lookup decode and report building dominate"
        ),
    },
    "paper-bulk": {
        "runner": "bulk",
        "fmt": "paper",
        "modes": ("1tt", "4tt"),
        "inputs": (
            ("random", 512 * KiB),
            ("text", 512 * KiB + 1),
            ("acgt", 512 * KiB + 1),
            ("zero", 512 * KiB),
        ),
        "setup_repeats": 5,
        "why": (
            "library API on the paper format: block layout and collision restarts "
            "(write_grid) dominate compress; 4 corpora span 1 to 95 units per block"
        ),
    },
    "cli-small": {
        "runner": "cli",
        "files": 24,
        "inputs": (("random", 32 * KiB), ("text", 32 * KiB + 1)),
        "setup_repeats": 3,
        "why": (
            "one fbar process per small file: import, table load and verification "
            "dominate each call, which the bulk workloads amortise away"
        ),
    },
}


RUN_SECONDS = 30

# (name, unit, better, bound): the metrics of a --trace 0 run.  ``bound`` is
# the share of the parent's median by which a metric may worsen.
END_TO_END = (
    ("compress_MBps", "MB/s", "higher", 0.25),
    ("decompress_MBps", "MB/s", "higher", 0.25),
    ("compress_p50_ms", "ms", "lower", 0.25),
    ("decompress_p50_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_MiB", "MiB", "lower", 0.1),
    ("artifact_ratio", "ratio", "lower", 0.02),
)

# (name, unit): the metrics of a --trace 1 run, each present on every
# workload.  Times are self times over one set-up plus one call of each
# group: one pass over the inputs on the bulk workloads, one compress and
# one decompress process on cli-small.
PER_LAYER = (
    ("codec.encode_rows_s", "s"),
    ("codec.decode_s", "s"),
    ("gridfile.write_s", "s"),
    ("gridfile.parse_s", "s"),
    ("gridfile.address_bytes", "count"),
    ("metrics.build_report_s", "s"),
    ("metrics.elapsed_gap_frac", "ratio"),
    ("transtable.verify_tt_s", "s"),
    ("addressing.pair_table_s", "s"),
    ("addressing.row_table_s", "s"),
    ("cli.import_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def label_stats():
    """Accumulators for one input label of a measuring phase.

    ``*_ns`` are call times scaled to the reference host speed
    (hostspeed.py), ``*_wall_ns`` the raw wall times of the same calls.
    """
    return {"compress_ns": [], "decompress_ns": [], "compress_wall_ns": [],
            "decompress_wall_ns": [], "input_bytes": 0, "output_bytes": 0,
            "artifact_bytes": 0}


def benchmark_json():
    """The contents of BENCHMARK.json."""
    return {
        # -S: no site-packages, so run.py's RSS, which every child's
        # ru_maxrss inherits as a floor, stays below that of any fbar process.
        "command": ["python3", "-S", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]} for name, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER
        ],
    }

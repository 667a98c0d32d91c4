"""Bulk workload worker: library compress/decompress in one fresh process.

Started by run.py, once per workload run, so that one workload's memory
peak cannot leak into another's.  Usage:

    python3 perfbench/bulk.py --root ROOT --workload NAME --seed N \
        --seconds S [--trace] [--spans-out PATH] [--setup-only]

Prints one JSON object on standard output.  ``--setup-only`` times the
set-up (import, table generation, verification, row-table cache) and
exits; run.py starts several such processes to take a median.  With
``--trace`` the run has an untraced phase and then a traced phase of
``S/2`` seconds each, and the spans go to ``--spans-out``.  Set-up and
every call are bracketed by host-speed probes (hostspeed.py); both the
scaled and the raw times are reported.
"""

import argparse
import json
import os
import sys
import time

import corpus
import hostspeed
import tracing
from spec import WORKLOADS, label_stats


def _set_up(tracer):
    """Import fbar and make its tables ready; returns (codec, tables, seconds).

    The seconds are a dict: ``scaled`` to the reference host speed, and
    the raw ``wall`` time.
    """
    before = hostspeed.probe_ns()
    start = time.perf_counter_ns()
    import fbar.addressing
    import fbar.codec
    import fbar.transtable

    if tracer is not None:
        tracer.install()
    tt = fbar.transtable.generate_tt()
    tt.ensure_verified()
    fbar.addressing.row_table(tt.layout)
    tables = {"1tt": tt, "4tt": fbar.transtable.TtSet4((tt, tt, tt, tt))}
    ns = time.perf_counter_ns() - start
    seconds = {"scaled": hostspeed.scale(ns, before, hostspeed.probe_ns()) / 1e9,
               "wall": ns / 1e9}
    return fbar.codec, tables, seconds


class Phase:
    """Timings and checks of the operations of one measuring phase."""

    def __init__(self, labels):
        self.per_label = {label: label_stats() for label in labels}
        self.pairs = 0  # compress-then-decompress operations begun
        self.attempted = 0
        self.failed = 0
        self.failures = []
        # Traced root spans that do not lie inside the call timed around them.
        self.span_errors = 0

    def fail(self, message):
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(message)

    def as_dict(self):
        return {"passes": self.pairs / len(self.per_label), "per_label": self.per_label,
                "attempted": self.attempted, "failed": self.failed,
                "failures": self.failures, "span_errors": self.span_errors}


def _timed(phase, tracer, op_id, name, fn, arg):
    """``fn(arg)`` timed from outside; returns (result, wall ns, scaled ns).

    With a tracer, the root span the call records must lie inside the
    interval timed here.
    """
    first = None
    if tracer is not None:
        tracer.op = op_id
        first = len(tracer.spans)
    before = hostspeed.probe_ns()
    t0 = time.perf_counter_ns()
    result = fn(arg)
    t1 = time.perf_counter_ns()
    scaled = hostspeed.scale(t1 - t0, before, hostspeed.probe_ns())
    if first is not None:
        span = tracer.spans[first] if len(tracer.spans) > first else None
        if span is None or span[tracing.NAME] != name or not tracing.within(span, t0, t1):
            phase.span_errors += 1
    return result, t1 - t0, scaled


def _one_pair(codec, op, tables, fmt, phase, tracer):
    """Compress one input, check the result, decompress it and check that."""
    label, data, mode = op
    stats = phase.per_label[label]
    op_id = f"p{phase.pairs // len(phase.per_label)}/{label}"
    phase.pairs += 1
    phase.attempted += 1
    try:
        result, wall, scaled = _timed(
            phase, tracer, f"{op_id}/compress", "codec.compress", codec.compress,
            codec.CompressJob(data=data, tables=tables[mode], mode=mode, fmt=fmt),
        )
    except Exception as exc:  # a failed operation is counted, not fatal
        phase.fail(f"{op_id} compress raised {exc!r}")
        return
    report = result.report
    if report.honest_size < report.input_size:
        phase.fail(f"{op_id} honest_size {report.honest_size} < input {report.input_size}")
        return
    if report.artifact_size != len(result.artifact):
        phase.fail(f"{op_id} artifact_size {report.artifact_size} != {len(result.artifact)}")
        return
    stats["compress_ns"].append(scaled)
    stats["compress_wall_ns"].append(wall)
    stats["input_bytes"] += len(data)
    stats["artifact_bytes"] += len(result.artifact)

    phase.attempted += 1
    try:
        restored, wall, scaled = _timed(
            phase, tracer, f"{op_id}/decompress", "codec.decompress", codec.decompress,
            codec.DecompressJob(artifact=result.artifact, tables=tables[mode]),
        )
    except Exception as exc:
        phase.fail(f"{op_id} decompress raised {exc!r}")
        return
    if restored != data:
        phase.fail(f"{op_id} round trip is not byte-exact")
        return
    stats["decompress_ns"].append(scaled)
    stats["decompress_wall_ns"].append(wall)
    stats["output_bytes"] += len(restored)


def _measure(codec, ops, tables, fmt, seconds, tracer):
    """Compress-then-decompress pairs, cycling through ``ops``, for about ``seconds``.

    Runs at least one pass over ``ops``, then stops when one more pair
    would overrun.
    """
    phase = Phase([label for label, _, _ in ops])
    start = time.perf_counter()
    while True:
        _one_pair(codec, ops[phase.pairs % len(ops)], tables, fmt, phase, tracer)
        n = phase.pairs
        if n >= len(ops) and (time.perf_counter() - start) * (n + 1) / n > seconds:
            return phase


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    sys.path.insert(0, os.path.join(args.root, "src"))

    if args.setup_only:
        _, _, setup_s = _set_up(None)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Corpora are made before set-up starts: their cost is not set-up time.
    inputs = []
    ops = []
    for kind, size in spec["inputs"]:
        data = corpus.make(args.workload, args.seed, kind, size)
        inputs.append({"kind": kind, "size": size, "sha256": corpus.sha256(data)})
        ops += [(f"{kind}.{mode}", data, mode) for mode in spec["modes"]]

    tracer = tracing.Tracer(op="setup") if args.trace else None
    codec, tables, setup_s = _set_up(tracer)
    out = {"setup_s": setup_s, "inputs": inputs, "phases": {}}
    if tracer is None:
        out["phases"]["timed"] = _measure(
            codec, ops, tables, spec["fmt"], args.seconds, None
        ).as_dict()
    else:
        tracer.uninstall()
        out["phases"]["untraced"] = _measure(
            codec, ops, tables, spec["fmt"], args.seconds / 2, None
        ).as_dict()
        tracer.install()
        out["phases"]["traced"] = _measure(
            codec, ops, tables, spec["fmt"], args.seconds / 2, tracer
        ).as_dict()
        tracer.uninstall()
        tracer.dump(args.spans_out)
    out["host_probe"] = hostspeed.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

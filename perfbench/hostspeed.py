"""Host-speed probe: scales each timing to a fixed host speed.

The benchmark runs on a share of a shared host whose speed changes by up
to 1.5x, in stretches of a few seconds to half a minute (a fixed loop
took 10 ms in one second and 15 ms in the next, in both wall and CPU
time).  Raw times of two runs of the same code therefore differ by as
much as the host's speed did.  So every timed operation is bracketed by
two runs of a fixed pure-Python workload, the probe, and its time is
multiplied by ``REF_NS`` over the mean of the two probe times: the time
the operation would have taken on a host where the probe takes
``REF_NS``.  The probe touches no fbar code and runs with the garbage
collector off, so a change to fbar cannot move it.  Raw times are kept
beside the scaled ones in every run record.

The probe is a loop of integer arithmetic followed by a loop of string
formatting, dict insertion and a sort.  On a 2-vCPU x86-64 cloud guest
the first loop alone tracked library calls but not ``fbar`` processes,
which slow more than it in the host's slow stretches (medians of
``fbar decompress`` processes over 20-30 s windows still spread by
10-12 %, against 33 % raw); the second loop alone did the reverse.
Both together tracked both kinds of operation.
"""

import gc
import statistics
import time

ARITH_LOOPS = 50_000
TABLE_LOOPS = 20_000
# The table holds at most this many keys, so the probe adds under 1 MiB to
# the peak RSS of run.py, which every child's ru_maxrss starts from.
TABLE_KEYS = 4096
# About the probe's time on that guest in its fast state, so that scaled
# times read close to raw times there.
REF_NS = 10_000_000

# Every probe this process has taken, in nanoseconds.
samples = []


def probe_ns():
    """Nanoseconds of one run of the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        acc = 0
        for i in range(ARITH_LOOPS):
            acc += i * i ^ (i >> 3)
        table = {}
        for i in range(TABLE_LOOPS):
            acc += i * i ^ (i >> 3)
            table[str(i % TABLE_KEYS)] = (i, acc)
        sorted(table)
        ns = time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()
    samples.append(ns)
    return ns


def scale(ns, before, after):
    """``ns`` timed between probes ``before`` and ``after``, at the reference speed."""
    return ns * 2 * REF_NS / (before + after)


def summary():
    """Count, median, min and max of this process's probes, in ms."""
    if not samples:
        return {"n": 0}
    return {"n": len(samples), "p50_ms": statistics.median(samples) / 1e6,
            "min_ms": min(samples) / 1e6, "max_ms": max(samples) / 1e6}

"""Layer spans recorded from outside the fbar package.

fbar's modules call each other's public functions as module attributes
(``gridfile.write_grid``, ``metrics.build_report``, ...), looked up at
call time.  Replacing those attributes with timing wrappers therefore
records a span at every layer boundary without touching ``src/``.  Only
the public names in ``TARGETS`` are wrapped; private helpers are left
alone.

A span is ``[name, start_ns, end_ns, parent_index, op, counts]``.  Spans
stay in memory and are written as JSON lines when the traced process
ends.  A span's self time is its duration minus the durations of its
direct children; calls are single-threaded, so children never overlap.
"""

import importlib
import json
import time

NAME, START, END, PARENT, OP, COUNTS = range(6)


def _grid_counts(args, kwargs, summary):
    units = summary.pair_count if summary.mode == "1tt" else -(-summary.pair_count // 4)
    return {
        "units": units,
        "blocks": summary.block_count,
        "collision_restarts": summary.collision_restarts,
        "occupant_bytes": summary.occupant_len,
        "address_bytes": summary.address_len,
    }


def _honest_counts(args, kwargs, written):
    rows = args[0] if args else kwargs["rows"]
    return {"address_bytes": 2 * len(rows)}


def _report_counts(args, kwargs, report):
    return {"report_elapsed_ns": round(report.elapsed * 1e9)}


# (module, public function, count extractor) for every wrapped boundary.
TARGETS = (
    ("codec", "compress", None),
    ("codec", "decompress", None),
    ("codec", "encode_rows", None),
    ("gridfile", "write_grid", _grid_counts),
    ("gridfile", "write_honest", _honest_counts),
    ("gridfile", "parse_grid", None),
    ("gridfile", "parse_honest", None),
    ("metrics", "build_report", _report_counts),
    ("metrics", "pigeonhole_audit", None),
    ("transtable", "generate_tt", None),
    ("transtable", "verify_tt", None),
    ("transtable", "load_binary", None),
    ("transtable", "serialize_binary", None),
    ("transtable", "serialize_text", None),
    ("addressing", "row_table", None),
    ("addressing", "pair_table", None),
)


class Tracer:
    """Wraps the TARGETS of an imported fbar and records their spans."""

    def __init__(self, op=None):
        self.spans = []
        self.op = op  # operation id stamped on every new span
        self._stack = []
        self._installed = []

    def call(self, name, fn, args=(), kwargs=None, counts=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        kwargs = kwargs or {}
        record = [name, 0, 0, self._stack[-1] if self._stack else None, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter_ns()
            self._stack.pop()
        if counts is not None:
            record[COUNTS] = counts(args, kwargs, result)
        return result

    def install(self):
        for module_name, attr, counts in TARGETS:
            module = importlib.import_module(f"fbar.{module_name}")
            original = getattr(module, attr)
            setattr(module, attr, self._wrapper(f"{module_name}.{attr}", original, counts))
            self._installed.append((module, attr, original))

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _wrapper(self, name, original, counts):
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, counts)

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def within(span, start_ns, end_ns):
    """Whether ``span`` lies inside an interval timed by its caller.

    perf_counter_ns reads one monotonic clock for every process of the
    host, so the interval may come from another process.
    """
    return start_ns <= span[START] <= span[END] <= end_ns


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def analyze(spans):
    """Self time of every span of one process, and a nesting check.

    Returns ``(rows, errors)``: one ``(name, op, self_ns, dur_ns, counts)``
    row per span, and the number of spans that break nesting: a child
    outside its parent's interval, or a negative self time.
    """
    dur = [s[END] - s[START] for s in spans]
    child_ns = [0] * len(spans)
    errors = 0
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if parent is None:
            continue
        child_ns[parent] += dur[i]
        p = spans[parent]
        if s[START] < p[START] or s[END] > p[END]:
            errors += 1
    self_ns = [d - c for d, c in zip(dur, child_ns)]
    errors += sum(1 for x in self_ns if x < 0)
    rows = [
        (s[NAME], s[OP], self_ns[i], dur[i], s[COUNTS] or {}) for i, s in enumerate(spans)
    ]
    return rows, errors

"""Seeded benchmark of the fbar library and command line.

Run from the root of a checkout:

    python3 -S perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 -S perfbench/run.py --write-benchmark-json

Workloads and metrics are defined in spec.py.  The bulk workloads run the
library in one fresh worker process (bulk.py); cli-small starts one
``fbar`` process per call through fbar_cli.py.  A child's peak RSS
(``ru_maxrss``) starts from its parent's peak at spawn (subprocess
starts children with vfork), so this process stays small while children
run: it runs without site-packages (``-S``), imports no fbar code,
corpus, table or hashing library (corpus.py writes cli-small's files in
a child), and its host-speed probe keeps a small table.

The host's speed drifts by up to 1.5x within seconds, so every timed
operation (library call, fbar process, set-up) is bracketed by a fixed
host-speed probe and its time is scaled to a reference host speed
(hostspeed.py).  The end-to-end times are these scaled times; the raw
wall times are kept beside them in the run record.  The run is pinned to
one CPU, which its children inherit, so that a probe and the operation
it brackets run on the same CPU.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  With ``--trace 1`` it measures an untraced phase and then a traced
phase (tracing.py) and reports per-layer self times, counts and the
tracing overhead.  Every operation's output is checked; failures are
counted in ``failed`` against ``attempted``.

Every metric is printed by name and unit, and the full record (run
metadata, corpus SHA-256s, per-input breakdown, sample counts) is written
to .perfbench_out/, with the children's standard error and, for traced
runs, the spans.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import hostspeed
import tracing
from spec import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json, label_stats

HERE = Path(__file__).resolve().parent
IMPORT_SAMPLES = 5
# Sizes of `fbar gen-tt` outputs: 5-byte header + 65,536 four-byte
# records, and 65,536 fixed-width 128-byte text rows.
TT_BINARY_BYTES = 5 + 4 * 65536
TT_TEXT_BYTES = 128 * 65536


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout("child still running at its time limit")


class Run:
    """Children, checks and failure counts of one benchmark run."""

    def __init__(self, root, work, out_stem, seconds):
        self.root = root
        self.work = work
        # The bulk worker measures for ``seconds`` after its set-up.
        self.child_timeout_s = 2 * seconds + 120
        self.out_stem = out_stem  # .perfbench_out/<workload>-seed<n>-trace<t>
        self.peaks_mib = []
        self.floor_mib = 0.0  # this process's own peak RSS at the latest spawn
        self.import_walls = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._errlog = open(self.artifact(".stderr.log"), "wb")
        self._env = dict(os.environ, PYTHONHASHSEED="0")
        self._env.pop("FBAR_TT_DIR", None)
        # Cached bytecode, as an installed fbar has; the first child writes it.
        self._env.pop("PYTHONDONTWRITEBYTECODE", None)

    def artifact(self, suffix):
        return self.out_stem.with_name(self.out_stem.name + suffix)

    def close(self):
        self._errlog.close()

    def check(self, ok, message):
        """Count one attempted operation, and a failure unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 8:
                self.failures.append(message)
        return ok

    def spawn(self, argv, extra_env=None, stdout_path=None):
        """Run one child to its exit; returns (exit code, start ns, end ns, scaled ns).

        The interval runs from spawn to exit, on perf_counter_ns; the
        scaled ns are its length at the reference host speed, from probes
        taken just before and after it.  The child's peak RSS comes from
        its own rusage via wait4.
        """
        env = dict(self._env, **(extra_env or {}))
        out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
        try:
            before = hostspeed.probe_ns()
            self.floor_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            start = time.perf_counter_ns()
            proc = subprocess.Popen(
                [str(a) for a in argv], stdout=out, stderr=self._errlog,
                env=env, cwd=self.root,
            )
            signal.alarm(self.child_timeout_s)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise
            finally:
                signal.alarm(0)
            end = time.perf_counter_ns()
        finally:
            if stdout_path:
                out.close()
        scaled = hostspeed.scale(end - start, before, hostspeed.probe_ns())
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peaks_mib.append(usage.ru_maxrss / 1024)  # KiB on Linux
        return proc.returncode, start, end, scaled


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def latency_summary(seconds):
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(seconds), "p50_ms": _median(seconds) * 1e3}
    if len(seconds) >= 20:
        q = math.floor(100 * (1 - 10 / len(seconds)))
        cuts = statistics.quantiles(seconds, n=100, method="inclusive")
        out[f"p{q}_ms"] = cuts[q - 1] * 1e3
    return out


def _mbps(nbytes, seconds):
    return nbytes / seconds / 1e6 if seconds > 0 else float("nan")


def phase_summary(per_label, passes):
    """End-to-end numbers of one measuring phase, overall and per input.

    ``per_label`` maps an input label (corpus and mode, or corpus kind) to
    its spec.label_stats().  A phase may end part-way through a pass, so
    labels can differ by one call; every figure therefore weighs each
    label once, by its median call.  Throughput is the bytes of one pass
    over the median call times of its inputs.  The p50 latencies are the
    geometric mean over labels of each label's median call: inputs of one
    workload differ in speed, and a median over all calls would fall
    between the clusters.
    """
    per_input = {}
    for label, s in per_label.items():
        calls = len(s["compress_ns"])
        if not calls or not s["decompress_ns"]:
            continue
        per_input[label] = {
            "bytes": s["input_bytes"] / calls,
            "artifact_bytes": s["artifact_bytes"] / calls,
            "compress_p50_ms": _median(s["compress_ns"]) / 1e6,
            "decompress_p50_ms": _median(s["decompress_ns"]) / 1e6,
            "compress_wall_p50_ms": _median(s["compress_wall_ns"]) / 1e6,
            "decompress_wall_p50_ms": _median(s["decompress_wall_ns"]) / 1e6,
            "calls": calls,
        }
        for op in ("compress", "decompress"):
            per_input[label][f"{op}_MBps"] = (
                per_input[label]["bytes"] / per_input[label][f"{op}_p50_ms"] / 1e3
            )

    def total(key):
        return sum(v[key] for v in per_input.values())

    def geomean(key):
        xs = [v[key] for v in per_input.values()]
        return math.exp(sum(map(math.log, xs)) / len(xs)) if xs else float("nan")

    return {
        "compress_MBps": _mbps(total("bytes"), total("compress_p50_ms") / 1e3),
        "decompress_MBps": _mbps(total("bytes"), total("decompress_p50_ms") / 1e3),
        "compress_p50_ms": geomean("compress_p50_ms"),
        "decompress_p50_ms": geomean("decompress_p50_ms"),
        "compress_calls": latency_summary(
            [t / 1e9 for s in per_label.values() for t in s["compress_ns"]]),
        "decompress_calls": latency_summary(
            [t / 1e9 for s in per_label.values() for t in s["decompress_ns"]]),
        "artifact_ratio": total("artifact_bytes") / total("bytes") if per_input else float("nan"),
        "passes": passes,
        "per_input": per_input,
    }


def e2e_metrics(summary, setups, run, detail):
    """The end-to-end metrics of a --trace 0 run; sample counts go to ``detail``."""
    calls = summary["compress_calls"]["n"]
    detail["samples"] = {
        "compress_MBps": calls,
        "decompress_MBps": summary["decompress_calls"]["n"],
        "compress_p50_ms": calls,
        "decompress_p50_ms": summary["decompress_calls"]["n"],
        "setup_s": len(setups),
        "peak_rss_MiB": len(run.peaks_mib),
        "artifact_ratio": calls,
    }
    return {
        "compress_MBps": summary["compress_MBps"],
        "decompress_MBps": summary["decompress_MBps"],
        "compress_p50_ms": summary["compress_p50_ms"],
        "decompress_p50_ms": summary["decompress_p50_ms"],
        "setup_s": _median(setups),
        "peak_rss_MiB": max(run.peaks_mib),
        "artifact_ratio": summary["artifact_ratio"],
    }


def import_probe(run, samples):
    """Wall times of children that only run ``import fbar``.

    The first child is a warm-up that writes the bytecode cache and
    confirms that fbar is imported from this checkout's src/.
    """
    src = run.root / "src"
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import fbar; print(fbar.__file__)"
    where = run.work / "import.out"
    status, *_ = run.spawn([sys.executable, "-c", code], stdout_path=where)
    origin = Path(where.read_text().strip() or ".").resolve()
    if status != 0 or src.resolve() not in origin.parents:
        raise RuntimeError(f"fbar did not import from {src} (got {origin}, exit {status})")
    walls = []
    for _ in range(samples):
        status, start, end, _ = run.spawn([sys.executable, "-c", code])
        run.check(status == 0, f"import probe exited {status}")
        walls.append((end - start) / 1e9)
    return walls


# ---------------------------------------------------------------- layers


def _totals():
    return {"self_s": Counter(), "dur_s": Counter(), "calls": Counter(), "counts": Counter()}


def aggregate_spans(processes):
    """Per-layer totals per call of each group, and over set-up plus one call each.

    ``processes`` holds (span list, group function, interval) per traced
    process.  An op id is ``<call>/<command>``; the group function maps it
    to its group: the input label on the bulk workloads (so that one call
    of each group is one pass), the command on cli-small.  Spans whose op
    starts with "setup" count once, in the overall totals only; the rest
    are divided by the number of calls of their group.  ``interval`` is
    the (start, end) in perf_counter_ns timed around the process from
    outside, or None; a root span outside it is a nesting error.  Totals
    hold self and whole seconds and calls per span name, and counts per
    ``<span name>.<count>``.
    """
    calls_of = defaultdict(set)
    for spans, group, _ in processes:
        for span in spans:
            op = str(span[tracing.OP])
            if not op.startswith("setup"):
                calls_of[group(op)].add(op.rsplit("/", 1)[0])
    overall = _totals()
    groups = defaultdict(_totals)
    errors = 0
    for spans, group, interval in processes:
        rows, bad = tracing.analyze(spans)
        errors += bad
        if interval is not None:
            errors += sum(1 for span in spans if span[tracing.PARENT] is None
                          and not tracing.within(span, *interval))
        for name, op, s_ns, d_ns, cnt in rows:
            setup = str(op).startswith("setup")
            scale = 1.0 if setup else 1.0 / len(calls_of[group(op)])
            for totals in (overall,) if setup else (overall, groups[group(op)]):
                totals["self_s"][name] += s_ns * scale / 1e9
                totals["dur_s"][name] += d_ns * scale / 1e9
                totals["calls"][name] += scale
                for key, value in cnt.items():
                    totals["counts"][f"{name}.{key}"] += value * scale
    return overall, dict(groups), errors


def layer_metrics(agg, import_walls, overhead_frac):
    """Every per-layer metric of the benchmark, from aggregated spans."""
    t = defaultdict(float, agg["self_s"])
    c = defaultdict(float, agg["counts"])
    units = c["gridfile.write_grid.units"]
    blocks = c["gridfile.write_grid.blocks"]
    compress_s = agg["dur_s"].get("codec.compress", 0.0)
    reported_s = c["metrics.build_report.report_elapsed_ns"] / 1e9
    return {
        "codec.encode_rows_s": t["codec.encode_rows"],
        "codec.decode_s": t["codec.decompress"],
        "codec.compress_self_s": t["codec.compress"],
        "gridfile.write_s": t["gridfile.write_grid"] + t["gridfile.write_honest"],
        "gridfile.parse_s": t["gridfile.parse_grid"] + t["gridfile.parse_honest"],
        "gridfile.write_grid_s": t["gridfile.write_grid"],
        "gridfile.parse_grid_s": t["gridfile.parse_grid"],
        "gridfile.write_honest_s": t["gridfile.write_honest"],
        "gridfile.parse_honest_s": t["gridfile.parse_honest"],
        "gridfile.write_grid_share": t["gridfile.write_grid"] / compress_s if compress_s else 0.0,
        "gridfile.units": units,
        "gridfile.blocks": blocks,
        "gridfile.collision_restarts": c["gridfile.write_grid.collision_restarts"],
        "gridfile.units_per_block": units / blocks if blocks else 0.0,
        "gridfile.occupant_bytes": c["gridfile.write_grid.occupant_bytes"],
        "gridfile.address_bytes": c["gridfile.write_grid.address_bytes"]
        + c["gridfile.write_honest.address_bytes"],
        "metrics.build_report_s": t["metrics.build_report"],
        "metrics.elapsed_gap_frac": 1 - reported_s / compress_s if compress_s else float("nan"),
        "metrics.pigeonhole_audit_s": t["metrics.pigeonhole_audit"],
        "transtable.generate_tt_s": t["transtable.generate_tt"],
        "transtable.verify_tt_s": t["transtable.verify_tt"],
        "transtable.load_binary_s": t["transtable.load_binary"],
        "transtable.serialize_binary_s": t["transtable.serialize_binary"],
        "transtable.serialize_text_s": t["transtable.serialize_text"],
        "addressing.pair_table_s": t["addressing.pair_table"],
        "addressing.row_table_s": t["addressing.row_table"],
        "cli.import_s": _median(import_walls),
        "trace.overhead_frac": overhead_frac,
    }


def traced_results(run, untraced, traced, processes, detail, nesting_errors=0):
    """Per-layer metrics of a --trace 1 run from its two phases and spans.

    The same metrics per group (input label or CLI command), where they
    are neither 0 nor undefined, go to ``detail["by_group"]``.
    """
    overall, groups, errors = aggregate_spans(processes)
    by_group = {}
    for name, totals in sorted(groups.items()):
        metrics = layer_metrics(totals, [], float("nan"))
        by_group[name] = {k: v for k, v in metrics.items() if v and not math.isnan(v)}
    detail.update(untraced=untraced, traced=traced, spans=overall, by_group=by_group,
                  nesting_errors=errors + nesting_errors)
    overhead = 1 - traced["compress_MBps"] / untraced["compress_MBps"]
    return layer_metrics(overall, run.import_walls, overhead)


# ------------------------------------------------------------------ bulk


def run_bulk(run, args, spec):
    """Set-up samples and one measuring worker; returns (metrics, detail)."""
    base = [
        sys.executable, HERE / "bulk.py", "--root", run.root, "--workload", args.workload,
        "--seed", args.seed, "--seconds", args.seconds,
    ]
    traced = args.trace == 1
    setups = []  # {"scaled": s, "wall": s} per set-up

    def probe(n):
        where = run.work / f"setup{n}.json"
        status, *_ = run.spawn(base + ["--setup-only"], stdout_path=where)
        if run.check(status == 0, f"set-up probe exited {status}"):
            setups.append(json.loads(where.read_text())["setup_s"])

    # Half of the extra set-up samples before the worker and half after, so
    # that they span the run rather than one moment of the host's speed.
    probes = 0 if traced else spec["setup_repeats"] - 1
    for n in range(probes // 2):
        probe(n)
    where = run.work / "bulk.json"
    spans_path = run.artifact(".spans.jsonl")
    status, *_ = run.spawn(
        base + (["--trace", "--spans-out", spans_path] if traced else []), stdout_path=where
    )
    if status != 0:
        raise RuntimeError(f"bulk worker exited {status}; see {run.artifact('.stderr.log')}")
    result = json.loads(where.read_text())
    setups.append(result["setup_s"])
    for n in range(probes // 2, probes):
        probe(n)
    for phase in result["phases"].values():
        run.attempted += phase["attempted"]
        run.failed += phase["failed"]
        run.failures += phase["failures"]
    detail = {"inputs": result["inputs"], "setup_samples_s": setups,
              "worker_host_probe": result["host_probe"]}
    setups = [x["scaled"] for x in setups]
    phases = {
        name: phase_summary(p["per_label"], p["passes"]) for name, p in result["phases"].items()
    }
    if not traced:
        detail["timed"] = phases["timed"]
        return e2e_metrics(phases["timed"], setups, run, detail), detail
    processes = [(tracing.load(spans_path), lambda op: op.split("/")[1], None)]
    # The worker checks each traced call's root span against its own timing.
    span_errors = sum(p["span_errors"] for p in result["phases"].values())
    return traced_results(
        run, phases["untraced"], phases["traced"], processes, detail, span_errors
    ), detail


# ------------------------------------------------------------------- cli


def write_cli_files(run, args):
    """Write cli-small's inputs from a child; returns their manifest.

    The child is corpus generation, not part of the workload, so it is
    neither timed nor counted in the peak RSS.
    """
    for sub in ("in", "art", "out"):
        (run.work / sub).mkdir()
    manifest = subprocess.run(
        [sys.executable, HERE / "corpus.py", "--workload", args.workload,
         "--seed", str(args.seed), "--out", run.work / "in"],
        check=True, stdout=subprocess.PIPE, timeout=run.child_timeout_s,
    ).stdout
    files = json.loads(manifest)
    for f in files:
        f["path"] = run.work / "in" / f"{f['name']}.bin"
    return files


class CliRunner:
    """Starts fbar processes through fbar_cli.py and keeps their records."""

    def __init__(self, run):
        self.run = run
        self.launcher = [sys.executable, HERE / "fbar_cli.py"]
        self.spans_dir = run.work / "spans"
        self.spans_dir.mkdir()
        self.traced_procs = []  # (spans path, command, start ns, end ns)

    def call(self, argv, op, traced):
        """Run one fbar command; returns (exit code is 0, scaled ns, wall ns)."""
        extra = None
        if traced:
            path = self.spans_dir / f"{len(self.traced_procs):05d}.jsonl"
            extra = {"PERFBENCH_SPANS": str(path), "PERFBENCH_OP": op}
        status, start, end, scaled = self.run.spawn(self.launcher + argv, extra)
        ok = self.run.check(status == 0, f"{op}: fbar {argv[0]} exited {status}")
        if traced and ok:
            self.traced_procs.append((path, op.rsplit("/", 1)[-1], start, end))
        return ok, scaled, end - start


def cli_setup(cli, rep, traced):
    """gen-tt (binary, text) and audit; returns (table path, seconds).

    The seconds are the sum over the three processes, as a dict: ``scaled``
    to the reference host speed, and the raw ``wall`` time.
    """
    run = cli.run
    tables = run.work / f"tables{rep}"
    times = []
    ok, *t = cli.call(
        ["gen-tt", "--out", tables, "--format", "binary"], "setup/gen-tt-binary", traced
    )
    times.append(t)
    tt = tables / "tt1.bin"
    if ok:
        run.check(tt.stat().st_size == TT_BINARY_BYTES, f"{tt} has the wrong size")
    ok, *t = cli.call(
        ["gen-tt", "--out", tables / "text", "--format", "text"], "setup/gen-tt-text", traced
    )
    times.append(t)
    text = tables / "text" / "tt1.txt"
    if ok:
        run.check(text.stat().st_size == TT_TEXT_BYTES, f"{text} has the wrong size")
        text.unlink()
    _, *t = cli.call(["audit", "--tt", tt], "setup/audit", traced)
    times.append(t)
    return tt, {"scaled": sum(x[0] for x in times) / 1e9, "wall": sum(x[1] for x in times) / 1e9}


def cli_phase(cli, files, tt, seconds, traced):
    """Compress then decompress file after file for about ``seconds``.

    Works in steps of two files, so that both corpus kinds stay equally
    represented, and stops when one more step would overrun ``seconds``.
    """
    run = cli.run
    per_kind = {f["kind"]: label_stats() for f in files}
    step = 2
    start = time.perf_counter()
    n = 0
    while True:
        f = files[n % len(files)]
        stats = per_kind[f["kind"]]
        op = f"p{n // len(files)}/{f['name']}"
        art = run.work / "art" / f"{f['name']}.fbar"
        out = run.work / "out" / f"{f['name']}.bin"
        ok, scaled, wall = cli.call(
            ["compress", f["path"], "--tt", tt, "--out", art], f"{op}/compress", traced
        )
        if ok:
            stats["compress_ns"].append(scaled)
            stats["compress_wall_ns"].append(wall)
            stats["input_bytes"] += f["size"]
            stats["artifact_bytes"] += art.stat().st_size
            ok, scaled, wall = cli.call(
                ["decompress", art, "--tt", tt, "--out", out], f"{op}/decompress", traced
            )
        if ok:
            size = out.stat().st_size
            same = size == f["size"] and out.read_bytes() == f["path"].read_bytes()
            if run.check(same, f"{op}: decompressed file differs from its input"):
                stats["decompress_ns"].append(scaled)
                stats["decompress_wall_ns"].append(wall)
                stats["output_bytes"] += size
        n += 1
        if n % step == 0 and (time.perf_counter() - start) * (n + step) / n > seconds:
            return phase_summary(per_kind, n / len(files))


def run_cli(run, args, spec):
    files = write_cli_files(run, args)
    detail = {"inputs": [{k: v for k, v in f.items() if k != "path"} for f in files]}
    cli = CliRunner(run)
    traced = args.trace == 1
    tt, seconds = cli_setup(cli, 0, traced)
    setups = [seconds]
    detail["setup_samples_s"] = setups
    if not traced:
        detail["timed"] = cli_phase(cli, files, tt, args.seconds, False)
        # More set-up samples after the measurement, so that they span the run.
        for rep in range(1, spec["setup_repeats"]):
            setups.append(cli_setup(cli, rep, False)[1])
        scaled = [x["scaled"] for x in setups]
        return e2e_metrics(detail["timed"], scaled, run, detail), detail

    untraced = cli_phase(cli, files, tt, args.seconds / 2, False)
    traced_phase = cli_phase(cli, files, tt, args.seconds / 2, True)
    processes = []
    with open(run.artifact(".spans.jsonl"), "w") as fh:
        for k, (path, _command, start, end) in enumerate(cli.traced_procs):
            spans = tracing.load(path)
            processes.append((spans, lambda op: op.rsplit("/", 1)[-1], (start, end)))
            for record in spans:
                fh.write(json.dumps([k] + record) + "\n")
    metrics = traced_results(run, untraced, traced_phase, processes, detail)
    detail["cli.compress_call_s"] = untraced["compress_calls"]
    detail["cli.decompress_call_s"] = untraced["decompress_calls"]
    breakdown = _decompress_breakdown(cli.traced_procs)
    detail["cli.decompress_breakdown_s"] = breakdown
    # The table path: load_binary, plus verify_tt and the pair_table it builds.
    table_path = sum(breakdown.get(name, 0.0) for name in (
        "transtable.load_binary", "transtable.verify_tt", "addressing.pair_table"))
    detail["cli.decompress_table_path_s"] = table_path
    # The breakdown adds up to the mean wall time of a traced decompress process.
    wall = sum(breakdown.values())
    detail["cli.decompress_table_path_share"] = table_path / wall if wall else float("nan")
    return metrics, detail


def _decompress_breakdown(procs):
    """Mean self seconds per traced decompress process, largest first.

    ``process`` is the part of the wall time outside ``cli.main``:
    interpreter start-up, imports and writing the spans.
    """
    totals = Counter()
    n = 0
    for path, command, start, end in procs:
        if command != "decompress":
            continue
        n += 1
        wall = (end - start) / 1e9
        rows, _ = tracing.analyze(tracing.load(path))
        main_s = sum(d for name, _, _, d, _ in rows if name == "cli.main") / 1e9
        totals["process"] += wall - main_s
        for name, _, s_ns, _, _ in rows:
            totals[name] += s_ns / 1e9
    return {k: v / n for k, v in totals.most_common()} if n else {}


# ------------------------------------------------------------------ main


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(root, run):
    # Imported here, after every child has run: see the module docstring.
    import hashlib
    import platform

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "fbar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "fbar_commit": git_commit(root),
        "fbar_src_sha256": digest.hexdigest(),
        "import_samples_s": run.import_walls,
        "parent_rss_at_spawn_MiB": run.floor_mib,
        "children": len(run.peaks_mib),
    }


def unit_of(name):
    for suffix, unit in (("_MBps", "MB/s"), ("_ms", "ms"), ("_s", "s"), ("_MiB", "MiB"),
                         ("_frac", "ratio"), ("_ratio", "ratio"), ("_share", "ratio"),
                         ("_per_block", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="Seeded benchmark of fbar.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-benchmark-json", action="store_true",
        help="write BENCHMARK.json in the current directory and exit",
    )
    args = parser.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = _parse_args(argv)
    root = Path.cwd()
    if args.write_benchmark_json:
        (root / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if not (root / "src" / "fbar" / "__init__.py").is_file():
        print(f"error: no fbar source tree at {root / 'src' / 'fbar'}; "
              "run from the root of an fbar checkout", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    signal.signal(signal.SIGALRM, _on_alarm)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (root / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".perfbench_work"))
    run = Run(root, work, out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}",
              args.seconds)
    try:
        run.import_walls = import_probe(run, IMPORT_SAMPLES if args.trace else 0)
        runner = run_bulk if spec["runner"] == "bulk" else run_cli
        metrics, detail = runner(run, args, spec)
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)

    nesting_errors = detail.get("nesting_errors", 0)
    correct = run.failed == 0 and nesting_errors == 0
    record = {
        "workload": args.workload,
        "why": spec["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_frac": run.failed / run.attempted,
        "failures": run.failures,
        "metrics": metrics,
        "detail": detail,
        "meta": run_metadata(root, run),
    }
    record["meta"]["pinned_cpu"] = cpu
    record["meta"]["host_probe"] = hostspeed.summary()
    record_path = run.artifact(".json")
    record_path.write_text(json.dumps(record, indent=1))

    for name, value in metrics.items():
        print(f"{args.workload:<12} {name:<32} {value:>14.6g} {unit_of(name)}")
    for group, values in detail.get("by_group", {}).items():
        print(f"{args.workload:<12} [{group}] " + " ".join(
            f"{k}={v:.6g}" for k, v in values.items()))
    calls = {name: detail[name] for name in ("cli.compress_call_s", "cli.decompress_call_s")
             if name in detail}
    if "timed" in detail:
        calls.update((f"{op}_call_s", detail["timed"][f"{op}_calls"])
                     for op in ("compress", "decompress"))
    for name, summary in calls.items():
        print(f"{args.workload:<12} {name:<32} " + " ".join(
            f"{k}={v:.6g}" for k, v in summary.items()))
    print(f"{args.workload:<12} {'fail_frac':<32} {record['fail_frac']:>14.6g} ratio"
          f"  ({run.failed} of {run.attempted} operations failed)")
    for message in run.failures:
        print(f"{args.workload:<12} FAILED: {message}")
    meta = record["meta"]
    print(f"{args.workload:<12} seed {args.seed}, python {meta['python']}, nproc {meta['nproc']}, "
          f"fbar {meta['fbar_commit'] or 'unknown commit'}, "
          f"inputs {sum(i['size'] for i in detail['inputs'])} bytes")
    for who, summary in (("run.py", record["meta"]["host_probe"]),
                         ("worker", detail.get("worker_host_probe"))):
        if not summary:
            continue
        print(f"{args.workload:<12} host probe ({who}): {summary['n']} runs, median "
              f"{summary['p50_ms']:.4g} ms, {summary['min_ms']:.4g}-{summary['max_ms']:.4g} ms; "
              f"times are scaled to {hostspeed.REF_NS / 1e6:g} ms")
    print(f"{args.workload:<12} record: {record_path.relative_to(root)}")
    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, *_ in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

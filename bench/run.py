"""spineforge benchmark: one workload per run, end to end or traced.

    python3 bench/run.py --workload chart-walk --seed 3 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 3 --seconds 36

Run it from the repository root: the package is imported from ./src, and
outputs go to ./.bench_out.  Every run prints its numbers, one per line with
the unit, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See bench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from collections import Counter
from itertools import islice
from pathlib import Path

import inputs
from calibrate import Calibration
from spans import Tracer, no_span
from workloads import BANDS, WORKLOADS

END_TO_END = (("setup_s", "s"), ("ok_ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("ok_share", "share"), ("peak_rss_mb", "MB"))

# per-layer time metric -> the spans it sums; a span met inside operations
# counts per operation, one met only in set-up counts per set-up
SPAN_METRICS = {
    "simplicial.parse_s": ("simplicial.parse",),
    "simplicial.validate_s": ("simplicial.validate",),
    "simplicial.metric_s": ("simplicial.metric",),
    "spine.decompose_s": ("spine.decompose",),
    "spine.subcomplex_s": ("spine.subcomplex",),
    "spine.connected_s": ("spine.connected",),
    "homology.punctured_s": ("homology.puncture", "homology.groups_punctured"),
    "homology.spine_s": ("homology.groups_spine",),
    "chart.build_s": ("chart.build",),
    "fields.frame_s": ("fields.frame",),
    "fields.deform_build_s": ("fields.deform_build",),
    "fields.continuity_s": ("fields.continuity",),
    "fields.samples_s": ("fields.samples",),
}
SELF_LAYERS = ("spine", "homology", "chart", "fields", "harness")
PER_LAYER = (
    [(name, "s") for name in SPAN_METRICS if name.startswith(("simplicial", "spine"))]
    + [("spine.gates", "count"), ("spine.spine_ridges", "count"),
       ("homology.punctured_s", "s"), ("homology.spine_s", "s"), ("homology.snf_cells", "count"),
       ("chart.build_s", "s"), ("chart.inverse_us", "us"), ("chart.forward_us", "us"),
       ("chart.retract_us", "us")]
    + [(f"chart.query_us.{b}", "us") for b in BANDS]
    + [(f"chart.fail_share.{b}", "share") for b in BANDS]
    + [(f"chart.roundtrip_err_max.{b}", "length") for b in BANDS]
    + [("chart.line_depth_p50", "count"), ("chart.line_depth_max", "count"),
       ("chart.walk_segments", "count")]
    + [(name, "s") for name in SPAN_METRICS if name.startswith("fields")]
    + [("fields.probes", "count"), ("fields.sample_rows", "count"),
       ("cli.verify_s", "s"), ("cli.deform_s", "s"), ("cli.decompose_s", "s"),
       ("trace.overhead_share", "share")]
    + [(f"self_s.{layer}", "s") for layer in SELF_LAYERS]
)
# no round trip measured reads -1, never as a perfect 0
NOT_MEASURED = {f"chart.roundtrip_err_max.{b}": -1.0 for b in BANDS}

CLI_REPS = 3
CLI_TIMEOUT_S = 60
TRACED_CAP_S = 90     # the traced operations stop here even if the list is not done
TAIL_SLICE = 1000


def load_package(root: Path):
    src = root / "src" / "spineforge"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {src}; run from the repository root")
    sys.path.insert(0, str(src.parent))
    import spineforge
    if Path(spineforge.__file__).resolve().parent != src.resolve():
        raise SystemExit(f"error: imported spineforge from {spineforge.__file__}, not {src}")
    return spineforge


def run_ops(wl, state, items, span, cal, deadline, tracer=None, keep=False, first=0):
    """Closed loop, one caller: the next operation starts when the last ends,
    until the items or the time (a perf_counter ``deadline``) run out.  The
    reference kernel runs between operations every half second.

    Returns (latencies ns, failure reasons by count, wall seconds without the
    kernel's time, records); records (latency, reason, item, info) are kept
    only when ``keep`` is set, so the timed run's memory does not grow with
    its throughput.  ``first`` numbers the operations for the tracer.
    """
    latencies = array("q")
    reasons = Counter()
    records = []
    kernel_s = cal.seconds
    start = time.perf_counter()
    for i, item in enumerate(items, first):
        if time.perf_counter() >= deadline:
            break
        if cal.due():
            cal.sample()
        if tracer is not None:
            tracer.op = i
        info = {}
        t0 = time.perf_counter_ns()
        try:
            with span("harness.op"):
                reason = wl.op(state, item, span, info)
        except Exception as exc:   # a failing operation is a result; the loop goes on
            reason = type(exc).__name__
        latency = time.perf_counter_ns() - t0
        latencies.append(latency)
        if reason is not None:
            reasons[reason] += 1
        if keep:
            records.append((latency, reason, item, info))
    if tracer is not None:
        tracer.op = None
    wall = time.perf_counter() - start - (cal.seconds - kernel_s)
    return latencies, reasons, wall, records


def set_up(wl, span, cal):
    """Set up wl.setup_reps times, sampling the reference kernel before each."""
    times = []
    state = None
    for _ in range(wl.setup_reps):
        state = None          # free the last input before building the next
        cal.sample()
        t0 = time.perf_counter()
        state = wl.setup(span)
        times.append(time.perf_counter() - t0)
    wl.prepare(state)
    return state, times


def tail(latencies):
    """Highest percentile with at least ten samples beyond it.

    A run of TAIL_SLICE * 2 operations or more is cut into consecutive slices
    of TAIL_SLICE and reports the median over slices of each slice's 11th
    largest latency (its p99): the percentile then stays put when throughput
    grows, and one host hiccup moves one slice, not the result.  A shorter
    run reports its own 11th largest latency.  Returns (value ns,
    percentile, description of the sample).
    """
    n = len(latencies)
    if n >= 2 * TAIL_SLICE:
        per_slice = [sorted(latencies[i:i + TAIL_SLICE])[TAIL_SLICE - 11]
                     for i in range(0, n - TAIL_SLICE + 1, TAIL_SLICE)]
        return (statistics.median(per_slice), 100.0 * (TAIL_SLICE - 10) / TAIL_SLICE,
                f"median over {len(per_slice)} slices of {TAIL_SLICE} samples, 10 beyond in each")
    ordered = sorted(latencies)
    if n <= 10:
        return ordered[-1], 100.0, f"maximum of {n} samples, none beyond"
    return ordered[n - 11], 100.0 * (n - 10) / n, f"{n} samples, 10 beyond"


def count_failures(wl, reasons):
    """(failed, known): operations that failed, and operations that met one
    of the workload's known outcomes; neither kind passed."""
    known = sum(n for reason, n in reasons.items() if reason in wl.known_outcomes)
    return sum(reasons.values()) - known, known


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, seconds):
    cal = Calibration()
    state, setup_times = set_up(wl, no_span, cal)
    setup_speed = cal.factor()
    mark = cal.mark()
    latencies, reasons, wall, _ = run_ops(wl, state, wl.items(), no_span, cal,
                                          deadline=time.perf_counter() + seconds)
    speed = cal.factor(since=mark)
    attempted = len(latencies)
    failed, known = count_failures(wl, reasons)
    ok = attempted - failed - known
    raw = {"setup_s": statistics.median(setup_times), "ok_ops_per_s": ok / wall,
           "op_p50_ms": statistics.median(latencies) / 1e6 if attempted else 0.0,
           "op_tail_ms": 0.0}
    notes = [f"{attempted} operations in {wall:.3f} s, {ok} passed, {known} met a known "
             f"outcome {sorted(wl.known_outcomes)}, {failed} failed",
             f"fail_share {(attempted - ok) / attempted if attempted else 0.0:.6f} share"
             f" ({attempted - ok}/{attempted} not passed); by reason: {dict(reasons)}",
             f"setup_s is the median of {len(setup_times)} set-ups"]
    if attempted:
        value, pct, sample = tail(latencies)
        raw["op_tail_ms"] = value / 1e6
        notes.append(f"op_tail_ms is p{pct:.3f}: {sample}")
    notes.append(f"machine speed factor {setup_speed:.4f} in set-up, {speed:.4f} in operations")
    notes.append("wall-clock values: " + ", ".join(f"{k} {v!r}" for k, v in raw.items()))
    metrics = {"setup_s": raw["setup_s"] * setup_speed,
               "ok_ops_per_s": raw["ok_ops_per_s"] / speed,
               "op_p50_ms": raw["op_p50_ms"] * speed,
               "op_tail_ms": raw["op_tail_ms"] * speed,
               "ok_share": ok / attempted if attempted else 0.0,
               "peak_rss_mb": peak_rss_mb()}
    return metrics, attempted, failed, ok, notes


def cli_phase(root, seed, tracer, cal):
    """Time `python -m spineforge.cli` verify, deform and decompose on the
    generated 12 x 12 torus.  verify and decompose must exit 0 with JSON;
    deform's exit code is recorded, and anything but 0 or 1, or a
    traceback, is a failure."""
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    times = {"verify": [], "deform": [], "decompose": []}
    failures = []
    hard = []
    exits = {name: [] for name in times}
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        tri = Path(tmp) / "torus12.tri"
        fld = Path(tmp) / "linear11.fld"
        tri.write_text(inputs.torus_tri(12), encoding="utf-8")
        fld.write_text(inputs.linear_fld(), encoding="utf-8")
        commands = {
            "verify": ["verify", str(tri), "--runs", "1", "--strategy", "random"],
            "deform": ["deform", str(tri), "--field", str(fld), "--eps-frac", "0.25",
                       "--samples", "20", "--strategy", "random", "--seed", str(seed)],
            "decompose": ["decompose", str(tri), "--strategy", "random", "--seed", str(seed)],
        }
        for _ in range(CLI_REPS):
            for name, args in commands.items():
                cal.sample()
                with tracer.span(f"cli.{name}"):
                    t0 = time.perf_counter()
                    try:
                        proc = subprocess.run([sys.executable, "-m", "spineforge.cli", *args],
                                              cwd=root, env=env, capture_output=True,
                                              text=True, timeout=CLI_TIMEOUT_S)
                    except subprocess.TimeoutExpired:
                        proc = None
                    times[name].append(time.perf_counter() - t0)
                problem = _cli_problem(name, proc)
                exits[name].append(proc.returncode if proc else None)
                if problem:
                    failures.append(problem)
                    if name != "deform":
                        hard.append(problem)
    medians = {f"cli.{name}_s": statistics.median(t) for name, t in times.items()}
    return medians, len(times) * CLI_REPS, failures, hard, exits


def _cli_problem(name, proc):
    if proc is None:
        return f"cli {name}: timed out after {CLI_TIMEOUT_S} s"
    if "Traceback" in proc.stderr:
        return f"cli {name}: traceback, exit {proc.returncode}"
    allowed = (0, 1) if name == "deform" else (0,)
    if proc.returncode not in allowed:
        return f"cli {name}: exit {proc.returncode}"
    try:
        json.loads(proc.stdout)
    except json.JSONDecodeError:
        return f"cli {name}: output is not JSON"
    return None


def traced(wl, seconds, seed, root):
    """Per-layer numbers: traced set-ups, then a fixed list of operations run
    in chunks, each chunk untraced and traced (the throughput ratio is the
    tracing overhead, and both halves see the same machine), then the
    command-line timings.  Every time is scaled by the run's machine speed
    factor.  Spans are written to .bench_out at the end."""
    tracer = Tracer()
    cal = Calibration()
    state, _ = set_up(wl, tracer.span, cal)
    count = max(4, round(wl.traced_rate * seconds / 2))
    items = list(islice(wl.items(), count))
    chunk = max(1, count // 20)
    deadline = time.perf_counter() + TRACED_CAP_S
    plain_ok = plain_wall = wall = 0.0
    reasons = Counter()
    ops = []
    for i in range(0, count, chunk):
        # alternate which half goes first: the second one finds the chunk's
        # data in cache
        for traced_half in ((False, True) if i // chunk % 2 == 0 else (True, False)):
            if not traced_half:
                lat, why, secs, _ = run_ops(wl, state, items[i:i + chunk], no_span, cal, deadline)
                plain_ok += len(lat) - sum(why.values())
                plain_wall += secs
                continue
            with tracer.wrapping(wl.wrap_targets()):
                lat, why, secs, recs = run_ops(wl, state, items[i:i + chunk], tracer.span, cal,
                                               deadline, tracer=tracer, keep=True, first=i)
            reasons += why
            wall += secs
            ops += recs
    cli_times, cli_calls, cli_failures, cli_hard, cli_exits = cli_phase(root, seed, tracer, cal)
    speed = cal.factor()

    n = len(ops)
    per_op = max(n, 1)
    in_ops = tracer.durations(ops=True)
    in_setup = tracer.durations(ops=False)
    spans_by_op = {}
    for name, start, end, _, op in tracer.spans:
        if op is not None:
            row = spans_by_op.setdefault(op, {})
            row[name] = row.get(name, 0.0) + (end - start) / 1e9
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update(NOT_MEASURED)
    for name, span_names in SPAN_METRICS.items():
        if any(s in in_ops for s in span_names):
            metrics[name] = sum(in_ops.get(s, 0.0) for s in span_names) / per_op
        else:
            metrics[name] = sum(in_setup.get(s, 0.0) for s in span_names) / wl.setup_reps
    metrics.update(wl.layer_metrics(state, ops, spans_by_op))
    metrics.update(cli_times)
    for layer, secs in tracer.self_times().items():
        metrics[f"self_s.{layer}"] = secs / per_op
    for name, unit in PER_LAYER:
        if unit in ("s", "us"):
            metrics[name] *= speed
    op_failed, known = count_failures(wl, reasons)
    ok = n - op_failed - known
    if plain_ok and plain_wall and wall:
        metrics["trace.overhead_share"] = 1.0 - (ok / wall) / (plain_ok / plain_wall)

    attempted = n + cli_calls
    failed = op_failed + len(cli_failures)
    op_time = in_ops.get("harness.op", 0.0)
    notes = [f"{n} traced operations (and as many untraced), {ok} passed, {known} met a known "
             f"outcome, {op_failed} failed; by reason: {dict(reasons)}",
             f"machine speed factor {speed:.4f}; every time below is multiplied by it",
             f"command line: exit codes {cli_exits}; problems: {cli_failures}",
             "share of traced operation time by layer (self time): " + ", ".join(
                 f"{layer} {metrics[f'self_s.{layer}'] * per_op / speed / op_time:.3f}"
                 for layer in SELF_LAYERS if op_time)]
    tracer.write(root / ".bench_out" / f"trace-{wl.name}.json", {
        "workload": wl.name, "seed": seed, "seconds": seconds, "operations": n,
        "speed_factor": speed,
        "failures": dict(reasons), "cli_exits": cli_exits, "cli_problems": cli_failures,
        "metrics": metrics})
    return metrics, attempted, failed, ok, notes, cli_hard


def run_all(seed, seconds):
    """Every workload end to end and traced, each run in its own process so
    that peak memory is per run.  Exits 1 unless every run is correct."""
    all_correct = True
    for name in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                                   str(seed), "--seconds", str(seconds), "--trace", trace],
                                  stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            all_correct &= proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if all_correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or 'all' for every workload end to end and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    root = Path.cwd()
    sf = load_package(root)
    wl = WORKLOADS[args.workload](sf, args.seed)
    problems = inputs.self_check(sf, wl.texts, wl.k)
    for problem in problems:
        print(f"input self-check failed: {problem}")

    if args.trace:
        metrics, attempted, failed, ok, notes, hard = traced(wl, args.seconds, args.seed, root)
        units = PER_LAYER
        problems += hard
    else:
        metrics, attempted, failed, ok, notes = end_to_end(wl, args.seconds)
        units = END_TO_END
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, unit in units:
        print(f"  {name:32s} {metrics[name]!r} {unit}")
    result = {
        # the run is correct when its inputs and the command line passed
        # their checks, no operation failed and at least one passed
        "correct": not problems and attempted >= 1 and ok >= 1 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

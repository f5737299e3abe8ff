"""Benchmark of xistep: one workload per process, one worker.

    python3 perfbench/run.py --workload mc_stationary --seed 1 \
        --seconds 30 --trace 0

Runs the workload's fixed batch again and again for `--seconds` seconds
and reports medians. Times are scaled to a reference machine speed by
calibration slices run around every timed step (see clock.py); the raw
seconds are printed too. With `--trace 0` it prints the end-to-end metrics
named in BENCHMARK.json; with `--trace 1` it alternates untraced and traced
batches, runs the traced probes and prints the per-layer metrics, and
writes the spans as JSONL under perfbench/out/. The lines before the last
describe the run for a reader; the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every answer check passed.

`--size tiny` and `--expected FILE` exist for the benchmark's own test.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# one warm-up child (it also writes the bytecode cache), then the median
# of the measured ones
SETUP_CHILDREN = {"full": (1, 7), "tiny": (0, 1)}

# spans whose inclusive seconds are reported as per-layer `<span>_s`
SPANS = ("cli.stationary", "cli.qt", "cli.rates", "cli.reversibility",
         "cli.hausdorff", "config.load_config", "simplex.build_rate_table",
         "simplex.check_consistency", "simulator.estimate_stationary",
         "simulator.estimate_qt", "simulator.genealogical",
         "moments.stationary_system", "moments.hausdorff_check",
         "reversibility.probes")
COUNTERS = ("simplex.profiles", "simplex.consistency_checks",
            "moments.unknowns", "moments.hausdorff_differences",
            "moments.max_bits")
MODULES = ("cli", "config", "simplex", "simulator", "moments", "linalg",
           "reversibility", "bench")
# probe metrics a workload without that probe reports as 0
PROBE_METRICS = (
    "simulator.replica_p50_us", "simulator.replica_p99_us",
    "simulator.events_per_replica", "simulator.coalescence_share",
    "simulator.multi_merger_share", "simulator.truncated",
    "simulator.replica_mean_matches", "simulator.replay_paths_per_s",
    "simulator.variance_per_replica", "linalg.solve_exact_s",
    "linalg.resolve_identical")


def host_info():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu,
            "XISTEP_THREADS": os.environ.get("XISTEP_THREADS")}


def setup_child(workload):
    """Body of a set-up child: import, load_config and model objects, up
    to the first replica or solve, timed in a fresh interpreter and scaled
    by calibration slices run just before and after."""
    before = clock.bracket()
    t0 = time.perf_counter()
    import xistep.cli  # noqa: F401  (the import is what is timed)
    t1 = time.perf_counter()
    import workloads
    from xistep.config import load_config
    wl = workloads.WORKLOADS[workload]
    path = workloads.CONFIGS / wl.config
    wl.model_objects(load_config(path))
    t2 = time.perf_counter()
    scale = clock.REFERENCE_SLICE_S / ((before + clock.bracket()) / 2)
    print(json.dumps({"import_s": (t1 - t0) * scale,
                      "setup_s": (t2 - t0) * scale}))
    return 0


def measure_setup(workload, size):
    """Median scaled set-up seconds (and import seconds) of fresh child
    interpreters."""
    warm, measured = SETUP_CHILDREN[size]
    setups, imports = [], []
    for i in range(warm + measured):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-child",
             "--workload", workload, "--seed", "0", "--seconds", "0"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-500:]}")
        if i >= warm:
            child = json.loads(proc.stdout.splitlines()[-1])
            setups.append(child["setup_s"])
            imports.append(child["import_s"])
    return statistics.median(setups), statistics.median(imports)


def timed_batch(wl, ops, tracer=None):
    sw = clock.Stopwatch(tracer)
    result = wl.batch(ops, sw)
    result["sw"] = sw
    return result


def scaled_figures(b):
    """Scaled wall, estimator (or sweep) seconds and time to se 1e-3 of
    one batch."""
    sw = b["sw"]
    busy = sw.scaled(b["busy"])
    if b.get("headline"):
        to_se = sw.scaled((b["headline"],)) * b["headline_se"] ** 2 / 1e-6
    else:   # exact answers carry no error: the time to one answer
        to_se = busy / max(1, b["samples"])
    return {"wall": sw.scaled(), "raw_wall": sw.raw(),
            "throughput": b["samples"] / busy if busy else 0.0,
            "time_to_se": to_se}


def median_of(rows, key):
    return statistics.median(r[key] for r in rows)


def end_to_end(batches, setup_s, import_s):
    """wall_s adds the one-time import to the batch (which includes its
    own config load and model objects, as a CLI call does)."""
    figs = [scaled_figures(b) for b in batches]
    return {
        "wall_s": median_of(figs, "wall") + import_s,
        "setup_s": setup_s,
        "throughput_per_s": median_of(figs, "throughput"),
        "time_to_se_1e-3_s": median_of(figs, "time_to_se"),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(wl, ops, seconds, tracer):
    """Alternate untraced and traced batches for `seconds`, then run the
    workload's probes once with spans on. Layer times are raw span
    seconds; shares are over the time of the batch's step spans."""
    plain, traced, layer_rows = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        if len(plain) <= len(traced):
            plain.append(timed_batch(wl, ops))
            continue
        tracer.trace_id += 1
        tracer.counters.clear()
        with tracer.installed():
            result = timed_batch(wl, ops, tracer)
        traced.append(result)
        inclusive, self_s = tracer.totals(tracer.trace_id)
        row = {f"{name}_s": inclusive.get(name, 0.0) for name in SPANS}
        steps_s = sum(v for k, v in inclusive.items()
                      if k.startswith("bench."))
        row.update({f"{m}.self_share": self_s.get(m, 0.0) / steps_s
                    for m in MODULES})
        layer_rows.append(row)
    wl.finish(ops)
    counters = {k: tracer.counters.get(k, 0) for k in COUNTERS}
    metrics = {k: statistics.median(r[k] for r in layer_rows)
               for k in layer_rows[0]}
    metrics.update(counters)
    metrics.update(dict.fromkeys(PROBE_METRICS, 0))
    all_batches = plain + traced
    for key in ("variance_per_replica", "replay_paths_per_s"):
        values = [b[key] for b in all_batches if key in b]
        if values:
            metrics[f"simulator.{key}"] = statistics.median(values)
    tracer.trace_id += 1
    metrics.update(wl.probe(ops, tracer))
    metrics["trace.overhead_frac"] = (
        statistics.median(b["sw"].scaled() for b in traced)
        / statistics.median(b["sw"].scaled() for b in plain) - 1)
    return metrics, plain


def parse_args(argv):
    p = argparse.ArgumentParser(description="xistep benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--expected", default=str(HERE / "expected.json"),
                   help="recorded exact answers (the test plants wrong ones)")
    p.add_argument("--setup-child", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def describe(args, wl, ops, values, declared, batches):
    """The human-readable lines printed before the result line."""
    figs = [scaled_figures(b) for b in batches]
    lines = [f"perfbench workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace} "
             f"size={args.size}",
             f"host {json.dumps(host_info(), sort_keys=True)}"]
    for key in ("raw_wall", "wall"):
        v = sorted(f[key] for f in figs)
        lines.append(f"untraced batches {len(v)}, {key} seconds: min "
                     f"{v[0]:.4f}, median {statistics.median(v):.4f}, "
                     f"max {v[-1]:.4f}")
    for m in declared:
        label = m["name"]
        if label == "throughput_per_s":
            label = f"{label} ({wl.throughput_name})"
        lines.append(f"  {label:<40} {values[m['name']]:.6g} {m['unit']}")
    lines.append(f"  {'failed_fraction':<40} "
                 f"{ops.failed / max(1, ops.attempted):.6g} "
                 f"({ops.failed} of {ops.attempted} operations)")
    lines.extend(f"FAILED x{n}: {name}"
                 for name, n in ops.failures.most_common(20))
    if args.workload == "exact_sweep":
        lines.append(f"digest of the solved moments {wl.digest}")
        lines.append(wl.ceiling_note())
    return lines


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "xistep" / "__init__.py").is_file():
        print(f"perfbench: no xistep package under {SRC}; run from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["XISTEP_THREADS"] = "1"
    if args.setup_child:
        return setup_child(args.workload)

    import workloads
    from spans import Tracer
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads(Path(args.expected).read_text())
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, expected)
    ops = workloads.Ops()

    if args.trace:
        tracer = Tracer()
        values, batches = per_layer(wl, ops, args.seconds, tracer)
        kind = "per_layer"
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_path, {
            "workload": args.workload, "seed": args.seed,
            "size": args.size, "host": host_info()})
    else:
        setup_s, import_s = measure_setup(args.workload, args.size)
        batches = []
        deadline = time.perf_counter() + args.seconds
        while not batches or time.perf_counter() < deadline:
            batches.append(timed_batch(wl, ops))
        wl.finish(ops)
        values = end_to_end(batches, setup_s, import_s)
        kind = "end_to_end"

    for line in describe(args, wl, ops, values, declared[kind], batches):
        print(line)
    if args.trace:
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]}
                    for m in declared[kind]}}))
    return 0 if ops.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""spraylink benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload fit_1k --seed 1 --seconds 16 --trace 0

Run from the repository root; the program is imported from src/. The run
sets up its inputs five times (reporting the median set-up time), then
runs ops in a closed loop with one caller until the ops have taken
--seconds seconds and the input pool has been covered once. Every op's
output is checked; failures are counted, not raised. The workload's fixed
reference kernel runs between ops, and the reported times are scaled to the
host speed at which it takes the workload's ref_nominal_s (see normalised()).
With --trace 0 the
last stdout line carries the end-to-end metrics; with --trace 1 the same
loop runs untraced and then traced, and the last line carries the
per-layer metrics. README.md defines every metric.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads; children inherit the settings.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import glob
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
# Samples of the reference kernel on each side of an op that set its speed.
REF_WINDOW = 3

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_s.p50": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "fitting.grid_s": "s", "fitting.grid.self_s": "s",
    "fitting.grid.infeasible_cells": "count", "fitting.grid.feasible_ratio": "ratio",
    "fitting.model_evals.grid": "count", "fitting.model_evals.lm": "count",
    "fitting.lm_s": "s", "fitting.lm.iterations": "count", "fitting.lm.failed_evals": "count",
    "channel.response_voltages.calls": "count", "channel.response_voltages.busy_s": "s",
    "channel.response_voltages.self_s": "s", "channel.response_voltages.samples": "count",
    "channel.response_voltages.failed": "count",
    "kinetics.bound_concentration.calls": "count", "kinetics.bound_concentration.busy_s": "s",
    "kinetics.bound_concentration.samples": "count",
    "sensor.sensitivity.busy_s": "s",
    "sensor.voltage_from_sensitivity.busy_s": "s", "sensor.voltage_from_sensitivity.failed": "count",
    **{f"traceio.{fn}.{what}": unit
       for fn in ("load_trace", "store_trace", "preprocess", "detect_onset", "resample")
       for what, unit in (("busy_s", "s"), ("bytes", "bytes"))},
    "traceio.load_trace.rows": "count",
    "cli.interpreter_s": "s", "cli.import_s": "s", "cli.trend_s": "s",
    "rel_err.k1": "ratio", "rel_err.k2": "ratio", "rel_err.gamma": "ratio",
    "onset_err_s.p50": "s",
    "trace.ops_per_s": "1/s", "trace.untraced_ops_per_s": "1/s",
}


def ref_sample(wl):
    t0 = perf_counter()
    wl.ref_kernel()
    return perf_counter() - t0


def normalised(times, refs, nominal):
    """Scale each time to the nominal machine speed.

    The host's speed drifts by up to 2x over seconds to minutes (other
    tenants on shared cores), and the reference kernel's time drifts with
    it. refs holds REF_WINDOW samples taken before times[0], one after each
    time, and REF_WINDOW - 1 more after the last, so refs[i:i + 2 *
    REF_WINDOW] are the REF_WINDOW samples on each side of times[i]. Each
    time is multiplied by `nominal` over the median of those.
    """
    return [t * nominal / statistics.median(refs[i:i + 2 * REF_WINDOW])
            for i, t in enumerate(times)]


def child_wall(cmd, env):
    t0 = perf_counter()
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)
    return perf_counter() - t0


def environment(np):
    caches = {}
    for level in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
            caches[level.lower()] = int(out.stdout)
        except (OSError, ValueError, subprocess.SubprocessError):
            caches[level.lower()] = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "machine": platform.machine(),
    }


def run_loop(wl, pool, seconds, rec=None, trace_args=lambda i: []):
    """Closed loop over the pool; returns latencies, failures and first-pass outputs."""
    lat, first, failed, busy, i = [], [], 0, 0.0, 0
    refs = [ref_sample(wl) for _ in range(REF_WINDOW)]
    while busy < seconds or i < len(pool):
        item = pool[i % len(pool)]
        args = trace_args(i)
        if rec is not None:
            rec.op = i
        t0 = perf_counter()
        try:
            out = wl.op(item, args)
        except Exception as exc:  # an op that raises is a counted failure
            out = None
            print(f"op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        dt = perf_counter() - t0
        if rec is not None:
            rec.op = -1
        ok = out is not None and bool(wl.check(item, out))
        if not ok:
            failed += 1
            print(f"op {i} failed its output check", file=sys.stderr)
        if i < len(pool):
            first.append(out if ok else None)
        lat.append(dt)
        busy += dt
        i += 1
        refs.append(ref_sample(wl))
    refs += [ref_sample(wl) for _ in range(REF_WINDOW - 1)]
    norm = normalised(lat, refs, wl.ref_nominal_s)
    return {"lat": lat, "norm": norm, "refs": refs, "failed": failed, "busy": busy,
            "first": first, "ops_per_s": (i - failed) / sum(norm),
            "raw_ops_per_s": (i - failed) / busy}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "spraylink")):
        print(f"error: no spraylink sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import spans
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, ROOT)
    env = workloads.child_env(ROOT)
    workdir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        # Set-up: first import (in a fresh interpreter), inputs, one warm-up op.
        setups, setup_refs, interp, imports = [], [], [], []
        for _ in range(SETUP_REPEATS):
            before = [ref_sample(wl) for _ in range(REF_WINDOW)]
            interp.append(child_wall([sys.executable, "-c", "pass"], env))
            t0 = perf_counter()
            imports.append(child_wall([sys.executable, "-c", "import spraylink"], env))
            pool = wl.make_inputs(args.seed, workdir)
            wl.op(pool[0], [])
            setups.append(perf_counter() - t0)
            setup_refs.append(before + [ref_sample(wl) for _ in range(REF_WINDOW)])

        plain = run_loop(wl, pool, args.seconds)
        quality, quality_ok = {}, False
        if all(out is not None for out in plain["first"]):
            quality, quality_ok = wl.quality(pool, plain["first"])
        if not quality_ok:
            print(f"accuracy check failed: {quality}", file=sys.stderr)
        layers, repeat_ok, traced = {}, True, {"lat": [], "failed": 0}
        if args.trace:
            rec = spans.Recorder()
            rec.install()
            span_dir = os.path.join(workdir, "spans")
            os.makedirs(span_dir)
            child_args = lambda i: (["--spans", os.path.join(span_dir, f"op{i}.npz"), "--op", str(i)]
                                    if isinstance(wl, workloads.CliWorkload) else [])
            traced = run_loop(wl, pool, args.seconds, rec, child_args)
            parts = [rec.arrays()] + [dict(np.load(p)) for p in sorted(glob.glob(
                os.path.join(span_dir, "*.npz")))]
            merged = spans.merge(parts)
            layers, table = spans.layer_metrics(merged, len(pool), len(traced["lat"]))
            repeat_ok = all(row == table.get(i % len(pool)) for i, row in table.items())
            if not repeat_ok:
                print("exact counts differ between passes over the same inputs", file=sys.stderr)
            np.savez(os.path.join(HERE, "out", f"spans-{args.workload}.npz"),
                     **{k: np.asarray(v) for k, v in merged.items()})
            layers["trace.ops_per_s"] = traced["ops_per_s"]
            layers["trace.untraced_ops_per_s"] = plain["ops_per_s"]
        finish, finish_ok = wl.finish(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    usage = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.CliWorkload) else resource.RUSAGE_SELF
    lat = plain["norm"]
    attempted = len(lat) + len(traced["lat"]) + (1 if isinstance(wl, workloads.CliWorkload) else 0)
    failed = plain["failed"] + traced["failed"] + (0 if finish_ok else 1)
    setup_norm = [normalised([t], r, wl.ref_nominal_s)[0] for t, r in zip(setups, setup_refs)]
    end_to_end = {
        "setup_s": statistics.median(setup_norm),
        "ops_per_s": plain["ops_per_s"],
        "latency_s.p50": statistics.median(lat),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    layer_all = {name: 0.0 for name in PER_LAYER}
    layer_all.update(layers)
    layer_all.update(quality)
    layer_all.update(finish)
    layer_all["cli.interpreter_s"] = statistics.median(interp)
    layer_all["cli.import_s"] = statistics.median(imports) - statistics.median(interp)
    correct = failed == 0 and quality_ok and repeat_ok

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(np), "attempted": attempted,
              "failed": failed, "error_rate": failed / attempted, "ops": len(lat),
              "correct": correct, "end_to_end": end_to_end, "quality": quality,
              "raw": {"setup_s": statistics.median(setups),
                      "ops_per_s": plain["raw_ops_per_s"],
                      "latency_s.p50": statistics.median(plain["lat"]),
                      "ref_s.p50": statistics.median(plain["refs"]),
                      "ref_s.nominal": wl.ref_nominal_s}}
    if len(lat) >= 100:
        report["latency_s.p90"] = statistics.quantiles(lat, n=10)[-1]
    if args.trace:
        report["per_layer"] = layer_all
    with open(os.path.join(HERE, "out", f"{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {len(lat)} ops, "
          f"error_rate {failed}/{attempted}; env {json.dumps(report['env'])}")
    if "latency_s.p90" in report:
        print(f"latency_s.p90 = {report['latency_s.p90']:.6g} s (n = {len(lat)})")
    print("unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in report["raw"].items()))
    shown = dict(end_to_end, **quality) if not args.trace else layer_all
    units = dict(END_TO_END, **PER_LAYER)
    for name, value in shown.items():
        print(f"{name} = {value:.6g} {units[name]}")
    metrics = end_to_end if not args.trace else layer_all
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

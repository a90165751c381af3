"""Repeat the benchmark over seeds and judge its steadiness.

    python3 bench/sweep.py --seeds 1-10 [--workloads fit_1k,cli_batch]
                           [--trace] [--out FILE] [--against FILE]

Runs the command in BENCHMARK.json once per workload and seed, with the
run length it names, from the repository root. For each end-to-end metric
it prints the median and the spread, (Q3 - Q1) / median with quartiles as
statistics.quantiles(values, n=4) gives them, beside the metric's bound.
--against compares the medians with an earlier --out file and flags any
metric whose median got worse by more than its bound. --trace also makes
two traced runs per workload on the first seed, keeps their per-layer
metrics, and checks that every metric that is not a time repeats exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, trace):
    """The result line of one run, plus the machine and accuracy details
    from the run's record file."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "bench", "out", f"{workload}-{seed}-trace{trace}.json"),
              encoding="utf-8") as fh:
        record = json.load(fh)
    details = ("env", "ops", "error_rate", "quality", "latency_s.p90", "raw")
    return {**result, **{k: record[k] for k in details if k in record}}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--against", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)["summary"]

    record = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "runs": {},
              "summary": {}, "traced": {}}
    ok = True
    for workload in names:
        runs = []
        for seed in args.seeds:
            result = run_once(spec, workload, seed, 0)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result {result}", file=sys.stderr)
                ok = False
            runs.append({"seed": seed, **result})
        record["runs"][workload] = runs
        summary = {}
        for name, m in metrics.items():
            stats = spread([r["metrics"][name]["value"] for r in runs])
            stats["bound"] = m["bound"]
            flags = []
            if name != "setup_s" and stats["spread"] > m["bound"]:
                flags.append("SPREAD>BOUND")
            elif name != "setup_s" and stats["spread"] > m["bound"] / 3:
                flags.append("spread>bound/3")
            if earlier is not None:
                before = earlier[workload][name]["median"]
                change = (stats["median"] - before) / before
                worse = change if m["better"] == "lower" else -change
                stats["change"] = change
                if worse > m["bound"]:
                    flags.append("WORSE>BOUND")
            if any(f.isupper() for f in flags):
                ok = False
            summary[name] = stats
            print(f"{workload:13s} {name:14s} median {stats['median']:.6g} "
                  f"spread {stats['spread']:.3f} bound {m['bound']}"
                  + (f" change {stats['change']:+.3f}" if "change" in stats else "")
                  + (" " + " ".join(flags) if flags else ""), flush=True)
        record["summary"][workload] = summary
        if args.trace:
            traced = [run_once(spec, workload, args.seeds[0], 1) for _ in range(2)]
            # Counts, bytes, ratios and accuracies; onset_err_s.p50 is an accuracy.
            exact = [n for n, m in traced[0]["metrics"].items()
                     if m["unit"] not in ("s", "1/s") or n == "onset_err_s.p50"]
            differ = [n for n in exact
                      if traced[0]["metrics"][n]["value"] != traced[1]["metrics"][n]["value"]]
            print(f"{workload:13s} traced twice: {len(exact) - len(differ)} of {len(exact)} "
                  f"exact metrics repeat" + (f"; DIFFER: {differ}" if differ else ""), flush=True)
            ok = ok and not differ and all(t["correct"] for t in traced)
            record["traced"][workload] = {"seed": args.seeds[0], "repeat_exact": not differ,
                                          "runs": traced}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

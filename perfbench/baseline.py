"""Run the benchmark repeatedly and summarise it as a baseline.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1]
                                  [--workload NAME ...] [--out FILE]

For each workload: ``--runs`` untraced runs of ``run_seconds`` (from
BENCHMARK.json), each with another seed, one after another, then one
traced run.  For every end-to-end metric it records the values, their
median and the spread -- the distance between the first and third
quartile (``statistics.quantiles(n=4)``) as a share of the median --
and the per-layer figures of the traced run, whose iteration and nnz
counts are the work counters to compare against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n"
                         f"{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[0]


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    seconds = manifest["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    names = args.workload or [w["name"] for w in manifest["workloads"]]
    summary = {}
    for workload in names:
        runs, env = [], None
        for k in range(args.runs):
            result, env = bench(workload, args.first_seed + k, seconds, 0)
            runs.append(result)
            print(f"{workload} run {k + 1}/{args.runs}: " + " ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
                flush=True)
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            metrics[name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": median,
                "spread": spread(values) if median else 0.0,
                "bound": bound, "values": values}
            print(f"  {name:14s} median {median:.5g}  spread "
                  f"{metrics[name]['spread']:.3f}  bound {bound}", flush=True)
        traced, _ = bench(workload, args.first_seed, seconds, 1)
        summary[workload] = {
            "environment": json.loads(env.split(" ", 1)[1]),
            "seeds": list(range(args.first_seed,
                                args.first_seed + args.runs)),
            "all_correct": all(r["correct"] for r in runs + [traced]),
            "end_to_end": metrics,
            "per_layer": {n: m["value"]
                          for n, m in traced["metrics"].items()}}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

"""miscfem benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Rows of the workload run back to back (a closed loop with one client)
for about S seconds; a row that would end well past S is not started,
but every run makes at least one row (two with ``--trace 1``).  Each
row's outputs pass a correctness gate or count as failed.  Between the
parts of an untraced row the speed probe runs (see ``probe.py``), and
the time figures are the parts' wall times scaled by it.

``--trace 0`` prints the end-to-end metrics, from untraced rows.
``--trace 1`` alternates untraced and traced rows, prints the per-layer
metrics from the traced ones and writes their spans to
``.perfbench-out/`` in the checkout.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import os

# BLAS and OpenMP pools are sized when numpy loads: pin them first.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import probe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

END_TO_END = (
    ("row_s", "s"), ("setup_s", "s"), ("solve_s", "s"),
    ("step_ms_p50", "ms"), ("step_ms_tail", "ms"), ("peak_rss_mb", "MB"),
    ("pass_share", "share"))

UNMEASURED = ("studies, cli and vtkio get no metric: per row they parse a "
              "config and write one CSV, which the benchmark does not do")


# Above p95 the step tail measures bursts of contention from other
# processes, not the program: over ten runs of an M=32, tau=2^-12 row of
# 512 steps the pooled p99 spread by 0.33 (quartile distance over
# median) and the p95 by 0.10.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0)


def samples_beyond(n: int, percentile: float) -> int:
    """Samples of n distinct values lying above their linearly
    interpolated ``percentile`` (numpy's default percentile rule)."""
    return n - 1 - int(np.floor(percentile / 100.0 * (n - 1)))


def tail_percentile(n: int):
    """Highest candidate percentile with at least ten of n samples beyond
    it, or None when no candidate has (fewer than 20 samples)."""
    chosen = None
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= 10:
            chosen = p
    return chosen


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": len(os.sched_getaffinity(0)),
            "threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run_rows(workload, seconds, recorder):
    """Rows until the time is up; with a recorder every second row is
    traced.  Returns (rows, traced flags, failed-row count)."""
    rows, traced, failed = [], [], 0
    start = perf_counter()
    durations = []
    needed = 2 if recorder else 1
    while True:
        tracing = recorder is not None and len(traced) % 2 == 1
        began = perf_counter()
        try:
            if tracing:
                recorder.row = len(traced)
                with recorder, recorder.span("row"):
                    result = workload.row(recorder)
            else:
                result = workload.row()
        except Exception:
            traceback.print_exc()
            result = None
        durations.append(perf_counter() - began)
        traced.append(tracing)
        rows.append(result)
        if result is None or result.failures:
            failed += 1
            if result is not None:
                for message in result.failures:
                    print(f"gate failed, row {len(rows) - 1}: {message}")
        typical = sorted(durations)[len(durations) // 2]
        if (len(rows) >= needed
                and perf_counter() - start + 0.5 * typical > seconds):
            return rows, traced, failed


def end_to_end(rows, failed):
    """End-to-end figures of the untraced rows, from their parts scaled
    to the probe's reference speed: ``row_s``, ``setup_s`` and
    ``solve_s`` are medians over rows, ``step_ms_p50`` and the tail are
    taken over every step of the run."""
    done = [r for r in rows if r is not None]
    if not done:
        return {}, "no row finished"
    scaled = np.array([r.scaled_parts_s for r in done])
    march, steps = done[0].march, done[0].steps
    step_ms = 1e3 * scaled[:, steps].ravel()
    p = tail_percentile(step_ms.size)
    tail = float(np.percentile(step_ms, p)) if p else float(step_ms.max())
    label = (f"p{p:g}" if p else "max") + f" of {step_ms.size} step samples"
    values = {
        "row_s": float(np.median(scaled.sum(axis=1))),
        "setup_s": float(np.median(scaled[:, 0])),
        "solve_s": float(np.median(scaled[:, march].sum(axis=1))),
        "step_ms_p50": float(np.median(step_ms)),
        "step_ms_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "pass_share": (len(rows) - failed) / len(rows),
    }
    return values, label


def unscaled(rows) -> str:
    """The figures the probe scaled, for the log."""
    done = [r for r in rows if r is not None]
    if not done:
        return "no row finished"
    probes = np.concatenate([r.probes_s for r in done])
    return (f"median unscaled row {np.median([r.row_s for r in done]):.4f} s,"
            f" median probe {1e3 * np.median(probes):.4f} ms (reference "
            f"{1e3 * probe.REFERENCE_S:g} ms)")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "miscfem" / "__init__.py").is_file():
        print(f"perfbench: no miscfem sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOAD_NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOAD_NAMES)}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    workload = workloads.make_workload(args.workload, args.seed, reference)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {workload.name} seed {args.seed}: {workload.describe()}")
    workloads.warm_up()

    recorder = spans.Recorder() if args.trace else None
    rows, traced, failed = run_rows(workload, args.seconds, recorder)
    print(f"rows {len(rows)} ({sum(traced)} traced), failed {failed}")

    if args.trace:
        counters = {i: r.counters for i, (r, t) in
                    enumerate(zip(rows, traced)) if t and r is not None}
        values = spans.layer_metrics(recorder.spans, counters)
        untraced = [r.scaled_parts_s.sum() for r, t in zip(rows, traced)
                    if not t and r is not None]
        traced_s = [r.scaled_parts_s.sum() for r, t in zip(rows, traced)
                    if t and r is not None]
        values["trace_overhead_share"] = (
            float(np.median(traced_s) / np.median(untraced)) - 1.0
            if traced_s and untraced else 0.0)
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
        print(UNMEASURED)
        print(f"share of traced row_s no span covers: "
              f"{values['row_uncovered_share']:.4f}")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        recorder.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        values, tail_label = end_to_end(rows, failed)
        units = dict(END_TO_END)
        print(f"step_ms_tail is the {tail_label}")
        print(unscaled(rows))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"rows-{workload.name}-seed{args.seed}.json"
        path.write_text(json.dumps([
            None if r is None else {"parts_s": r.parts_s,
                                    "probes_s": r.probes_s, "march": r.march,
                                    "steps": r.steps, "failures": r.failures}
            for r in rows]))
        print(f"row timings written to {path.relative_to(ROOT)}")

    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": len(rows),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

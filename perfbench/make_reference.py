"""Regenerate ``reference.json``, the oracle of the correctness gates.

    python3 perfbench/make_reference.py

Run it only on the commit whose outputs define the reference (the one
that added the benchmark): on any later commit it would copy that
commit's outputs into the oracle, and the gates would then check
nothing.  It runs the disk-trig row once and all plume cases once
(about two minutes on two cores).
"""

import json
import math
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from run import ROOT, SRC  # noqa: E402

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402


def main():
    unknown = {c: math.nan for c in workloads.ERROR_COLUMNS}
    placeholder = {"rows": {"temporal-row": unknown},
                   "plume_final_l2": [math.nan] * workloads.PLUME_CASES}
    rows = {}
    for name in ("temporal-row",):
        row = workloads.make_workload(name, 0, placeholder).row()
        rows[name] = row.counters["errors"]
        print(name, rows[name], flush=True)
    norms = []
    for case in range(workloads.PLUME_CASES):
        row = workloads.AdvectiveSkew(case, reference=placeholder).row()
        if any("rose" in m for m in row.failures):
            raise SystemExit(f"plume case {case}: {row.failures}")
        norms.append(row.counters["final_l2"])
        print("plume", case, norms[-1], flush=True)
    path = ROOT / "perfbench" / "reference.json"
    with open(path, "w") as f:
        json.dump({"rows": rows, "plume_final_l2": norms}, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

"""Desk-scale convergence studies for the disk benchmark.

Runs a small spatial refinement sweep (halving h at a fixed small time
step) and a temporal sweep (halving tau on a fixed mesh), then prints
the error tables with pairwise and finest-pair observed orders.  The
protocols here are deliberately light so the whole script finishes in
well under a minute; pass ``--heavier`` to double the resolution of
both sweeps.

Run with::

    python3 demos/convergence_study.py [--heavier] [--out DIR]
"""

import argparse
import tempfile

from miscfem import StudyConfig, run_spatial_study, run_temporal_study


def show(report, label):
    print(f"--- {label} ---")
    print(report.to_csv().rstrip())
    _, headline = report.orders()
    print("headline orders:",
          "  ".join(f"{k}={v:.2f}" for k, v in headline.items()))
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--heavier", action="store_true",
                        help="double the resolution of both sweeps")
    parser.add_argument("--out", default=None,
                        help="directory for report.csv/report.json "
                             "(default: a temporary directory)")
    args = parser.parse_args()

    out = args.out or tempfile.mkdtemp(prefix="study_")
    scale = 2 if args.heavier else 1

    # Spatial sweep: tau small enough that the O(tau) error stays below
    # the O(h^2) error on the finest mesh of the sweep.
    spatial = StudyConfig(mesh_sizes=[8 * scale, 16 * scale, 32 * scale],
                          time_steps=[0.25 / (512 * scale**2)],
                          final_time=0.25,
                          output_dir=f"{out}/spatial")
    show(run_spatial_study(spatial, note="desk-scale spatial sweep"),
         f"spatial sweep, M = {spatial.mesh_sizes}")

    # Temporal sweep: mesh fine enough that the O(h^2) error stays below
    # the O(tau) error at the smallest tau of the sweep.
    temporal = StudyConfig(mesh_sizes=[32 * scale],
                           time_steps=[1.0 / (8 * scale), 1.0 / (16 * scale),
                                       1.0 / (32 * scale)],
                           final_time=0.5,
                           output_dir=f"{out}/temporal")
    show(run_temporal_study(temporal, note="desk-scale temporal sweep"),
         f"temporal sweep, tau = {temporal.time_steps}")

    print(f"reports written under {out}/")


if __name__ == "__main__":
    main()

"""Solve the disk benchmark once and write the fields to a VTK file.

Walks through the full pipeline by hand instead of going through the
study driver: build a disc mesh, assemble the coefficient bundle of the
closed-form trigonometric benchmark, march the coupled pressure /
concentration scheme to t = 1, and compare against the exact fields.
The final concentration and cell-averaged speed land in the VTK file
that ``main`` is given; run as a script, that is
``benchmark_fields.vtk`` next to this script (open it in ParaView).

Run with::

    python3 demos/run_benchmark.py
"""

import pathlib

import numpy as np

from miscfem import (TimeGrid, build_discretization, disk_trig_case,
                     generate_disk_mesh, measure_errors, mesh_quality,
                     problem_coefficients, run, write_vtk)

MESH_M = 16          # ~16 vertices around the equator, h ~ 1/16
NUM_STEPS = 32       # backward Euler steps up to the final time
FINAL_TIME = 1.0


def main(out):
    sol = disk_trig_case()
    mesh = generate_disk_mesh(center=sol.domain_center,
                              radius=sol.domain_radius, M=MESH_M)
    quality = mesh_quality(mesh)
    print(f"mesh: {mesh.num_vertices} vertices, {mesh.num_triangles} triangles")
    print(f"      min angle {quality.min_angle_deg:.1f} deg, "
          f"h in [{quality.h_min:.4f}, {quality.h_max:.4f}]")

    disc = build_discretization(mesh)
    coeffs = problem_coefficients(sol)
    grid = TimeGrid(final_time=FINAL_TIME, num_steps=NUM_STEPS)

    state, records = run(disc, coeffs, grid)
    iters_p = sum(r.pressure_iterations for r in records)
    iters_c = sum(r.concentration_iterations for r in records)
    print(f"marched {grid.num_steps} steps of tau = {grid.tau:g} "
          f"({iters_p} CG iterations, {iters_c} GMRES iterations)")

    errors = measure_errors(disc, state, grid, sol)
    print(f"errors at t = {errors.time:g}:")
    print(f"  concentration  L2 {errors.c_l2:.4e}   max {errors.c_linf:.4e}")
    print(f"  velocity       L2 {errors.u_l2:.4e}   max {errors.u_linf:.4e}")
    print(f"  pressure       L2 {errors.p_l2:.4e}")

    # cell-averaged speed from the quadrature-point velocity samples
    speed = np.hypot(state.velocity[..., 0],
                     state.velocity[..., 1]).mean(axis=1)
    exact = sol.concentration(mesh.vertices[:, 0], mesh.vertices[:, 1],
                              grid.final_time)
    write_vtk(out, mesh,
              point_scalars={"concentration": state.concentration,
                             "concentration_error": state.concentration - exact},
              cell_scalars={"speed": speed},
              title=f"disk benchmark, M={MESH_M}, t={grid.final_time:g}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main(pathlib.Path(__file__).with_name("benchmark_fields.vtk"))

"""Acceptance criteria for the solver and its convergence harness.

Each test covers one criterion end to end and prints a single summary
line ``acceptance criterion N (<label>): PASS/FAIL``.  The two study
criteria run the full desk-scale protocols, about 22 s together on a
2-vCPU VM with BLAS on one thread; the other four take under a second.
"""

import time

import numpy as np
import pytest
from oracles import (exact_monomial, p1_mass_oracle, p2_stiffness_oracle,
                     write_unit_triangle_mesh)

from miscfem import (DispersionParams, ProblemCoefficients,
                     ScalarDispersionParams, TimeGrid, assemble_pressure,
                     bear_scheidegger, build_discretization, cg_deflated,
                     config_from_dict, disk_trig_case, dispersion_eigenvalues,
                     from_triplets, generate_disk_mesh, gmres, load_mesh,
                     manufacture_sources, problem_coefficients,
                     quadrature_rule, run, run_spatial_study,
                     run_temporal_study, strong_residuals)

ORDER_COLUMNS = ("c_l2", "u_l2", "c_linf", "u_linf")

# Reference error magnitudes for the spatial protocol, published for the
# same benchmark by an independent implementation (its mesh interiors
# differ from ours); the criterion asks for agreement within a factor
# of five, entry by entry.
SPATIAL_REFERENCE = {
    "c_l2": (1.3995e-4, 2.8838e-5, 7.1872e-6),
    "u_l2": (3.0027e-3, 6.9765e-4, 1.7068e-4),
    "c_linf": (5.1714e-4, 1.4176e-4, 3.4551e-5),
    "u_linf": (1.7159e-2, 5.2594e-3, 1.2412e-3),
}


def conclude(number: int, label: str, failures: list):
    verdict = "PASS" if not failures else "FAIL: " + "; ".join(failures)
    print(f"acceptance criterion {number} ({label}): {verdict}")
    assert not failures, f"criterion {number} ({label}): {failures}"


def check(failures, ok: bool, message: str):
    if not ok:
        failures.append(message)


@pytest.fixture(scope="module")
def spatial_study(tmp_path_factory):
    cfg = config_from_dict({
        "mesh_M": [16, 32, 64], "tau": [2.0 ** -12], "T": 1.0,
        "output_dir": str(tmp_path_factory.mktemp("spatial"))})
    start = time.perf_counter()
    report = run_spatial_study(cfg, note="acceptance protocol")
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def temporal_study(tmp_path_factory):
    cfg = config_from_dict({
        "mesh_M": [128], "tau": [1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0],
        "T": 1.0, "output_dir": str(tmp_path_factory.mktemp("temporal"))})
    start = time.perf_counter()
    report = run_temporal_study(cfg, note="acceptance protocol")
    return report, time.perf_counter() - start


def test_criterion_1_spatial_convergence(spatial_study):
    report, elapsed = spatial_study
    failures = []
    _, headline = report.orders()
    for col in ORDER_COLUMNS:
        order = headline[col]
        check(failures, 1.7 <= order <= 2.3,
              f"{col} headline order {order:.3f} outside [1.7, 2.3]")
        errs = [getattr(row.record, col) for row in report.rows]
        check(failures, all(a > b for a, b in zip(errs, errs[1:])),
              f"{col} column not strictly decreasing: {errs}")
        for err, ref, M in zip(errs, SPATIAL_REFERENCE[col], (16, 32, 64)):
            ratio = err / ref
            check(failures, 0.2 <= ratio <= 5.0,
                  f"{col} at M={M}: {err:.4E} is {ratio:.2f}x the "
                  f"reference {ref:.4E}, outside a factor of 5")
    check(failures, elapsed <= 1800.0,
          f"runtime {elapsed:.0f}s exceeds 30 minutes")
    conclude(1, "spatial convergence", failures)


def test_criterion_2_temporal_convergence(temporal_study):
    report, elapsed = temporal_study
    failures = []
    _, headline = report.orders()
    for col in ORDER_COLUMNS:
        order = headline[col]
        check(failures, 0.85 <= order <= 1.3,
              f"{col} headline order {order:.3f} outside [0.85, 1.3]")
        errs = [getattr(row.record, col) for row in report.rows]
        check(failures, all(a > b for a, b in zip(errs, errs[1:])),
              f"{col} column not strictly decreasing: {errs}")
    check(failures, elapsed <= 600.0,
          f"runtime {elapsed:.0f}s exceeds 10 minutes")
    conclude(2, "temporal convergence", failures)


def test_criterion_3_dispersion_tensor_properties(rng):
    failures = []
    parameter_sets = [DispersionParams(0.45, 1.8, 0.35),
                      DispersionParams(1.0, 0.2, 0.2),
                      DispersionParams(0.02, 3.0, 0.0)]
    samples_per_set = 40_000          # 120k total, >= the required 1e5
    for params in parameter_sets:
        # speeds up to 10: keeps ||D|| small enough that eigensolver
        # roundoff (~eps ||D||) stays inside the 1e-14/1e-13 tolerances
        speed = 10.0 ** rng.uniform(-8.0, 1.0, size=samples_per_set)
        angle = rng.uniform(0.0, 2.0 * np.pi, size=samples_per_set)
        u = np.stack([speed * np.cos(angle), speed * np.sin(angle)], axis=-1)
        D = bear_scheidegger(u, params)

        check(failures, np.max(np.abs(D - D.transpose(0, 2, 1))) == 0.0,
              f"{params}: tensor not symmetric")
        eigs = np.linalg.eigvalsh(D)
        check(failures, eigs.min() >= params.gamma_dm - 1e-14,
              f"{params}: min eigenvalue {eigs.min():.3e} below "
              f"gamma_dm - 1e-14")
        lon, tran = dispersion_eigenvalues(u, params)
        formulas = np.sort(np.stack([tran, lon], axis=-1), axis=-1)
        check(failures, np.max(np.abs(eigs - formulas)) <= 1e-13,
              f"{params}: eigenvalues deviate from the closed formulas "
              f"by {np.max(np.abs(eigs - formulas)):.3e}")

        theta = rng.uniform(0.0, 2.0 * np.pi, size=samples_per_set)
        R = np.zeros((samples_per_set, 2, 2))
        R[:, 0, 0] = np.cos(theta)
        R[:, 0, 1] = -np.sin(theta)
        R[:, 1, 0] = np.sin(theta)
        R[:, 1, 1] = np.cos(theta)
        rotated = bear_scheidegger(np.einsum("nab,nb->na", R, u), params)
        conjugated = np.einsum("nab,nbc,ndc->nad", R, D, R)
        gap = np.max(np.abs(rotated - conjugated))
        check(failures, gap <= 1e-13,
              f"{params}: frame indifference violated by {gap:.3e}")

        at_zero = bear_scheidegger(np.zeros((1, 2)), params)
        near_zero = bear_scheidegger(np.full((1, 2), 1e-300), params)
        limit = params.gamma_dm * np.eye(2)
        check(failures,
              np.max(np.abs(at_zero - limit)) == 0.0
              and np.max(np.abs(near_zero - limit)) <= 1e-13,
              f"{params}: discontinuous at u = 0")
    conclude(3, "dispersion tensor properties", failures)


def test_criterion_4_scheme_structure_invariants(disc16):
    failures = []
    sol = disk_trig_case()

    # constant preservation: all sources and fluxes zero, 100 steps
    quiescent = ProblemCoefficients(
        permeability=sol.permeability, viscosity=sol.viscosity,
        viscosity_bounds=(1.3, 1.7), porosity=sol.porosity,
        dispersion=sol.dispersion,
        initial_concentration=lambda x, y: np.full(
            np.broadcast(x, y).shape, 0.5))
    grid = TimeGrid(final_time=1.0, num_steps=100)
    for mode in ("skew", "direct"):
        state, _ = run(disc16, quiescent, grid, mode=mode)
        drift = np.max(np.abs(state.concentration - 0.5))
        check(failures, drift <= 1e-9,
              f"{mode} mode: constant drifted by {drift:.3e} > 1e-9 "
              f"over 100 steps")

    # skew-mode L2 dissipation under a nontrivial Darcy flow
    xq = disc16.quad_points[..., 0]
    xbar = float((disc16.cell_weights * xq).sum()
                 / disc16.cell_weights.sum())
    flowing = ProblemCoefficients(
        permeability=sol.permeability, viscosity=sol.viscosity,
        viscosity_bounds=(0.5, 3.0), porosity=sol.porosity,
        dispersion=ScalarDispersionParams(base=0.02, slope=0.01),
        initial_concentration=lambda x, y: 0.4 * np.exp(
            -18.0 * ((x - 0.45) ** 2 + (y - 0.55) ** 2)),
        pressure_source=lambda x, y, t: 40.0 * (x - xbar) + 0.0 * y)
    _, history = run(disc16, flowing, grid, mode="skew")
    norms = np.array([rec.concentration_l2 for rec in history])
    jumps = norms[1:] - norms[:-1]
    check(failures, np.all(jumps <= 1e-10),
          f"skew-mode L2 norm increased by {jumps.max():.3e} in a step")

    # mean-zero pressure at every step of the manufactured benchmark
    coeffs = problem_coefficients(sol)
    means = []
    run(disc16, coeffs, TimeGrid(final_time=1.0, num_steps=32), mode="direct",
        observers=[lambda s: means.append(
            float(disc16.p2_basis_integrals @ s.pressure))])
    worst = np.max(np.abs(means))
    check(failures, worst <= 1e-9,
          f"pressure mean reached {worst:.3e} > 1e-9")
    conclude(4, "scheme structure invariants", failures)


def test_criterion_5_building_blocks_vs_oracles(tmp_path, rng):
    failures = []

    # quadrature exact on every monomial of total degree <= 4
    rule = quadrature_rule(4)
    x, y = rule.points[:, 1], rule.points[:, 2]
    for a in range(5):
        for b in range(5 - a):
            got = float(np.sum(rule.weights * x ** a * y ** b))
            gap = abs(got - exact_monomial(a, b))
            check(failures, gap <= 1e-14,
                  f"quadrature misses x^{a} y^{b} by {gap:.2e}")

    # single-element mass/stiffness against exact integration
    mesh = load_mesh(write_unit_triangle_mesh(tmp_path / "tri.json"))
    disc = build_discretization(mesh)
    mass_gap = np.max(np.abs(disc.mass_p1.toarray() - p1_mass_oracle()))
    check(failures, mass_gap <= 1e-13,
          f"P1 mass matrix off by {mass_gap:.2e}")
    unit = ProblemCoefficients(
        permeability=lambda xx, yy: np.ones(np.broadcast(xx, yy).shape),
        viscosity=lambda c: np.ones_like(np.asarray(c, dtype=float)),
        viscosity_bounds=(0.5, 2.0), porosity=1.0,
        dispersion=ScalarDispersionParams(base=1.0, slope=0.0),
        initial_concentration=lambda xx, yy: np.zeros(
            np.broadcast(xx, yy).shape))
    system = assemble_pressure(disc, unit, np.zeros(3), t=0.0)
    perm = disc.p2.cell_dofs[0]
    got = system.matrix.toarray()[np.ix_(perm, perm)]
    stiff_gap = np.max(np.abs(got - p2_stiffness_oracle()))
    check(failures, stiff_gap <= 1e-13,
          f"P2 stiffness matrix off by {stiff_gap:.2e}")

    # Krylov solvers against dense solves on 50 x 50 systems
    n = 50
    rows, cols = [idx.ravel() for idx in np.mgrid[0:n, 0:n]]
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spd = (basis * np.geomspace(1.0, 1e4, n)) @ basis.T
    b = rng.standard_normal(n)
    x_dense = np.linalg.solve(spd, b)
    x_cg, report = cg_deflated(
        from_triplets(n, n, rows, cols, spd.ravel()), b, rel_tol=1e-13)
    cg_gap = np.linalg.norm(x_cg - x_dense) / np.linalg.norm(x_dense)
    check(failures, report.converged and cg_gap <= 1e-9,
          f"CG vs dense solve: relative gap {cg_gap:.2e}")

    general = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    x_dense = np.linalg.solve(general, b)
    x_gm, report = gmres(
        from_triplets(n, n, rows, cols, general.ravel()), b, rel_tol=1e-13)
    gm_gap = np.linalg.norm(x_gm - x_dense) / np.linalg.norm(x_dense)
    check(failures, report.converged and gm_gap <= 1e-9,
          f"GMRES vs dense solve: relative gap {gm_gap:.2e}")
    conclude(5, "building blocks vs oracles", failures)


def test_criterion_6_manufactured_solution_self_consistency(rng):
    failures = []
    sol = disk_trig_case()
    sources = manufacture_sources(sol, fd_step=1e-5)

    n = 1000
    radius = sol.domain_radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    x = sol.domain_center[0] + radius * np.cos(angle)
    y = sol.domain_center[1] + radius * np.sin(angle)
    t = rng.uniform(0.0, 1.0, n)

    res_p, res_c = strong_residuals(sol, sources, x, y, t)
    check(failures, np.max(np.abs(res_p)) <= 1e-8,
          f"pressure-equation residual {np.max(np.abs(res_p)):.3e} > 1e-8")
    check(failures, np.max(np.abs(res_c)) <= 1e-8,
          f"transport-equation residual {np.max(np.abs(res_c)):.3e} > 1e-8")

    halved = manufacture_sources(sol, fd_step=5e-6)
    df = np.max(np.abs(sources.pressure_source(x, y, t)
                       - halved.pressure_source(x, y, t)))
    dg = np.max(np.abs(sources.concentration_source(x, y, t)
                       - halved.concentration_source(x, y, t)))
    check(failures, df <= 1e-8,
          f"fd_step halving moves the pressure source by {df:.3e} > 1e-8")
    check(failures, dg <= 1e-8,
          f"fd_step halving moves the transport source by {dg:.3e} > 1e-8")
    conclude(6, "manufactured-solution self-consistency", failures)

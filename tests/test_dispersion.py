"""The Bear-Scheidegger dispersion tensor: spectral structure, frame
indifference, its isotropic case against the general formula, a golden
anisotropic march, and the demo that tours it."""

import math
import re
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import bear_scheidegger_oracle

from miscfem import (DispersionParams, ProblemCoefficients,
                     ScalarDispersionParams, TimeGrid, bear_scheidegger,
                     disk_trig_case, dispersion_eigenvalues,
                     dispersion_matrices, run)

PARAMS = DispersionParams(gamma_dm=0.3, alpha_l=1.4, alpha_t=0.2)


def random_velocities(rng, n, scale=10.0):
    mags = scale * 10.0 ** rng.uniform(-3, 1, size=n)
    angles = rng.uniform(0, 2 * np.pi, size=n)
    return np.stack([mags * np.cos(angles), mags * np.sin(angles)], axis=-1)


def test_symmetry_and_eigenvalues(rng):
    u = random_velocities(rng, 4000)
    D = bear_scheidegger(u, PARAMS)
    assert np.allclose(D, np.swapaxes(D, -1, -2), atol=0)
    speed = np.hypot(u[..., 0], u[..., 1])
    lam = np.linalg.eigvalsh(D)
    lo, hi = lam[..., 0], lam[..., 1]
    assert np.allclose(hi, PARAMS.gamma_dm + PARAMS.alpha_l * speed,
                       atol=1e-13, rtol=1e-13)
    assert np.allclose(lo, PARAMS.gamma_dm + PARAMS.alpha_t * speed,
                       atol=1e-13, rtol=1e-13)
    formula_l, formula_t = dispersion_eigenvalues(u, PARAMS)
    assert np.allclose(hi, formula_l, atol=1e-13, rtol=1e-13)
    assert np.allclose(lo, formula_t, atol=1e-13, rtol=1e-13)


def test_eigenvectors_along_and_across_velocity(rng):
    u = random_velocities(rng, 500)
    D = bear_scheidegger(u, PARAMS)
    speed = np.hypot(u[..., 0], u[..., 1])
    along = np.einsum("...ab,...b->...a", D, u)
    expected = (PARAMS.gamma_dm + PARAMS.alpha_l * speed)[..., None] * u
    assert np.allclose(along, expected, atol=1e-11, rtol=1e-12)


def test_frame_indifference(rng):
    """Rotating the velocity rotates the tensor: D(R u) = R D(u) R^T."""
    u = random_velocities(rng, 800)
    for theta in rng.uniform(0, 2 * np.pi, size=5):
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        left = bear_scheidegger(u @ R.T, PARAMS)
        right = np.einsum("ab,...bc,dc->...ad", R,
                          bear_scheidegger(u, PARAMS), R)
        assert np.max(np.abs(left - right)) < 1e-13 * (1 + np.max(left))


def test_continuity_at_zero_velocity():
    D0 = bear_scheidegger(np.zeros(2), PARAMS)
    assert np.allclose(D0, PARAMS.gamma_dm * np.eye(2), atol=0)
    eps = np.array([1e-300, 0.0])
    assert np.allclose(bear_scheidegger(eps, PARAMS), D0, atol=1e-290)


def test_spd_floor(rng):
    u = random_velocities(rng, 10000, scale=100.0)
    lam = np.linalg.eigvalsh(bear_scheidegger(u, PARAMS))
    assert lam.min() >= PARAMS.gamma_dm - 1e-14


def test_scalar_dispersion_isotropic(rng):
    params = ScalarDispersionParams(base=1.0, slope=0.1)
    assert params == DispersionParams(gamma_dm=1.0, alpha_l=0.1, alpha_t=0.1)
    u = random_velocities(rng, 300)
    speed = np.hypot(u[..., 0], u[..., 1])
    D = dispersion_matrices(u, params)
    assert np.allclose(D[..., 0, 0], 1.0 + 0.1 * speed, atol=1e-14)
    assert np.allclose(D[..., 1, 1], D[..., 0, 0], atol=0)
    assert np.allclose(D[..., 0, 1], 0.0, atol=0)
    assert np.allclose(D[..., 1, 0], 0.0, atol=0)


def test_dispersion_matrices_dispatch(rng):
    """``dispersion_matrices``, the name assembly calls, is the tensor."""
    u = random_velocities(rng, 50)
    full = dispersion_matrices(u, PARAMS)
    assert np.allclose(full, bear_scheidegger(u, PARAMS), atol=0)


def _oracle_velocities():
    """Log-uniform speeds from 1e-300 to 1e300 at random angles, plus
    u = 0 (with signed zeros) and axis-aligned speeds of 1e300."""
    rng = np.random.default_rng(5)
    u = random_velocities(rng, 2000, scale=1.0)
    u *= 10.0 ** rng.uniform(-300, 300, size=(2000, 1))
    extremes = [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [1e300, 0.0],
                [0.0, -1e300], [-1e300, -0.0], [7e299, 7e299]]
    return np.vstack([u, extremes])


ORACLE_VELOCITIES = _oracle_velocities()
dispersivity = st.floats(0.0, 1e3)


@given(gamma_dm=st.floats(1e-8, 1e3), alpha_l=dispersivity,
       alpha_t=dispersivity, isotropic=st.booleans())
def test_evaluator_matches_general_formula_bit_for_bit(gamma_dm, alpha_l,
                                                       alpha_t, isotropic):
    """Skipping the rank-one term of an isotropic tensor changes no bit:
    the term is exactly +-0 there, up to |u| = 1e300."""
    params = DispersionParams(gamma_dm, alpha_l,
                              alpha_l if isotropic else alpha_t)
    got = bear_scheidegger(ORACLE_VELOCITIES, params)
    want = bear_scheidegger_oracle(ORACLE_VELOCITIES, params)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("angle", [0.3, 1.0, 2.5, -2.2])
def test_anisotropic_tensor_finite_at_huge_speed(angle):
    """At |u| = 1e200 the off-diagonal (alpha_l - alpha_t) u_x u_y / |u|
    is about 1e200: finite, although u_x u_y alone would overflow."""
    u = 1e200 * np.array([math.cos(angle), math.sin(angle)])
    D = bear_scheidegger(u, PARAMS)
    assert np.all(np.isfinite(D))
    rank_one = (PARAMS.alpha_l - PARAMS.alpha_t) * 1e200
    assert D[0, 1] == D[1, 0]
    assert D[0, 1] == pytest.approx(
        rank_one * math.cos(angle) * math.sin(angle), rel=1e-14)


def test_skew_plume_golden(disc16):
    """Pins the anisotropic evaluator inside a march: a Gaussian plume
    carried in skew form by a dipole-driven Darcy flow on M=16, with
    alpha_l != alpha_t.  The digits were recorded with the general
    formula before the isotropic case got its own return, and
    re-recorded (each moved by one unit in the last place) when both
    systems came to be summed into fixed sparsity patterns: np.bincount
    sums duplicate entries in cell order, where the COO-to-CSR
    conversion summed them in the order of an unstable sort.
    test_pattern_assembly_matches_from_triplets bounds that gap.  Both
    were re-recorded again (the L2 norm by 4 ulp, the mass by 3) when
    the transport LU took minimum-degree ordering with diagonal pivots
    and GMRES came to return the one exact correction x0 + LU^{-1} r0
    itself: the pivot order and the final rounding of the solve
    changed, not the evaluator this test pins.  They were re-recorded
    once more (the L2 norm by 8e-14 relative, the mass by 6e-13) when the
    pressure CG came to start from the extrapolated pressure with the
    lagged factor rescaled to each level's k/mu: CG now stops at another
    iterate inside ``pressure_tol``, so the velocity moves within that
    tolerance.  The L2 norm was re-recorded once more, by 2 ulp (the
    mass did not move), when each cell kernel became one GEMM on
    reference tensors tabulated once per mesh: the products are summed
    in another order, with the same CG and GMRES iteration counts.
    Both were re-recorded once more (the L2 norm by 6 ulp, the mass by 2)
    when the velocity came to take its pressure gradient from one GEMM
    with the reference gradients followed by J^-T per cell: J^-T is now
    applied after the sum over basis functions instead of before it,
    with the same iteration counts (85 CG, 16 GMRES).  Both were
    re-recorded once more (the L2 norm and the mass by 2 ulp each), with
    the same iteration counts, when the transport LU moved from
    minimum degree with diagonal pivots in SuperLU to LAPACK's band LU
    with partial pivoting on a reverse Cuthill-McKee ordering: the pivot
    order and the rounding of the exact solve changed.  Both were
    re-recorded once more (the L2 norm by 2e-14 relative, the mass by
    4e-13) when each pressure CG came to start from the combination of
    the last eight pressures that minimises its deflated residual: CG
    stops at another iterate inside ``pressure_tol``, after 55
    iterations in all instead of 85, and GMRES still takes 16.  Both
    were re-recorded once more (the L2 norm by 3 ulp, the mass by 5),
    with the same iteration counts, for two changes at once: the P1 mass
    blocks came to be mirrored from one triangle, which moves the mass
    matrix in its last bits, and the pressure preconditioner came to
    factor the stiffness with one dof pinned instead of the bordered
    system, whose solve agrees with the bordered one only to rounding."""
    sol = disk_trig_case()
    w, xq = disc16.cell_weights, disc16.quad_points[..., 0]
    xbar = float((w * xq).sum() / w.sum())
    coeffs = ProblemCoefficients(
        permeability=sol.permeability, viscosity=sol.viscosity,
        viscosity_bounds=(0.5, 3.0), porosity=1.0,
        dispersion=DispersionParams(gamma_dm=0.002, alpha_l=0.01,
                                    alpha_t=0.001),
        initial_concentration=lambda x, y: 0.4 * np.exp(
            -50.0 * ((x - 0.35) ** 2 + (y - 0.5) ** 2)),
        pressure_source=lambda x, y, t: 40.0 * (x - xbar) + 0.0 * y)
    state, history = run(disc16, coeffs, TimeGrid(final_time=0.25,
                                                  num_steps=16), mode="skew")
    mass = float(np.sum(disc16.mass_p1 @ state.concentration))
    assert repr(history[-1].concentration_l2) == "0.027049191008876178"
    assert repr(mass) == "0.0053290608455775846"


def test_dispersion_tensor_demo_runs(capsys):
    demo = Path(__file__).resolve().parents[1] / "demos" / "dispersion_tensor.py"
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert "|u| =  10.0:  D = [[10.010, 0.000], [0.000, 1.010]]" in out
    gaps = [float(g) for g in re.findall(r"max gap (\S+)", out)]
    assert len(gaps) == 2 and max(gaps) < 1e-12


@pytest.mark.parametrize("bad", [
    dict(gamma_dm=0.0, alpha_l=1.0, alpha_t=1.0),
    dict(gamma_dm=-1.0, alpha_l=1.0, alpha_t=1.0),
    dict(gamma_dm=1.0, alpha_l=-0.1, alpha_t=1.0),
    dict(gamma_dm=1.0, alpha_l=1.0, alpha_t=-0.1),
    dict(gamma_dm=float("nan"), alpha_l=0.1, alpha_t=0.1),
    dict(gamma_dm=float("inf"), alpha_l=0.1, alpha_t=0.1),
    dict(gamma_dm=1.0, alpha_l=float("inf"), alpha_t=0.1),
    dict(gamma_dm=1.0, alpha_l=0.1, alpha_t=-float("inf")),
    dict(gamma_dm=1.0, alpha_l=0.1, alpha_t=float("nan")),
    dict(gamma_dm=True, alpha_l=0.1, alpha_t=0.1),
    dict(gamma_dm=1.0, alpha_l=False, alpha_t=0.1),
])
def test_tensor_params_validated(bad):
    with pytest.raises(ValueError):
        DispersionParams(**bad)


@pytest.mark.parametrize("bad", [dict(base=0.0, slope=0.1),
                                 dict(base=1.0, slope=-1.0),
                                 dict(base=float("inf"), slope=float("nan")),
                                 dict(base=1.0, slope=True)])
def test_scalar_params_validated(bad):
    with pytest.raises(ValueError):
        ScalarDispersionParams(**bad)


def test_velocity_shape_validated():
    with pytest.raises(ValueError):
        bear_scheidegger(np.zeros(3), PARAMS)

"""Benchmark fields: internal consistency of the closed-form solution,
finite-difference source recovery, and the wall-flux contract."""

import dataclasses

import numpy as np
import pytest

from miscfem import (CASES, ManufacturedSolution, build_discretization,
                     disk_trig_case, fd_divergence, generate_disk_mesh,
                     manufacture_sources, problem_coefficients,
                     strong_residuals)


def disk_points(rng, n, sol):
    """Uniform random sample of the benchmark disk."""
    cx, cy = sol.domain_center
    radius = sol.domain_radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return cx + radius * np.cos(angle), cy + radius * np.sin(angle)


@pytest.fixture(scope="module")
def sol():
    return disk_trig_case()


def test_case_registry(sol):
    assert "disk-trig" in CASES
    assert isinstance(CASES["disk-trig"](), ManufacturedSolution)
    assert sol.velocity_coupling == "none"


def test_concentration_stays_in_viscosity_band(sol, rng):
    """The trigonometric concentration keeps mu(c) inside the declared
    bounds for all points of the disk and all nonnegative times."""
    x, y = disk_points(rng, 4000, sol)
    lo, hi = sol.viscosity_bounds
    for t in (0.0, 0.05, 0.3, 1.0, 5.0):
        mu = sol.viscosity(sol.concentration(x, y, t))
        assert mu.min() >= lo - 1e-12
        assert mu.max() <= hi + 1e-12


def test_velocity_is_mobility_times_pressure_gradient(sol, rng):
    x, y = disk_points(rng, 500, sol)
    t = 0.37
    mobility = sol.permeability(x, y) / sol.viscosity(
        sol.concentration(x, y, t))
    by_hand = -mobility[..., None] * sol.pressure_grad(x, y, t)
    assert np.allclose(sol.velocity(x, y, t), by_hand, rtol=0, atol=1e-15)


@pytest.mark.parametrize("field,grad", [("pressure", "pressure_grad"),
                                        ("concentration",
                                         "concentration_grad")])
def test_analytic_gradients_match_finite_differences(sol, rng, field, grad):
    x, y = disk_points(rng, 300, sol)
    t, h = 0.62, 1e-6
    f = getattr(sol, field)
    fd = np.stack([(f(x + h, y, t) - f(x - h, y, t)) / (2 * h),
                   (f(x, y + h, t) - f(x, y - h, t)) / (2 * h)], axis=-1)
    scale = np.abs(fd).max() + 1.0
    assert np.max(np.abs(getattr(sol, grad)(x, y, t) - fd)) < 1e-7 * scale


def test_time_derivative_matches_finite_difference(sol, rng):
    x, y = disk_points(rng, 300, sol)
    t, h = 0.41, 1e-6
    fd = (sol.concentration(x, y, t + h)
          - sol.concentration(x, y, t - h)) / (2 * h)
    assert np.max(np.abs(sol.concentration_dt(x, y, t) - fd)) < 1e-9


def test_fd_divergence_exact_on_quadratics(rng):
    """Central differences are exact through quadratic flux components."""
    def flux(x, y, t):
        return np.stack([2.0 * x ** 2 + 3.0 * x * y - y + t,
                         -4.0 * y ** 2 + 0.5 * x], axis=-1)

    x = rng.uniform(-1.0, 1.0, size=200)
    y = rng.uniform(-1.0, 1.0, size=200)
    exact = 4.0 * x + 3.0 * y - 8.0 * y
    got = fd_divergence(flux, x, y, 0.3, step=1e-5)
    assert np.max(np.abs(got - exact)) < 1e-9


def test_manufacture_sources_rejects_bad_step(sol):
    """So does problem_coefficients, which builds no SourceSet."""
    with pytest.raises(ValueError):
        manufacture_sources(sol, fd_step=0.0)
    with pytest.raises(ValueError):
        problem_coefficients(sol, fd_step=0.0)


def test_strong_residuals_vanish_with_matching_step(sol, rng):
    sources = manufacture_sources(sol)
    x, y = disk_points(rng, 400, sol)
    for t in (0.0, 0.5, 1.0):
        res_p, res_c = strong_residuals(sol, sources, x, y, t)
        assert np.max(np.abs(res_p)) < 1e-9
        assert np.max(np.abs(res_c)) < 1e-9


def test_strong_residuals_bounded_under_step_halving(sol, rng):
    """With a different step the residual is the truncation gap between
    the two finite-difference divergences, which stays tiny."""
    sources = manufacture_sources(sol, fd_step=1e-5)
    x, y = disk_points(rng, 400, sol)
    res_p, res_c = strong_residuals(sol, sources, x, y, 0.5, fd_step=5e-6)
    assert np.max(np.abs(res_p)) < 1e-7
    assert np.max(np.abs(res_c)) < 1e-7


def test_wall_fluxes_are_linear_in_the_supplied_normal(sol, rng):
    """The flux callables dot the analytic flux vector with whatever
    normal the caller provides."""
    sources = manufacture_sources(sol)
    x, y = disk_points(rng, 100, sol)
    t = 0.8
    nx = rng.standard_normal(100)
    ny = rng.standard_normal(100)
    u = sol.velocity(x, y, t)
    got = sources.pressure_flux(x, y, t, nx, ny)
    assert np.allclose(got, u[..., 0] * nx + u[..., 1] * ny,
                       rtol=0, atol=1e-14)
    dflux = sol.concentration_flux(x, y, t)
    got_c = sources.concentration_flux(x, y, t, nx, ny)
    assert np.allclose(got_c, dflux[..., 0] * nx + dflux[..., 1] * ny,
                       rtol=0, atol=1e-14)


def test_problem_coefficients_bundle(sol, rng):
    coeffs = problem_coefficients(sol)
    assert coeffs.velocity_coupling == "none"
    assert coeffs.porosity == sol.porosity
    assert coeffs.viscosity_bounds == sol.viscosity_bounds
    x, y = disk_points(rng, 50, sol)
    assert np.allclose(coeffs.initial_concentration(x, y),
                       sol.concentration(x, y, 0.0), rtol=0, atol=0)
    # wells are absent in the manufactured setting
    assert coeffs.injection is None
    assert coeffs.production is None


def test_concentration_source_omits_advection_when_uncoupled(sol, rng):
    """For the uncoupled benchmark g contains no u . grad c contribution:
    rebuilding it for an advection-coupled copy shifts g by exactly that
    term, for the finite-difference sources and for the closed-form ones
    the driver gets."""
    coupled = dataclasses.replace(sol, velocity_coupling="advection")
    x, y = disk_points(rng, 200, sol)
    t = 0.25
    u = sol.velocity(x, y, t)
    term = np.einsum("...a,...a->...", u, sol.concentration_grad(x, y, t))
    for build in (manufacture_sources, problem_coefficients):
        g_none = build(sol).concentration_source
        g_adv = build(coupled).concentration_source
        assert np.allclose(g_adv(x, y, t) - g_none(x, y, t), term,
                           rtol=0, atol=1e-13)


def test_closed_form_sources_match_the_finite_difference_oracle(sol, rng):
    """problem_coefficients' sources equal manufacture_sources' within
    1e-10 of their size at criterion 6's sample points and at every
    quadrature point of the temporal M=128 row, and bit for bit where
    the stencil straddles the kink x = t of |u|: there the stencil's
    smeared value is what the computed errors are pinned to."""
    oracle = manufacture_sources(sol)
    coeffs = problem_coefficients(sol)
    x, y = disk_points(rng, 1000, sol)      # criterion 6's draws
    samples = [(x, y, rng.uniform(0.0, 1.0, 1000))]
    disc = build_discretization(generate_disk_mesh(M=128))
    x, y = disc.quad_points[..., 0], disc.quad_points[..., 1]
    samples += [(x, y, n / 32.0) for n in range(33)]
    banded = 0
    for x, y, t in samples:
        for fd, closed in ((oracle.pressure_source, coeffs.pressure_source),
                           (oracle.concentration_source,
                            coeffs.concentration_source)):
            want, got = fd(x, y, t), closed(x, y, t)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        band = np.abs(x - t) < 1e-5         # fd_step
        banded += band.sum()
        assert np.array_equal(got[band], want[band])
    assert banded == 3                      # at t = 17/32 and 24/32

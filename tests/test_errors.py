"""Error norms: closed-form oracles on constant/linear discrepancies,
validation, and gauge invariance of the pressure comparison."""

import dataclasses

import numpy as np
import pytest

from miscfem import (TimeGrid, disk_trig_case, error_scalar,
                     error_velocity, interpolate, measure_errors,
                     observed_orders, problem_coefficients, run)


def test_l2_error_of_constant_discrepancy(disc16):
    """Field minus exact equal to a constant d: the L2 error is exactly
    |d| sqrt(area) and the max error |d|."""
    coeffs = interpolate(disc16.p1, lambda x, y: 2.0 * x - y)
    exact = lambda x, y, t: 2.0 * x - y - 3.0
    area = float(disc16.cell_weights.sum())
    got = error_scalar(disc16, disc16.p1, coeffs, exact, t=0.0, norm="l2")
    assert got == pytest.approx(3.0 * np.sqrt(area), rel=1e-13)
    got_max = error_scalar(disc16, disc16.p1, coeffs, exact, t=0.0,
                           norm="linf")
    assert got_max == pytest.approx(3.0, rel=1e-13)


def test_gradient_error_of_linear_discrepancy(disc16):
    """Field minus exact with constant gradient g: the L^q gradient norm
    is |g| area^(1/q)."""
    coeffs = interpolate(disc16.p1, lambda x, y: 0.6 * x - 0.8 * y)
    zero = lambda x, y, t: np.zeros(np.broadcast(x, y).shape)
    zero_grad = lambda x, y, t: np.zeros(np.broadcast(x, y).shape + (2,))
    area = float(disc16.cell_weights.sum())
    for q in (2.0, 4.0):
        got = error_scalar(disc16, disc16.p1, coeffs, zero, t=0.0,
                           norm="gradlq", exact_grad=zero_grad, q=q)
        assert got == pytest.approx(area ** (1.0 / q), rel=1e-12)


def test_error_scalar_validation(disc16):
    coeffs = np.zeros(disc16.p1.dof_count)
    zero = lambda x, y, t: np.zeros(np.broadcast(x, y).shape)
    with pytest.raises(ValueError, match="exact_grad"):
        error_scalar(disc16, disc16.p1, coeffs, zero, 0.0, norm="gradlq")
    with pytest.raises(ValueError, match="exceed 1"):
        error_scalar(disc16, disc16.p1, coeffs, zero, 0.0, norm="gradlq",
                     exact_grad=lambda x, y, t: None, q=1.0)
    with pytest.raises(ValueError, match="unknown norm"):
        error_scalar(disc16, disc16.p1, coeffs, zero, 0.0, norm="h2")


def test_velocity_error_of_constant_field(disc16):
    T, Q = disc16.quad_points.shape[:2]
    B = disc16.mesh.num_boundary_edges
    vel = np.broadcast_to([0.3, -0.4], (T, Q, 2))
    zero = lambda x, y, t: np.zeros(np.broadcast(x, y).shape + (2,))
    area = float(disc16.cell_weights.sum())
    got = error_velocity(disc16, vel, zero, t=0.0, norm="l2")
    assert got == pytest.approx(0.5 * np.sqrt(area), rel=1e-13)
    assert error_velocity(disc16, vel, zero, 0.0, "linf") == \
        pytest.approx(0.5, rel=1e-13)
    with pytest.raises(ValueError, match="unknown norm"):
        error_velocity(disc16, vel, zero, 0.0, "l1")


def test_observed_orders():
    got = observed_orders([1.0, 0.25, 0.0625])
    assert np.allclose(got, [2.0, 2.0], rtol=0, atol=1e-14)
    got = observed_orders([1.0, 0.25, 0.0625], ratio=4.0)
    assert np.allclose(got, [1.0, 1.0], rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        observed_orders([1.0])
    with pytest.raises(ValueError):
        observed_orders([1.0, 0.0])


def test_interpolation_error_refines_at_second_order(disc8, disc16):
    """L2 error of the linear interpolant of a smooth field drops by
    about the mesh-width ratio squared between the two stock meshes."""
    sol = disk_trig_case()
    exact = lambda x, y, t: sol.concentration(x, y, 0.0)
    errors = []
    for disc in (disc8, disc16):
        coeffs = interpolate(disc.p1, lambda x, y: exact(x, y, 0.0))
        errors.append(error_scalar(disc, disc.p1, coeffs, exact, 0.0, "l2"))
    order = observed_orders(errors)[-1]
    assert 1.6 < order < 2.4


def test_measure_errors_record(disc8):
    sol = disk_trig_case()
    coeffs = problem_coefficients(sol)
    grid = TimeGrid(final_time=0.1, num_steps=2)
    state, _ = run(disc8, coeffs, grid, mode="direct")
    record = measure_errors(disc8, state, grid, sol)
    assert record.step_index == 2
    assert record.time == pytest.approx(0.1)
    for name in ("c_l2", "c_linf", "c_h1semi", "u_l2", "u_linf",
                 "p_l2", "p_grad_l4"):
        value = getattr(record, name)
        assert np.isfinite(value) and value > 0.0
    # coarse-mesh sanity: both fields resolved to a few percent
    assert record.c_l2 < 0.05
    assert record.c_linf < 0.05


def test_pressure_error_is_gauge_invariant(disc8):
    """Shifting the exact pressure by a constant must not change the
    reported pressure errors (the discrete field fixes a zero-mean
    gauge, the comparison removes the exact field's mean)."""
    sol = disk_trig_case()
    coeffs = problem_coefficients(sol)
    grid = TimeGrid(final_time=0.1, num_steps=2)
    state, _ = run(disc8, coeffs, grid, mode="direct")
    base = measure_errors(disc8, state, grid, sol)

    raw_pressure = sol.pressure
    shifted = dataclasses.replace(
        sol, pressure=lambda x, y, t: raw_pressure(x, y, t) + 7.0)
    moved = measure_errors(disc8, state, grid, shifted)
    assert moved.p_l2 == pytest.approx(base.p_l2, rel=1e-10)
    assert moved.p_grad_l4 == pytest.approx(base.p_grad_l4, rel=1e-12)

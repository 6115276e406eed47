"""Error norms: ``measure_errors`` against closed forms on stub states
whose fields differ from linear ones by drawn constants, its one
evaluation of each exact field, interpolation order, and gauge invariance
of the pressure comparison."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miscfem import (TimeGrid, disk_trig_case, interpolate, measure_errors,
                     observed_orders, problem_coefficients, run)

coefficient = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)


def linear(a):
    """The field a0 + a1 x + a2 y and its gradient."""
    def value(x, y):
        return a[0] + a[1] * x + a[2] * y

    def grad(x, y):
        return np.stack(np.broadcast_arrays(a[1] + 0.0 * x, a[2] + 0.0 * y),
                        axis=-1)
    return value, grad


def shifted(field, shift, times):
    """``field`` minus the constant ``shift`` as an exact field of
    (x, y, t); each call appends its t to ``times``."""
    def exact(x, y, t):
        times.append(t)
        return field(x, y) - np.asarray(shift)
    return exact


def discrepant(disc, grid, step, a, b, v, d, s, g, e, h, times):
    """A stub state whose concentration, velocity and pressure are the
    linear fields of ``a``, ``v`` and ``b``, and exact fields that differ
    from them by constants: c by d with gradient by g, u by e, p by s with
    gradient by h.  Each exact-field call appends its t to ``times``."""
    x, y = disc.quad_points[..., 0], disc.quad_points[..., 1]
    c, c_grad = linear(a)
    u, _ = linear(v)
    p, p_grad = linear(b)
    state = SimpleNamespace(
        step_index=step, concentration=interpolate(disc.p1, c),
        pressure=interpolate(disc.p2, p),
        velocity=np.stack([u(x, y), -2.0 * u(x, y)], axis=-1))
    sol = SimpleNamespace(
        concentration=shifted(c, -d, times),
        concentration_grad=shifted(c_grad, np.negative(g), times),
        velocity=shifted(lambda xx, yy: state.velocity, np.negative(e), times),
        pressure=shifted(p, s, times),
        pressure_grad=shifted(p_grad, np.negative(h), times))
    return state, sol


@settings(max_examples=60)
@given(a=st.tuples(*[coefficient] * 3), b=st.tuples(*[coefficient] * 3),
       v=st.tuples(*[coefficient] * 3), d=coefficient, s=coefficient,
       g=st.tuples(coefficient, coefficient),
       e=st.tuples(coefficient, coefficient),
       h=st.tuples(coefficient, coefficient),
       step=st.integers(0, 8), use_disc8=st.booleans())
def test_measure_errors_matches_closed_forms(disc8, disc16, a, b, v, d, s,
                                             g, e, h, step, use_disc8):
    """With the discrepancies of ``discrepant``: c_l2 = |d| sqrt(area),
    c_linf = |d|, c_h1semi = |g| area^(1/2), u_l2 = |e| sqrt(area),
    u_linf = |e|, p_grad_l4 = |h| area^(1/4), and p_l2 = |mean p_h|
    sqrt(area) whatever s is: the comparison removes the exact pressure's
    mean, so only the discrete pressure's own mean is left.  Every exact
    field is evaluated at the state's time."""
    disc = disc8 if use_disc8 else disc16
    grid = TimeGrid(final_time=0.75, num_steps=8)
    x, y = disc.quad_points[..., 0], disc.quad_points[..., 1]
    w = disc.cell_weights
    area = float(w.sum())
    times = []
    state, sol = discrepant(disc, grid, step, a, b, v, d, s, g, e, h, times)

    record = measure_errors(disc, state, grid, sol)

    assert record.step_index == step
    assert record.time == grid.time(step)
    assert times and set(times) == {grid.time(step)}
    scale = 1.0 + max(map(abs, a + b + v + (d, s)))
    p_mean = float(np.sum(w * linear(b)[0](x, y))) / area
    expected = dict(
        c_l2=abs(d) * np.sqrt(area), c_linf=abs(d),
        c_h1semi=np.hypot(*g) * area ** 0.5,
        u_l2=np.hypot(*e) * np.sqrt(area), u_linf=np.hypot(*e),
        p_l2=abs(p_mean) * np.sqrt(area),
        p_grad_l4=np.hypot(*h) * area ** 0.25)
    for name, want in expected.items():
        got = getattr(record, name)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-11 * scale), name


def fixed_discrepancy(disc, d=0.0, g=(0.0, 0.0), e=(0.0, 0.0),
                      h=(0.0, 0.0)):
    """measure_errors at t = 0 on ``discrepant`` with fixed linear fields
    and the given discrepancies; returns the record and the area."""
    grid = TimeGrid(final_time=1.0, num_steps=1)
    state, sol = discrepant(disc, grid, 0, (0.5, 2.0, -1.0), (0.0, 0.6, -0.8),
                            (0.3, -0.4, 0.2), d, 0.0, g, e, h, [])
    return (measure_errors(disc, state, grid, sol),
            float(disc.cell_weights.sum()))


def test_l2_error_of_constant_discrepancy(disc16):
    """Field minus exact equal to a constant d: the L2 error is exactly
    |d| sqrt(area) and the max error |d|."""
    record, area = fixed_discrepancy(disc16, d=-3.0)
    assert record.c_l2 == pytest.approx(3.0 * np.sqrt(area), rel=1e-13)
    assert record.c_linf == pytest.approx(3.0, rel=1e-13)


def test_gradient_error_of_linear_discrepancy(disc16):
    """Field minus exact with constant gradient g: the L^q gradient norm
    is |g| area^(1/q), for q = 2 on the concentration and q = 4 on the
    pressure."""
    record, area = fixed_discrepancy(disc16, g=(0.6, -0.8), h=(0.6, -0.8))
    assert record.c_h1semi == pytest.approx(area ** 0.5, rel=1e-12)
    assert record.p_grad_l4 == pytest.approx(area ** 0.25, rel=1e-12)


def test_velocity_error_of_constant_field(disc16):
    """Velocity minus exact equal to a constant e: the L2 error is
    |e| sqrt(area) and the max error |e|."""
    record, area = fixed_discrepancy(disc16, e=(0.3, -0.4))
    assert record.u_l2 == pytest.approx(0.5 * np.sqrt(area), rel=1e-13)
    assert record.u_linf == pytest.approx(0.5, rel=1e-13)


def test_each_exact_field_is_evaluated_once(disc8):
    """One measure_errors call evaluates the exact velocity, pressure and
    both gradients once each, and the exact concentration twice: at the
    quadrature points and at the nodes."""
    sol = disk_trig_case()
    grid = TimeGrid(final_time=0.1, num_steps=2)
    t = grid.time(1)
    x, y = disc8.quad_points[..., 0], disc8.quad_points[..., 1]
    state = SimpleNamespace(
        step_index=1,
        concentration=interpolate(
            disc8.p1, lambda xx, yy: sol.concentration(xx, yy, t)),
        pressure=interpolate(disc8.p2, lambda xx, yy: sol.pressure(xx, yy, t)),
        velocity=sol.velocity(x, y, t))
    calls = dict.fromkeys(("concentration", "concentration_grad", "velocity",
                           "pressure", "pressure_grad"), 0)

    def counted(name):
        field = getattr(sol, name)

        def call(*args):
            calls[name] += 1
            return field(*args)
        return call

    counting = SimpleNamespace(**{name: counted(name) for name in calls})
    record = measure_errors(disc8, state, grid, counting)
    assert calls == dict(concentration=2, concentration_grad=1, velocity=1,
                         pressure=1, pressure_grad=1)
    assert record == measure_errors(disc8, state, grid, sol)


def test_observed_orders():
    got = observed_orders([1.0, 0.25, 0.0625])
    assert np.allclose(got, [2.0, 2.0], rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        observed_orders([1.0])
    with pytest.raises(ValueError):
        observed_orders([1.0, 0.0])


def test_interpolation_error_refines_at_second_order(disc8, disc16):
    """L2 error of the linear interpolant of a smooth field drops by
    about the mesh-width ratio squared between the two stock meshes."""
    sol = disk_trig_case()
    grid = TimeGrid(final_time=1.0, num_steps=1)
    errors = []
    for disc in (disc8, disc16):
        x, y = disc.quad_points[..., 0], disc.quad_points[..., 1]
        state = SimpleNamespace(
            step_index=0,
            concentration=interpolate(
                disc.p1, lambda xx, yy: sol.concentration(xx, yy, 0.0)),
            pressure=np.zeros(disc.p2.dof_count),
            velocity=sol.velocity(x, y, 0.0))
        errors.append(measure_errors(disc, state, grid, sol).c_l2)
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

"""Benchmark fields: internal consistency of the closed-form solution,
finite-difference source recovery, and the wall-flux contract."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miscfem import (CASES, ManufacturedSolution, TimeGrid,
                     build_discretization, disk_trig_case, fd_divergence,
                     generate_disk_mesh, manufacture_sources, measure_errors,
                     problem_coefficients, run, strong_residuals)
from miscfem import manufactured
from miscfem.manufactured import _ProductTable


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
    """So does problem_coefficients, which is built from it; a NaN step
    would otherwise drop the finite-difference band at the kink."""
    for step in (0.0, math.nan, math.inf, True):
        with pytest.raises(ValueError):
            manufacture_sources(sol, fd_step=step)
        with pytest.raises(ValueError):
            problem_coefficients(sol, fd_step=step)


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


def test_closed_form_wall_data_match_the_oracle(sol, rng):
    """problem_coefficients' wall data, in closed form, equal the normal
    components of the analytic fluxes that manufacture_sources gives, to
    rounding, at random points and normals and at the edge quadrature
    points of the temporal M=128 row with their outward normals."""
    oracle = manufacture_sources(sol)
    coeffs = problem_coefficients(sol)
    x, y = disk_points(rng, 1000, sol)
    samples = [(x, y, rng.uniform(0.0, 1.0, 1000), rng.standard_normal(1000),
                rng.standard_normal(1000))]
    disc = build_discretization(generate_disk_mesh(M=128))
    samples += [(disc.edge_x, disc.edge_y, n / 32.0, disc.edge_nx,
                 disc.edge_ny) for n in range(33)]
    for args in samples:
        for fd, closed in ((oracle.pressure_flux, coeffs.pressure_flux),
                           (oracle.concentration_flux,
                            coeffs.concentration_flux)):
            want, got = fd(*args), closed(*args)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_finite_difference_oracle_drives_the_solver(sol):
    """manufacture_sources returns coefficients the driver can march, and
    marching them gives the errors of problem_coefficients' closed-form
    sources in every column, within 1e-6 relative."""
    disc = build_discretization(generate_disk_mesh(M=16))
    grid = TimeGrid(final_time=0.25, num_steps=8)        # tau = 1/32
    records = []
    for coeffs in (manufacture_sources(sol), problem_coefficients(sol)):
        state, _ = run(disc, coeffs, grid)
        records.append(dataclasses.asdict(
            measure_errors(disc, state, grid, sol)))
    oracle, closed = records
    for name, want in oracle.items():
        assert closed[name] == pytest.approx(want, rel=1e-6, abs=0), name


# Every callable of a disk-trig case and of its problem_coefficients,
# (x, y, t) -> value; the wall data get a fixed unit normal.
def _evaluations(sol):
    coeffs = problem_coefficients(sol)
    calls = {name: getattr(sol, name) for name in (
        "pressure", "pressure_grad", "concentration", "concentration_grad",
        "concentration_dt", "velocity_divergence", "flux_divergence",
        "kink_distance", "velocity", "concentration_flux")}
    calls.update(
        pressure_source=coeffs.pressure_source,
        concentration_source=coeffs.concentration_source)
    for name, flux in (("normal_velocity", sol.normal_velocity),
                       ("normal_flux", sol.normal_flux),
                       ("pressure_wall_flux", coeffs.pressure_flux),
                       ("concentration_wall_flux", coeffs.concentration_flux)):
        calls[name] = lambda x, y, t, flux=flux: flux(x, y, t, 0.6, -0.8)
    return calls


def _bits(value):
    value = np.asarray(value)
    return value.dtype, value.shape, value.tobytes()


# signed zeros often: sin(-0.0) and sin(0.0) differ in their sign bit
_COORD = st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 2.0)
_STEPS = st.lists(st.sampled_from(
    ["call", "mutate x", "mutate y", "new content", "immutable", "band",
     "scalars", "broadcast"]), min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), t=st.floats(0.0, 1.0),
       steps=_STEPS)
def test_stored_factors_give_a_fresh_evaluation_bit_for_bit(data, n, t,
                                                            steps):
    """One case answers a sequence of calls -- on arrays mutated in place
    between calls, on new arrays of the same shape, on immutable arrays
    (whose products it keeps), on scalars, on broadcast shapes and on
    points within fd_step of the kink x = t, interleaved -- and after
    each step every callable, the closed-form wall data among them,
    answers with the bits that a case with no stored products gives for
    the same arguments."""
    live = _evaluations(disk_trig_case())
    x = np.array(data.draw(st.lists(_COORD, min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(_COORD, min_size=n, max_size=n)))
    for step in steps:
        args = (x, y, t)
        if step in ("mutate x", "mutate y"):
            # in place, but an immutable array only through a copy
            x, y = (a if a.flags.writeable else a.copy() for a in (x, y))
            target = x if step == "mutate x" else y
            target[data.draw(st.integers(0, n - 1))] = data.draw(_COORD)
            args = (x, y, t)
        elif step == "immutable":
            x, y = (np.frombuffer(a.tobytes()) for a in (x, y))
            args = (x, y, t)
        elif step == "new content":
            x = x + data.draw(st.sampled_from([1e-300, 1e-12, 0.25]))
            args = (x, y, t)
        elif step == "band":
            offsets = data.draw(st.lists(st.floats(-9.9e-6, 9.9e-6),
                                         min_size=n, max_size=n))
            args = (t + np.array(offsets), y, t)
        elif step == "scalars":
            args = (float(x[0]), float(y[0]), t)
        elif step == "broadcast":
            args = (x[:, None], y[None, :], t)
        for name, call in live.items():
            want = _evaluations(disk_trig_case())[name](*args)
            assert _bits(call(*args)) == _bits(want), (step, name)


def test_a_signed_zero_is_new_content():
    """sin(-0.0) is -0.0: a point mutated from 0.0 to -0.0 must not get
    the products stored for 0.0, whose sign the x-derivative of c keeps."""
    sol = disk_trig_case()
    x, y = np.array([0.0, 0.3]), np.array([0.4, 0.4])
    sol.concentration_grad(x, y, 0.5)
    x[0] = -0.0
    want = disk_trig_case().concentration_grad(x, y, 0.5)
    assert _bits(sol.concentration_grad(x, y, 0.5)) == _bits(want)
    assert np.signbit(want[0, 0]) != np.signbit(
        disk_trig_case().concentration_grad(abs(x), y, 0.5)[0, 0])


def _immutable_points(n):
    """x and y of n points on bytes, as a Discretization holds them."""
    return tuple(np.frombuffer(a.tobytes()) for a in (
        np.linspace(0.0, 1.0, n), np.linspace(1.0, 0.0, n)))


def test_immutable_points_hit_by_identity():
    """A call on the very immutable arrays of a stored call returns the
    stored products themselves, which are read-only and equal to a fresh
    evaluation's."""
    table = _ProductTable()
    x, y = _immutable_points(50)
    stored = table(x, y)
    assert table(x, y) is stored
    assert not any(a.flags.writeable for a in stored)
    fresh = _ProductTable()(x.copy(), y.copy())
    assert all(_bits(a) == _bits(b) for a, b in zip(stored, fresh,
                                                      strict=True))


def test_other_arrays_are_evaluated_fresh():
    """Copies, views of writable arrays and read-only arrays that own
    their data keep nothing: each call computes the products again, bit
    for bit the same."""
    table = _ProductTable()
    x, y = _immutable_points(50)
    want = [_bits(a) for a in table(x, y)]
    owned_x, owned_y = x.copy(), y.copy()
    owned_x.flags.writeable = owned_y.flags.writeable = False
    view_x = x.copy()[:]
    view_x.flags.writeable = False
    for args in ((x.copy(), y.copy()), (owned_x, owned_y), (view_x, y),
                 (list(x), y)):
        first, second = table(*args), table(*args)
        assert first is not second
        assert [_bits(a) for a in second] == want
    assert len(table.entries) == 1 and table.entries[0][0] is x


def test_a_refrozen_array_written_in_between_gets_fresh_products():
    """An array that owns its data can be made writable again after a
    call, written and made read-only once more: the next call must see
    the new values, not products kept from the old ones."""
    sol = disk_trig_case()
    x, y = np.linspace(0.0, 1.0, 20).copy(), np.linspace(1.0, 0.0, 20).copy()
    assert x.base is None and y.base is None
    x.flags.writeable = y.flags.writeable = False
    sol.concentration(x, y, 0.5)
    x.flags.writeable = True
    x[:] = x[::-1]
    x.flags.writeable = False
    want = disk_trig_case().concentration(x, y, 0.5)
    assert _bits(sol.concentration(x, y, 0.5)) == _bits(want)


def test_one_case_on_three_discretizations_keeps_two_entries(monkeypatch):
    """A case marched on three discretizations in turn keeps the products
    of two point sets at most: the volume and edge points of the last."""
    tables = []

    class Recording(_ProductTable):
        def __init__(self):
            super().__init__()
            tables.append(self)

    monkeypatch.setattr(manufactured, "_ProductTable", Recording)
    coeffs = problem_coefficients(disk_trig_case())
    grid = TimeGrid(final_time=0.5, num_steps=2)
    for M in (8, 12, 16):
        disc = build_discretization(generate_disk_mesh(M=M))
        run(disc, coeffs, grid)
        (table,) = tables
        assert len(table.entries) <= 2
    for want_x, want_y in ((disc.quad_x, disc.quad_y),
                           (disc.edge_x, disc.edge_y)):
        assert any(x is want_x and y is want_y
                   for x, y, _ in table.entries)

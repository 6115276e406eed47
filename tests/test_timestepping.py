"""Time-marching driver: lagging pattern, conservation and stability
properties of the discrete transport step, and failure reporting."""

from dataclasses import replace

import numpy as np
import pytest

from miscfem import (CoefficientBlowupError, ProblemCoefficients,
                     ScalarDispersionParams, SolveReport,
                     SolverOptions, StepFailure, TimeGrid, finalize_pressure,
                     initialize, interpolate, run, step, timestepping)


def make_coefficients(disc, velocity="on", **overrides):
    """Transport test bed: unit permeability, constant viscosity, and a
    mean-free pressure source that drives a nontrivial Darcy velocity
    (or no source at all for ``velocity="off"``)."""
    base = dict(
        permeability=lambda x, y: np.ones(np.broadcast(x, y).shape),
        viscosity=lambda c: np.full(np.asarray(c, dtype=float).shape, 1.0),
        viscosity_bounds=(0.9, 1.1),
        porosity=0.8,
        dispersion=ScalarDispersionParams(base=0.05, slope=0.01),
        initial_concentration=lambda x, y: np.full(
            np.broadcast(x, y).shape, 0.4),
    )
    if velocity == "on":
        xq = disc.quad_points[..., 0]
        xbar = float((disc.cell_weights * xq).sum() / disc.cell_weights.sum())
        base["pressure_source"] = (
            lambda x, y, t: 40.0 * (x - xbar) + 0.0 * y)
    base.update(overrides)
    return ProblemCoefficients(**base)


class TestTimeGrid:
    def test_tau_and_times(self):
        grid = TimeGrid(final_time=2.0, num_steps=8)
        assert grid.tau == 0.25
        assert grid.time(0) == 0.0
        assert grid.time(8) == 2.0
        assert grid.time(3) == pytest.approx(0.75)

    @pytest.mark.parametrize("bad", [dict(final_time=0.0, num_steps=4),
                                     dict(final_time=-1.0, num_steps=4),
                                     dict(final_time=1.0, num_steps=0),
                                     dict(final_time=1.0, num_steps=2.5)])
    def test_rejects_bad_grids(self, bad):
        with pytest.raises(ValueError):
            TimeGrid(**bad)


def test_initialize_state(disc16):
    coeffs = make_coefficients(disc16)
    grid = TimeGrid(final_time=1.0, num_steps=4)
    state = initialize(disc16, coeffs, grid)
    assert state.step_index == 0
    assert state.pressure_level == 0
    assert state.concentration_report is None
    c0 = interpolate(disc16.p1, coeffs.initial_concentration)
    assert np.array_equal(state.concentration, c0)
    # mean-zero gauge for the Neumann pressure
    mean = disc16.p2_basis_integrals @ state.pressure
    assert abs(mean) < 1e-9 * (1.0 + np.abs(state.pressure).max())
    # the source actually produces flow
    assert np.max(np.linalg.norm(state.velocity.cell_values, axis=-1)) > 0.1


def test_step_lags_pressure(disc16):
    coeffs = make_coefficients(disc16)
    grid = TimeGrid(final_time=0.1, num_steps=4)
    state0 = initialize(disc16, coeffs, grid)
    state1 = step(disc16, coeffs, grid, state0, mode="direct")
    assert state1.step_index == 1
    assert state1.pressure_level == 0
    # the first transport solve reuses the initial pressure verbatim
    assert state1.pressure is state0.pressure
    state2 = step(disc16, coeffs, grid, state1, mode="direct")
    assert state2.step_index == 2
    assert state2.pressure_level == 1
    assert state2.pressure is not state1.pressure


def test_step_respects_grid_length(disc16):
    coeffs = make_coefficients(disc16, velocity="off")
    grid = TimeGrid(final_time=0.1, num_steps=1)
    state = step(disc16, coeffs, grid, initialize(disc16, coeffs, grid))
    with pytest.raises(ValueError, match="only 1 steps"):
        step(disc16, coeffs, grid, state)


@pytest.mark.parametrize("mode,velocity", [("direct", "on"),
                                           ("direct", "off"),
                                           ("skew", "off")])
def test_constant_state_is_steady_without_sources(disc16, mode, velocity):
    """Without sources a spatially constant concentration is an exact
    steady state: the direct convective form annihilates constants for
    any velocity, the skew form only for vanishing flow (its symmetrized
    correction feeds div(u) back into the constant mode by design)."""
    coeffs = make_coefficients(disc16, velocity=velocity)
    grid = TimeGrid(final_time=1.0, num_steps=10)
    state = initialize(disc16, coeffs, grid)
    for _ in range(grid.num_steps):
        state = step(disc16, coeffs, grid, state, mode=mode)
    drift = np.max(np.abs(state.concentration - 0.4))
    assert drift < 1e-11


def test_skew_mode_dissipates_l2_norm(disc16):
    """Skew-symmetrized convection with homogeneous data: the weighted L2
    norm of the concentration never increases across a step."""
    def bump(x, y):
        return np.exp(-18.0 * ((x - 0.45) ** 2 + (y - 0.55) ** 2))

    coeffs = make_coefficients(disc16, initial_concentration=bump,
                               viscosity_bounds=(0.5, 2.0))
    grid = TimeGrid(final_time=0.5, num_steps=20)
    state, history = run(disc16, coeffs, grid, mode="skew")
    norms = [rec.concentration_l2 for rec in history]
    assert len(norms) == grid.num_steps + 1
    for before, after in zip(norms, norms[1:]):
        assert after <= before + 1e-12
    # genuinely dissipative, not just flat
    assert norms[-1] < 0.9 * norms[0]


def test_run_returns_full_history_and_final_pressure(disc16):
    coeffs = make_coefficients(disc16)
    grid = TimeGrid(final_time=0.2, num_steps=5)
    seen = []
    state, history = run(disc16, coeffs, grid, mode="direct",
                         observers=[lambda s: seen.append(s.step_index)])
    assert seen == list(range(6))
    assert [rec.step_index for rec in history] == list(range(6))
    assert history[-1].time == pytest.approx(0.2)
    # finalized: pressure caught up with the concentration level
    assert state.pressure_level == state.step_index == 5
    again = finalize_pressure(disc16, coeffs, grid, state)
    assert again is state


def test_run_matches_manual_stepping(disc16):
    coeffs = make_coefficients(disc16)
    grid = TimeGrid(final_time=0.2, num_steps=3)
    state, _ = run(disc16, coeffs, grid, mode="direct")
    manual = initialize(disc16, coeffs, grid)
    for _ in range(3):
        manual = step(disc16, coeffs, grid, manual, mode="direct")
    manual = finalize_pressure(disc16, coeffs, grid, manual)
    assert np.array_equal(state.concentration, manual.concentration)
    assert np.array_equal(state.pressure, manual.pressure)


@pytest.mark.parametrize("mode", ["direct", "skew"])
def test_transport_solve_converges_in_one_or_two_iterations(disc16, mode):
    """The transport GMRES runs on an exact LU factor of the step's own
    matrix, so it converges at once, well below its tolerance."""
    coeffs = make_coefficients(
        disc16, initial_concentration=lambda x, y: 0.4 + 0.2 * x * y)
    grid = TimeGrid(final_time=0.1, num_steps=4)
    state = step(disc16, coeffs, grid, initialize(disc16, coeffs, grid),
                 mode=mode, options=SolverOptions(concentration_tol=1e-13))
    assert state.concentration_report.converged
    assert state.concentration_report.iterations <= 2


def test_viscosity_evaluated_once_per_pressure_level(disc16):
    """The pressure solve and the velocity share one mu(c) evaluation:
    a 4-step run has 5 pressure levels (0 to 4) and 5 viscosity calls."""
    calls = []

    def viscosity(c):
        calls.append(1)
        return np.full(np.asarray(c, dtype=float).shape, 1.0)

    coeffs = make_coefficients(disc16, viscosity=viscosity)
    run(disc16, coeffs, TimeGrid(final_time=0.1, num_steps=4))
    assert len(calls) == 5


def count_pressure_factorizations(monkeypatch, disc):
    """Record every ``timestepping.splu`` call on a matrix of the bordered
    pressure system's size, n2 + 1."""
    calls = []
    original = timestepping.splu

    def counting(matrix, *args, **kwargs):
        if matrix.shape == (disc.p2.dof_count + 1,) * 2:
            calls.append(matrix.shape)
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(timestepping, "splu", counting)
    return calls


def test_one_pressure_factor_serves_the_whole_run(disc16, monkeypatch):
    """mu(c) drifts with the concentration, yet the factor built for the
    initial pressure preconditions every later level within a few CG
    iterations, so the run factors the pressure system once."""
    factorizations = count_pressure_factorizations(monkeypatch, disc16)
    coeffs = make_coefficients(
        disc16, viscosity=lambda c: 1.0 + 0.5 * np.asarray(c, dtype=float),
        viscosity_bounds=(0.5, 2.0),
        initial_concentration=lambda x, y: 0.4 + 0.2 * x * y)
    state, history = run(disc16, coeffs, TimeGrid(final_time=0.2,
                                                  num_steps=5))
    assert len(factorizations) == 1
    iterations = [rec.pressure_iterations for rec in history]
    iterations.append(state.pressure_report.iterations)
    assert iterations[0] == 1
    assert max(iterations) <= timestepping.REFACTOR_ITERATIONS
    assert state.pressure_factor is not None


def test_viscosity_jump_triggers_a_refactor(disc16, monkeypatch):
    """A viscosity that jumps from constant at level 0 to strongly varying
    from level 1 on makes the level-0 factor a poor preconditioner: the
    level-1 solve takes more than REFACTOR_ITERATIONS, drops the factor,
    and the level-2 solve factors its own matrix."""
    factorizations = count_pressure_factorizations(monkeypatch, disc16)
    levels = []

    def viscosity(c):
        c = np.asarray(c, dtype=float)
        levels.append(1)
        return np.ones(c.shape) if len(levels) == 1 else 0.3 + 3.0 * c

    coeffs = make_coefficients(
        disc16, viscosity=viscosity, viscosity_bounds=(0.3, 3.3),
        initial_concentration=lambda x, y: x + 0.0 * y)
    grid = TimeGrid(final_time=0.1, num_steps=3)
    state = step(disc16, coeffs, grid, initialize(disc16, coeffs, grid))
    assert len(factorizations) == 1
    state = step(disc16, coeffs, grid, state)
    assert state.pressure_report.iterations > timestepping.REFACTOR_ITERATIONS
    assert state.pressure_factor is None
    assert len(factorizations) == 1
    state = step(disc16, coeffs, grid, state)
    assert state.pressure_report.iterations == 1
    assert state.pressure_factor is not None
    assert len(factorizations) == 2


def test_solver_failure_is_reported(disc16):
    coeffs = make_coefficients(disc16)
    grid = TimeGrid(final_time=1.0, num_steps=2)
    options = SolverOptions(max_iter=0, pressure_tol=1e-14)
    with pytest.raises(StepFailure) as info:
        initialize(disc16, coeffs, grid, options)
    assert "pressure solve failed at step 0" in str(info.value)
    assert info.value.step_index == 0
    assert not info.value.report.converged


def test_step_failure_message_format():
    err = StepFailure(7, "concentration", SolveReport(42, 3.5e-4, False))
    assert "concentration solve failed at step 7" in str(err)
    assert "3.500e-04" in str(err)
    assert "42 iterations" in str(err)


def test_viscosity_blowup_names_the_step(disc16):
    """A concentration far outside the viscosity band stops the step that
    solves the pressure on it, and the error names that step."""
    coeffs = make_coefficients(
        disc16, viscosity=lambda c: 1.0 + np.asarray(c, dtype=float))
    grid = TimeGrid(final_time=1.0, num_steps=4)
    state = step(disc16, coeffs, grid, initialize(disc16, coeffs, grid))
    wild = replace(state, concentration=np.full(disc16.p1.dof_count, 50.0))
    with pytest.raises(CoefficientBlowupError, match="at step 2: viscosity"):
        step(disc16, coeffs, grid, wild)
    with pytest.raises(CoefficientBlowupError, match="at step 1: viscosity"):
        finalize_pressure(disc16, coeffs, grid, wild)

"""Time-marching driver: one time level per state with the velocity
lagged inside each step, conservation and stability properties of the
discrete transport step, and failure reporting."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.sparse.linalg import splu

from miscfem import (CoefficientBlowupError, DispersionParams,
                     ProblemCoefficients, ScalarDispersionParams,
                     SolveReport, SolverOptions, StepFailure, TimeGrid,
                     build_discretization, disk_trig_case, finalize_pressure,
                     forms, generate_disk_mesh, initialize, interpolate,
                     problem_coefficients, run, solvers, step, timestepping)
from miscfem.solvers import SYMMETRIC_LU


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

    @given(final_time=st.one_of(st.floats(), st.integers(-3, 10**6),
                                st.booleans()),
           num_steps=st.one_of(st.floats(), st.integers(-3, 10**6),
                               st.booleans()))
    def test_accepts_exactly_finite_times_and_integral_steps(
            self, final_time, num_steps):
        def is_real(v):
            return not isinstance(v, bool) and math.isfinite(v)

        if (is_real(final_time) and final_time > 0 and is_real(num_steps)
                and num_steps == int(num_steps) and num_steps >= 1):
            grid = TimeGrid(final_time=final_time, num_steps=num_steps)
            assert type(grid.num_steps) is int
            assert grid.num_steps == num_steps
        else:
            with pytest.raises(ValueError):
                TimeGrid(final_time=final_time, num_steps=num_steps)


def test_initialize_state(disc16):
    coeffs = make_coefficients(disc16)
    grid = TimeGrid(final_time=1.0, num_steps=4)
    state = initialize(disc16, coeffs, grid)
    assert state.step_index == 0
    assert state.level.index == 0
    assert state.concentration_report is None
    c0 = interpolate(disc16.p1, coeffs.initial_concentration)
    assert np.array_equal(state.concentration, c0)
    # mean-zero gauge for the Neumann pressure
    mean = disc16.p2_basis_integrals @ state.pressure
    assert abs(mean) < 1e-9 * (1.0 + np.abs(state.pressure).max())
    # the source actually produces flow
    assert np.max(np.linalg.norm(state.velocity.cell_values, axis=-1)) > 0.1


def test_step_lags_pressure(disc16, monkeypatch):
    """The scheme lags the velocity inside a step: the transport of step
    n is assembled with the velocity of state n - 1, and step n ends with
    the pressure of its own concentration."""
    velocities = []
    original = timestepping.assemble_concentration

    def recording(disc, coeffs, c_prev, velocity, *args, **kwargs):
        velocities.append(velocity)
        return original(disc, coeffs, c_prev, velocity, *args, **kwargs)

    monkeypatch.setattr(timestepping, "assemble_concentration", recording)
    coeffs = make_coefficients(disc16)
    grid = TimeGrid(final_time=0.1, num_steps=4)
    states = [initialize(disc16, coeffs, grid)]
    for n in range(1, 4):
        states.append(step(disc16, coeffs, grid, states[-1], mode="direct"))
        assert velocities[-1] is states[n - 1].velocity
        assert states[n].step_index == states[n].level.index == n
        assert states[n].velocity is not states[n - 1].velocity
    assert len(velocities) == 3


def test_every_state_holds_its_own_pressure_level(disc16):
    """Every state an observer sees, the initial and the final one
    included, holds the pressure of its own time level."""
    seen = []
    run(disc16, make_coefficients(disc16),
        TimeGrid(final_time=0.1, num_steps=4),
        observers=[lambda s: seen.append((s.step_index, s.level.index))])
    assert seen == [(n, n) for n in range(5)]


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
    # the final state holds the end-time pressure already
    assert state.level.index == state.step_index == 5
    again = finalize_pressure(disc16, coeffs, grid, state)
    assert again is state


def test_run_matches_manual_stepping(disc16):
    coeffs = make_coefficients(disc16)
    grid = TimeGrid(final_time=0.2, num_steps=3)
    state, _ = run(disc16, coeffs, grid, mode="direct")
    manual = initialize(disc16, coeffs, grid)
    for _ in range(3):
        manual = step(disc16, coeffs, grid, manual, mode="direct")
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


@pytest.mark.parametrize("mode", ["skew", "direct"])
def test_march_never_converts_triplets(disc16, monkeypatch, mode):
    """Both systems are summed into the discretization's fixed sparsity
    patterns, so no step converts COO triplets to CSR; every CG call still
    checks symmetry, on the pattern's transpose permutation."""
    def refuse(*args, **kwargs):
        raise AssertionError("from_triplets called while marching")

    monkeypatch.setattr(forms, "from_triplets", refuse)
    monkeypatch.setattr(solvers, "from_triplets", refuse)
    checked = []
    original = solvers._symmetry_defect

    def defect(A):
        checked.append(A.pattern is disc16.p2_pattern)
        return original(A)

    monkeypatch.setattr(solvers, "_symmetry_defect", defect)
    state, history = run(disc16, make_coefficients(disc16),
                         TimeGrid(final_time=0.1, num_steps=4), mode=mode)
    assert len(history) == 5 and state.concentration_report.converged
    assert checked == [True] * 5       # one pressure solve per level


def record_factorizations(monkeypatch, size):
    """Record (matrix, factor) of every ``timestepping.splu`` call on a
    size x size matrix: n2 + 1 for the bordered pressure system, n1 for
    the transport system."""
    calls = []
    original = timestepping.splu

    def recording(matrix, *args, **kwargs):
        factor = original(matrix, *args, **kwargs)
        if matrix.shape == (size, size):
            calls.append((matrix, factor))
        return factor

    monkeypatch.setattr(timestepping, "splu", recording)
    return calls


def test_one_pressure_factor_serves_the_whole_run(disc16, monkeypatch):
    """mu(c) drifts with the concentration, yet the factor built for the
    initial pressure preconditions every later level within a few CG
    iterations, so the run factors the pressure system once."""
    factorizations = record_factorizations(monkeypatch,
                                           disc16.p2.dof_count + 1)
    coeffs = make_coefficients(
        disc16, viscosity=lambda c: 1.0 + 0.5 * np.asarray(c, dtype=float),
        viscosity_bounds=(0.5, 2.0),
        initial_concentration=lambda x, y: 0.4 + 0.2 * x * y)
    state, history = run(disc16, coeffs, TimeGrid(final_time=0.2,
                                                  num_steps=5))
    assert len(factorizations) == 1
    iterations = [rec.pressure_iterations for rec in history]
    assert iterations[0] == 1
    assert max(iterations) <= timestepping.REFACTOR_ITERATIONS
    assert state.level.factor is not None


def test_rescaling_leaves_the_factors_own_level_unchanged(disc16):
    """At the level a pressure factor is built from, the rescaling
    sqrt(diag(A0) / diag(A)) is exactly one, so that solve is the plain
    bordered-factor preconditioned CG, bit for bit."""
    coeffs = make_coefficients(
        disc16, viscosity=lambda c: 1.0 + 0.5 * np.asarray(c, dtype=float),
        viscosity_bounds=(0.5, 2.0),
        initial_concentration=lambda x, y: 0.4 + 0.2 * x * y)
    state = initialize(disc16, coeffs, TimeGrid(final_time=0.2, num_steps=4))
    system = forms.assemble_pressure(disc16, coeffs, state.concentration, 0.0)
    factor = timestepping._bordered_factor(system, 0)
    p, report = solvers.cg_deflated(
        system.matrix, system.rhs, deflate=system.mass_vector,
        rel_tol=SolverOptions().pressure_tol,
        precond=lambda r: factor.solve(np.append(r, 0.0))[:-1])
    assert np.array_equal(state.pressure, p)
    assert state.pressure_report == report
    assert np.array_equal(state.level.factor_diagonal,
                          system.matrix.diagonal())


def test_viscosity_jump_triggers_a_refactor(disc16, monkeypatch):
    """A viscosity that jumps from constant at level 0 to one alternating
    between 0.3 and 3.3 from cell to cell at level 1 on makes the level-0
    factor a poor preconditioner even rescaled to the new diagonal, which
    averages the cells around each dof and cannot follow the jumps: the
    level-1 solve of step 1 takes more than REFACTOR_ITERATIONS, drops the
    factor, and the level-2 solve of step 2 factors its own matrix."""
    factorizations = record_factorizations(monkeypatch,
                                           disc16.p2.dof_count + 1)
    levels = []

    def viscosity(c):
        c = np.asarray(c, dtype=float)
        levels.append(1)
        if len(levels) == 1:
            return np.ones(c.shape)
        odd = np.arange(c.shape[0]) % 2 == 1
        return np.where(odd[:, None], 0.3, 3.3) + 0.0 * c

    coeffs = make_coefficients(
        disc16, viscosity=viscosity, viscosity_bounds=(0.3, 3.3),
        initial_concentration=lambda x, y: x + 0.0 * y)
    grid = TimeGrid(final_time=0.1, num_steps=3)
    state = initialize(disc16, coeffs, grid)
    assert len(factorizations) == 1
    state = step(disc16, coeffs, grid, state)
    assert state.pressure_report.iterations > timestepping.REFACTOR_ITERATIONS
    assert state.level.factor is None
    assert len(factorizations) == 1
    state = step(disc16, coeffs, grid, state)
    assert state.pressure_report.iterations == 1
    assert state.level.factor is not None
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
    """A concentration far outside the viscosity band stops the pressure
    solve of its own level n, and the error names step n: here the
    constant 50 is transported, unchanged, to level 1 by step 1."""
    coeffs = make_coefficients(
        disc16, viscosity=lambda c: 1.0 + np.asarray(c, dtype=float))
    grid = TimeGrid(final_time=1.0, num_steps=4)
    state = initialize(disc16, coeffs, grid)
    wild = replace(state, concentration=np.full(disc16.p1.dof_count, 50.0))
    with pytest.raises(CoefficientBlowupError, match="at step 1: viscosity"):
        step(disc16, coeffs, grid, wild)
    with pytest.raises(CoefficientBlowupError, match="at step 1: viscosity"):
        finalize_pressure(disc16, coeffs, grid, replace(wild, step_index=1))


@pytest.mark.parametrize("case", ["disk-trig", "skew-plume"])
def test_transport_factor_fills_less_than_colamd(disc16, monkeypatch, case):
    """One LU policy serves the symmetric transport matrix of the
    disk-trig case (no advection, direct form) and the nonsymmetric one
    of an anisotropic plume in skew form.  The pattern's ordering, read
    off a dummy matrix, is the ``perm_c`` that minimum degree on A^T + A
    picks for the step's own matrix A; every step factors the reordered
    matrix in its natural order with the same fill as that
    minimum-degree factor, less than scipy's default COLAMD ordering with
    partial pivoting, and the solve it gives is exact."""
    if case == "disk-trig":
        coeffs, mode = problem_coefficients(disk_trig_case()), "direct"
    else:
        coeffs = make_coefficients(
            disc16, dispersion=DispersionParams(gamma_dm=0.002, alpha_l=0.01,
                                                alpha_t=0.001),
            initial_concentration=lambda x, y: 0.4 * np.exp(
                -50.0 * ((x - 0.35) ** 2 + (y - 0.5) ** 2)))
        mode = "skew"
    calls = record_factorizations(monkeypatch, disc16.p1.dof_count)
    grid = TimeGrid(final_time=0.25, num_steps=16)
    state = initialize(disc16, coeffs, grid)
    for _ in range(3):
        state = step(disc16, coeffs, grid, state, mode=mode)
        assert state.concentration_report.iterations == 1
        assert state.concentration_report.relative_residual < 1e-12
    assert len(calls) == 3
    position = disc16.p1_pattern.minimum_degree.position
    for permuted, factor in calls:
        matrix = permuted[position][:, position]    # the step's own A
        defect = abs(matrix - matrix.T).max()
        assert (defect < 1e-14) == (case == "disk-trig")
        mmd = splu(matrix, permc_spec="MMD_AT_PLUS_A", **SYMMETRIC_LU)
        assert np.array_equal(mmd.perm_c, position)
        fill = factor.L.nnz + factor.U.nnz
        assert fill == mmd.L.nnz + mmd.U.nnz
        colamd = splu(matrix)
        assert fill < colamd.L.nnz + colamd.U.nnz


def test_one_ordering_per_pattern(monkeypatch):
    """The transport pattern's minimum-degree ordering is computed by
    ``initialize``, not by ``build_discretization``, and kept: two runs
    on one discretization order it once, and every step factors its
    reordered matrix in the natural order."""
    disc = build_discretization(generate_disk_mesh(M=16))
    assert "minimum_degree" not in vars(disc.p1_pattern)
    orderings, specs = [], []
    order, factor = solvers.splu, timestepping.splu

    def ordering(matrix, **kwargs):
        orderings.append(kwargs["permc_spec"])
        return order(matrix, **kwargs)

    def factoring(matrix, **kwargs):
        specs.append((matrix.shape[0], kwargs["permc_spec"]))
        return factor(matrix, **kwargs)

    monkeypatch.setattr(solvers, "splu", ordering)
    monkeypatch.setattr(timestepping, "splu", factoring)
    coeffs = make_coefficients(disc)
    grid = TimeGrid(final_time=0.1, num_steps=4)
    initialize(disc, coeffs, grid)
    assert orderings == ["MMD_AT_PLUS_A"]
    run(disc, coeffs, grid)
    run(disc, coeffs, grid, mode="skew")
    assert orderings == ["MMD_AT_PLUS_A"]
    transport = [spec for n, spec in specs if n == disc.p1.dof_count]
    assert transport == ["NATURAL"] * 8


def test_pressure_cg_starts_from_the_extrapolated_pressure(disc16,
                                                           monkeypatch):
    """The CG of pressure level 0 starts from zero, that of level 1 from
    p0, and that of every later level n from 2 p(n-1) - p(n-2)."""
    starts = []
    original = timestepping.cg_deflated

    def recording(*args, x0=None, **kwargs):
        starts.append(None if x0 is None else x0.copy())
        return original(*args, x0=x0, **kwargs)

    monkeypatch.setattr(timestepping, "cg_deflated", recording)
    coeffs = make_coefficients(
        disc16, viscosity=lambda c: 1.0 + 0.5 * np.asarray(c, dtype=float),
        viscosity_bounds=(0.5, 2.0),
        initial_concentration=lambda x, y: 0.4 + 0.2 * x * y)
    pressures = {}

    def observe(state):
        pressures[state.level.index] = state.pressure

    run(disc16, coeffs, TimeGrid(final_time=0.2, num_steps=4),
        observers=[observe])
    assert sorted(pressures) == [0, 1, 2, 3, 4]
    assert len(starts) == 5 and starts[0] is None
    assert np.array_equal(starts[1], pressures[0])
    for n in (2, 3, 4):
        assert not np.array_equal(pressures[n - 1], pressures[n - 2])
        assert np.array_equal(starts[n],
                              2.0 * pressures[n - 1] - pressures[n - 2])


def test_singular_matrices_fail_the_step(disc8):
    """A permeability of zero, which would make the pressure matrix zero,
    is refused before any factorization as a CoefficientBlowupError that
    names step 0 and the permeability.  A transport matrix that LU finds
    exactly singular (a porosity and molecular diffusion small enough to
    round it to zero) fails step 1 as a StepFailure naming the system."""
    grid = TimeGrid(final_time=1.0, num_steps=2)
    coeffs = make_coefficients(disc8, permeability=lambda x, y: 0.0 * x * y)
    with pytest.raises(CoefficientBlowupError, match=r"at step 0: "
                       r"permeability gives k/mu in \[0, 0\]"):
        run(disc8, coeffs, grid)
    coeffs = make_coefficients(
        disc8, porosity=5e-324, velocity_coupling="none",
        dispersion=DispersionParams(gamma_dm=5e-324, alpha_l=0.0,
                                    alpha_t=0.0))
    with pytest.raises(StepFailure, match="concentration solve failed at "
                       "step 1: LU factorization: .*singular") as info:
        run(disc8, coeffs, grid)
    assert info.value.step_index == 1 and info.value.report is None


def poisoned(func, points, value):
    """``func`` with ``value`` written at the given flat positions (taken
    modulo the size) of every array it returns."""
    def wrapped(*args):
        out = np.array(func(*args), dtype=np.float64)
        out.flat[np.asarray(points) % out.size] = value
        return out
    return wrapped


def poisoned_coefficients(disc, field, points, value):
    coeffs = make_coefficients(
        disc, concentration_source=lambda x, y, t: 0.0 * x * y)
    return replace(coeffs, **{field: poisoned(getattr(coeffs, field),
                                              points, value)})


def expect_typed_failure(disc, coeffs):
    """Run two steps; they must end in a typed failure, and a failed
    solve must have stopped at once."""
    with pytest.raises((StepFailure, CoefficientBlowupError)) as info:
        run(disc, coeffs, TimeGrid(final_time=0.1, num_steps=2))
    report = getattr(info.value, "report", None)
    assert report is None or report.iterations <= 1
    return info.value


@pytest.mark.parametrize("field, failure, what", [
    ("viscosity", CoefficientBlowupError, "at step 0: viscosity range"),
    ("pressure_source", CoefficientBlowupError,
     "at step 0: pressure load vector is not finite"),
    ("concentration_source", CoefficientBlowupError,
     "at step 1: concentration load vector is not finite"),
])
def test_nan_data_fails_fast_with_a_typed_error(disc8, field, failure, what):
    """One NaN in the viscosity, the pressure source or the concentration
    source ends the run in the step that meets it, with a typed error
    that names the step and the field or system: the viscosity guard
    refuses NaN, and so does the check of both load vectors, before
    either system is solved."""
    coeffs = poisoned_coefficients(disc8, field, [5], np.nan)
    err = expect_typed_failure(disc8, coeffs)
    assert isinstance(err, failure)
    assert what in str(err)


@settings(max_examples=40)
@given(field=st.sampled_from(["permeability", "viscosity", "pressure_source",
                              "concentration_source"]),
       points=st.lists(st.integers(0, 10**4), min_size=1, max_size=4),
       value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_data_ends_in_a_typed_failure(disc8, field, points,
                                                 value):
    expect_typed_failure(
        disc8, poisoned_coefficients(disc8, field, points, value))

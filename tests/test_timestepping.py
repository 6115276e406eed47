"""Time-marching driver: one time level per state with the velocity
lagged inside each step, conservation and stability properties of the
discrete transport step, and failure reporting."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bordered_neumann_solve

from miscfem import (CoefficientBlowupError, DispersionParams,
                     ProblemCoefficients, ScalarDispersionParams,
                     SolveReport, SolverOptions, StepFailure, TimeGrid,
                     build_discretization, disk_trig_case, finalize_pressure,
                     forms, generate_disk_mesh, initialize, interpolate,
                     problem_coefficients, run, solvers, step, timestepping)


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

    def test_times_stay_finite_up_to_the_float_maximum(self):
        grid = TimeGrid(final_time=1.7976931348623157e308, num_steps=3)
        assert grid.time(1) == pytest.approx(5.99e307, rel=1e-3)
        assert grid.time(3) == grid.final_time

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
    assert np.max(np.linalg.norm(state.velocity, axis=-1)) > 0.1


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


@pytest.mark.parametrize("mode", ["Skew", "upwind", ""])
def test_bad_mode_is_refused_before_any_work(disc8, mode):
    """``run`` checks the convection mode before it interpolates,
    assembles or solves anything: no coefficient callable is called."""
    calls = []

    def recorded(*args):
        calls.append(args)
        return np.ones(np.shape(args[0]))

    coeffs = ProblemCoefficients(
        permeability=recorded, viscosity=recorded, viscosity_bounds=(0.5, 2.0),
        porosity=1.0, dispersion=ScalarDispersionParams(base=0.1, slope=0.0),
        initial_concentration=recorded, pressure_source=recorded)
    with pytest.raises(ValueError, match="convection mode"):
        run(disc8, coeffs, TimeGrid(final_time=0.1, num_steps=2), mode=mode)
    assert calls == []


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
    size x size matrix: n2 - 1 for the pressure matrix with a dof
    pinned."""
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
                                           disc16.p2.dof_count - 1)
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
    CG preconditioned by the pinned factor's solve, bit for bit."""
    coeffs = make_coefficients(
        disc16, viscosity=lambda c: 1.0 + 0.5 * np.asarray(c, dtype=float),
        viscosity_bounds=(0.5, 2.0),
        initial_concentration=lambda x, y: 0.4 + 0.2 * x * y)
    state = initialize(disc16, coeffs, TimeGrid(final_time=0.2, num_steps=4))
    system = forms.assemble_pressure(disc16, coeffs, state.concentration, 0.0)
    p, report = solvers.cg_deflated(
        system.matrix, system.rhs, deflate=disc16.p2_basis_integrals,
        rel_tol=SolverOptions().pressure_tol,
        precond=timestepping._pinned_factor(disc16, system.matrix, 0))
    assert np.array_equal(state.pressure, p)
    assert state.pressure_report == report
    assert np.array_equal(state.level.factor_diagonal,
                          system.matrix.diagonal())


@settings(max_examples=40)
@given(fine=st.booleans(), seed=st.integers(0, 2**32 - 1),
       orthogonal=st.booleans(), slope=st.floats(0.0, 4.0))
def test_pinned_factor_gives_the_bordered_solve(disc8, disc16, fine, seed,
                                                orthogonal, slope):
    """The solve of the pressure matrix with its last dof pinned, with
    the rank-one corrections on either side, is the solve of the bordered
    Neumann system [[A, m], [m^T, 0]] with right-hand side [r, 0], to
    1e-12 relative, for a right-hand side r orthogonal to the basis
    integrals m or not, on pressure matrices of varying mobility."""
    disc = disc16 if fine else disc8
    rng = np.random.default_rng(seed)
    coeffs = make_coefficients(
        disc, viscosity=lambda c: 1.0 + slope * np.asarray(c, dtype=float),
        viscosity_bounds=(0.5, 6.0))
    c = rng.uniform(0.0, 1.0, disc.p1.dof_count)
    A = forms.assemble_pressure(disc, coeffs, c, 0.0).matrix
    m = disc.p2_basis_integrals
    r = rng.standard_normal(m.size)
    if orthogonal:
        r -= ((m @ r) / (m @ m)) * m
    want = bordered_neumann_solve(A, m)[0](r)
    got = timestepping._pinned_factor(disc, A, 0)(r)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("M", [16, 64])
def test_pinned_factor_pivots_on_its_diagonal(monkeypatch, M):
    """The pressure matrix with its last dof pinned is symmetric positive
    definite, so SuperLU factors it in symmetric mode on its diagonal:
    the row permutation is the column permutation, and the fill is no
    larger than that of the bordered matrix's LU factor."""
    disc = build_discretization(generate_disk_mesh(M=M))
    factorizations = record_factorizations(monkeypatch,
                                           disc.p2.dof_count - 1)
    coeffs = problem_coefficients(disk_trig_case())
    state = initialize(disc, coeffs, TimeGrid(final_time=1.0, num_steps=4))
    (matrix, factor), = factorizations
    A = forms.assemble_pressure(disc, coeffs, state.concentration,
                                0.0).matrix
    assert (matrix != A[:-1, :-1]).nnz == 0
    assert np.array_equal(factor.perm_r, factor.perm_c)
    _, bordered = bordered_neumann_solve(A, disc.p2_basis_integrals)
    assert (factor.L.nnz + factor.U.nnz
            <= bordered.L.nnz + bordered.U.nnz)


def test_singular_pressure_matrix_fails_the_step(disc8):
    """A pressure matrix whose pinned block is singular, here one with a
    dof cut off from the others, cannot be factored: the step it belongs
    to fails as a StepFailure naming the LU factorization."""
    coeffs = problem_coefficients(disk_trig_case())
    c = interpolate(disc8.p1, coeffs.initial_concentration)
    A = forms.assemble_pressure(disc8, coeffs, c, 0.0).matrix.tolil()
    A[3, :] = 0.0
    A[:, 3] = 0.0
    with pytest.raises(StepFailure, match="pressure solve failed at step 2: "
                       "LU factorization: ") as info:
        timestepping._pinned_factor(disc8, A.tocsr(), 2)
    assert info.value.step_index == 2 and info.value.report is None


def test_viscosity_jump_triggers_a_refactor(disc16, monkeypatch):
    """A viscosity that jumps from constant at level 0 to one alternating
    between 0.3 and 3.3 from cell to cell at level 1, and to the same
    values swapped at level 2, makes the level-0 factor a poor
    preconditioner even rescaled to the new diagonal, which averages the
    cells around each dof and cannot follow the jumps: the level-1 solve
    of step 1 takes more than REFACTOR_ITERATIONS and drops the factor,
    and the level-2 solve of step 2 factors its own matrix, which solves
    it in one iteration.  The swap keeps the level-2 system apart from
    the level-1 one, whose pressure the start could otherwise reuse."""
    factorizations = record_factorizations(monkeypatch,
                                           disc16.p2.dof_count - 1)
    levels = []

    def viscosity(c):
        c = np.asarray(c, dtype=float)
        levels.append(1)
        if len(levels) == 1:
            return np.ones(c.shape)
        # 0.3 on the odd cells at level 1 and on the even ones at level 2
        low = np.arange(c.shape[0]) % 2 == (len(levels) + 1) % 2
        return np.where(low[:, None], 0.3, 3.3) + 0.0 * c

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


def test_solver_failure_is_reported(disc16, monkeypatch):
    """A pressure CG that stops short of its tolerance fails its step."""
    def stalled(A, b, **kwargs):
        return np.zeros_like(b), SolveReport(0, 1.0, False)

    monkeypatch.setattr(timestepping, "cg_deflated", stalled)
    coeffs = make_coefficients(disc16)
    grid = TimeGrid(final_time=1.0, num_steps=2)
    with pytest.raises(StepFailure) as info:
        initialize(disc16, coeffs, grid)
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
def test_each_step_factors_its_own_transport_matrix(disc16, monkeypatch,
                                                    case):
    """Every step factors its own transport matrix in the pattern's band
    storage: the symmetric positive definite one of the disk-trig case
    (no advection, direct form) with a band Cholesky, the nonsymmetric
    one of an anisotropic plume in skew form with a band LU.  The solve
    either gives is that matrix's exact solve, so GMRES reports one
    iteration."""
    if case == "disk-trig":
        coeffs, mode = problem_coefficients(disk_trig_case()), "direct"
    else:
        coeffs = make_coefficients(
            disc16, dispersion=DispersionParams(gamma_dm=0.002, alpha_l=0.01,
                                                alpha_t=0.001),
            initial_concentration=lambda x, y: 0.4 * np.exp(
                -50.0 * ((x - 0.35) ** 2 + (y - 0.5) ** 2)))
        mode = "skew"
    calls = []

    def recording(method):
        original = getattr(solvers.BandOrdering, method)

        def factor(band, matrix):
            solve = original(band, matrix)
            calls.append((method, matrix, solve))
            return solve
        return factor

    for method in ("cholesky", "lu"):
        monkeypatch.setattr(solvers.BandOrdering, method, recording(method))
    grid = TimeGrid(final_time=0.25, num_steps=16)
    state = initialize(disc16, coeffs, grid)
    for _ in range(3):
        state = step(disc16, coeffs, grid, state, mode=mode)
        assert state.concentration_report.iterations == 1
        assert state.concentration_report.relative_residual < 1e-12
    assert len(calls) == 3
    rng = np.random.default_rng(0)
    for method, matrix, solve in calls:
        assert method == ("cholesky" if case == "disk-trig" else "lu")
        defect = abs(matrix - matrix.T).max()
        assert (defect == 0.0) == (case == "disk-trig")
        b = rng.standard_normal(matrix.shape[0])
        np.testing.assert_allclose(solve(b),
                                   np.linalg.solve(matrix.toarray(), b),
                                   rtol=1e-10, atol=1e-12)
    assert not np.array_equal(calls[0][1].data, calls[1][1].data)


def test_transport_without_convection_is_exactly_symmetric(monkeypatch):
    """The disk-trig transport matrix, which holds no convection term, is
    symmetric bit for bit at every step of a march on M=64, as the band
    Cholesky that factors it reads only its lower triangle."""
    matrices = []
    original = timestepping.assemble_concentration

    def recording(*args):
        system = original(*args)
        matrices.append(system.matrix)
        return system

    monkeypatch.setattr(timestepping, "assemble_concentration", recording)
    disc = build_discretization(generate_disk_mesh(M=64))
    run(disc, problem_coefficients(disk_trig_case()),
        TimeGrid(final_time=0.125, num_steps=4))
    assert len(matrices) == 4
    transpose = disc.p1_pattern.transpose
    for A in matrices:
        assert np.array_equal(A.data, A.data[transpose])


def test_one_ordering_per_pattern(monkeypatch):
    """The transport pattern's band ordering is computed by
    ``initialize``, not by ``build_discretization``, and kept: two runs
    on one discretization order it once, and each of their eight steps
    factors its matrix in band storage."""
    disc = build_discretization(generate_disk_mesh(M=16))
    assert "band" not in vars(disc.p1_pattern)
    orderings, factorizations = [], []
    order, factor = solvers.reverse_cuthill_mckee, solvers.dgbtrf

    def ordering(graph, **kwargs):
        orderings.append(graph.shape[0])
        return order(graph, **kwargs)

    def factoring(band, *args, **kwargs):
        factorizations.append(band.shape[1])
        return factor(band, *args, **kwargs)

    monkeypatch.setattr(solvers, "reverse_cuthill_mckee", ordering)
    monkeypatch.setattr(solvers, "dgbtrf", factoring)
    coeffs = make_coefficients(disc)
    grid = TimeGrid(final_time=0.1, num_steps=4)
    initialize(disc, coeffs, grid)
    n = disc.p1.dof_count
    assert orderings == [n]
    run(disc, coeffs, grid)
    run(disc, coeffs, grid, mode="skew")
    assert orderings == [n]
    assert factorizations == [n] * 8


def deflated_residual(disc, A, b, x):
    """||P(b - A P x)|| / ||P b||, the residual CG reads from a start x."""
    m = disc.p2_basis_integrals

    def project(v):
        return v - (m @ v) / (m @ m) * m
    return np.linalg.norm(project(b - A @ project(x))) / np.linalg.norm(
        project(b))


def test_pressure_cg_starts_from_the_window_of_recent_pressures(
        disc16, monkeypatch):
    """The CG of pressure level 0 starts from zero; that of every later
    level n from a start whose deflated residual is at most that of
    p(n-1) and of the extrapolation 2 p(n-1) - p(n-2), up to rounding.
    Each level keeps a window of its own pressure and those of the levels
    before it, newest first, at most PRESSURE_WINDOW of them."""
    solves = []
    original = timestepping.cg_deflated

    def recording(A, b, x0=None, **kwargs):
        solves.append((A, b, x0))
        return original(A, b, x0=x0, **kwargs)

    monkeypatch.setattr(timestepping, "cg_deflated", recording)
    coeffs = make_coefficients(
        disc16, viscosity=lambda c: 1.0 + 0.5 * np.asarray(c, dtype=float),
        viscosity_bounds=(0.5, 2.0),
        initial_concentration=lambda x, y: 0.4 + 0.2 * x * y)
    levels = []
    run(disc16, coeffs, TimeGrid(final_time=0.5, num_steps=11),
        observers=[lambda state: levels.append(state.level)])
    p = [level.pressure for level in levels]
    assert len(solves) == len(levels) == 12 and solves[0][2] is None
    window = timestepping.PRESSURE_WINDOW
    assert window == 8
    for n, level in enumerate(levels):
        assert len(level.window) == min(n + 1, window)
        assert all(w is p[n - j] for j, w in enumerate(level.window))
    for n in range(1, len(levels)):
        A, b, x0 = solves[n]
        start = deflated_residual(disc16, A, b, x0)
        candidates = [p[n - 1]] + ([2.0 * p[n - 1] - p[n - 2]] if n > 1
                                   else [])
        for x in candidates:
            assert start <= (1.0 + 1e-8) * deflated_residual(disc16, A, b, x)


def test_time_independent_pressure_takes_no_cg_iterations(disc16):
    """With a constant viscosity and time-independent pressure data every
    level solves the system of level 0, whose pressure is in the window:
    the start is that solution, and CG takes no iteration after level 0."""
    _, history = run(disc16, make_coefficients(disc16),
                     TimeGrid(final_time=0.5, num_steps=10))
    iterations = [rec.pressure_iterations for rec in history]
    assert iterations[0] > 0 and iterations[1:] == [0] * 10


def test_singular_matrices_fail_the_step(disc8):
    """A permeability of zero, which would make the pressure matrix zero,
    is refused before any factorization as a CoefficientBlowupError that
    names step 0 and the permeability.  A transport matrix that a
    porosity and molecular diffusion small enough round to zero has a
    zero pivot: without convection its Cholesky factorization refuses
    it, and with a convection term that a zero velocity leaves empty its
    LU factorization does.  Either way step 1 fails as a StepFailure
    naming the system."""
    grid = TimeGrid(final_time=1.0, num_steps=2)
    coeffs = make_coefficients(disc8, permeability=lambda x, y: 0.0 * x * y)
    with pytest.raises(CoefficientBlowupError, match=r"at step 0: "
                       r"permeability gives k/mu in \[0, 0\]"):
        run(disc8, coeffs, grid)
    for coupling, failure in [
            ("none", "Cholesky factorization: pivot 1 is not positive"),
            ("advection", "LU factorization: pivot .* is exactly zero: "
                          "the matrix is singular")]:
        coeffs = make_coefficients(
            disc8, velocity="off", porosity=5e-324,
            velocity_coupling=coupling,
            dispersion=DispersionParams(gamma_dm=5e-324, alpha_l=0.0,
                                        alpha_t=0.0))
        with pytest.raises(StepFailure, match="concentration solve failed "
                           "at step 1: " + failure) as info:
            run(disc8, coeffs, grid)
        assert info.value.step_index == 1 and info.value.report is None


def test_indefinite_symmetric_transport_fails_the_step(disc8, monkeypatch):
    """A transport matrix without convection is factored by Cholesky; one
    that is symmetric but not positive definite (here negated) ends the
    step as a StepFailure naming the pivot, not as a wrong solution."""
    original = timestepping.assemble_concentration

    def negated(*args):
        system = original(*args)
        return replace(system, matrix=-system.matrix)

    monkeypatch.setattr(timestepping, "assemble_concentration", negated)
    with pytest.raises(StepFailure, match="concentration solve failed at "
                       "step 1: Cholesky factorization: pivot 1 is not "
                       "positive: the matrix is not positive definite"):
        run(disc8, problem_coefficients(disk_trig_case()),
            TimeGrid(final_time=0.5, num_steps=2))


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


@pytest.mark.parametrize("change, what", [
    (dict(permeability=lambda x, y: np.full(np.broadcast(x, y).shape,
                                            1e308)),
     "at step 0: pressure matrix is not finite"),
    (dict(dispersion=DispersionParams(1.0, 1e308, 1e308)),
     "at step 1: concentration matrix is not finite"),
    (dict(dispersion=DispersionParams(1e308, 0.1, 0.1)),
     "at step 1: concentration matrix is not finite"),
])
def test_non_finite_matrix_is_a_coefficient_blowup(disc8, change, what):
    """Finite coefficients whose matrix entries overflow end the step
    that assembles them with a CoefficientBlowupError naming the system,
    before any factorization and with no numpy warning first (tier-1
    turns RuntimeWarning into an error)."""
    coeffs = replace(problem_coefficients(disk_trig_case()), **change)
    with pytest.raises(CoefficientBlowupError, match=what):
        run(disc8, coeffs, TimeGrid(final_time=1.0, num_steps=2))


@settings(max_examples=40)
@given(field=st.sampled_from(["permeability", "viscosity", "pressure_source",
                              "concentration_source"]),
       points=st.lists(st.integers(0, 10**4), min_size=1, max_size=4),
       value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_data_ends_in_a_typed_failure(disc8, field, points,
                                                 value):
    expect_typed_failure(
        disc8, poisoned_coefficients(disc8, field, points, value))

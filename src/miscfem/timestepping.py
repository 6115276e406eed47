"""Linearized backward-Euler driver for the coupled system.

Step n transports the concentration with the velocity u(n-1) of the
level before, the lag the scheme prescribes, and then solves the
pressure and velocity of the new concentration c(n)
(:func:`finalize_pressure`).  So every state the driver returns holds
c, p and u of its own time level.  :func:`_solve_pressure` and
:func:`_transport` are the two solves of a step; README "Solver design"
says why each is built as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.sparse.linalg import splu

from .checks import check_number
from .elements import interpolate
from .forms import (CoefficientBlowupError, Discretization,
                    ProblemCoefficients, assemble_concentration,
                    assemble_pressure, check_mode, compute_velocity)
from .solvers import SolveReport, cg_deflated, deflated_start, gmres

# a pressure solve of more CG iterations drops its factor (_solve_pressure)
REFACTOR_ITERATIONS = 10
# the pressures of at most this many levels span each pressure CG start
PRESSURE_WINDOW = 8
# a pressure solve of fewer CG iterations gives the next start the whole
# window (_solve_pressure)
RESIZE_ITERATIONS = 3


class StepFailure(RuntimeError):
    """A linear solve inside one time step did not converge (``report``
    says how far it got, against the relative ``tolerance`` when given),
    or its matrix could not be factored (``report`` is None and
    ``reason`` gives the factorization's error)."""

    def __init__(self, step_index, what, report=None, reason=None,
                 tolerance=None):
        if reason is None:
            reason = (f"residual {report.relative_residual:.3e} after "
                      f"{report.iterations} iterations")
        if tolerance is not None:
            reason += f" (tolerance {tolerance:.3g})"
        super().__init__(f"{what} solve failed at step {step_index}: {reason}")
        self.step_index = step_index
        self.report = report

    def __reduce__(self):
        # rebuild from the message and attributes, not through __init__
        return type(self).__new__, (type(self), *self.args), self.__dict__


def _factor(factorize, method, matrix, step_index, what, **options):
    """``factorize(matrix, **options)``, a ``method`` ("LU" or
    "Cholesky") factorization, whose RuntimeError on a matrix it cannot
    factor fails step ``step_index`` with :class:`StepFailure`."""
    try:
        return factorize(matrix, **options)
    except RuntimeError as exc:
        raise StepFailure(step_index, what,
                          reason=f"{method} factorization: {exc}") from exc


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, final_time] with num_steps steps; final_time
    > 0, and num_steps >= 1 is integral and stored as ``int``."""

    final_time: float
    num_steps: int

    def __post_init__(self):
        check_number("final_time", self.final_time, above=0)
        object.__setattr__(self, "num_steps", check_number(
            "num_steps", self.num_steps, at_least=1, integral=True))

    @property
    def tau(self) -> float:
        return self.final_time / self.num_steps

    def time(self, n: int) -> float:
        # n / num_steps <= 1 first, so no level's time overflows, and the
        # last one is final_time exactly
        return self.final_time * (n / self.num_steps)


@dataclass(frozen=True)
class SolverOptions:
    """Relative tolerances (> 0) of the pressure CG (:func:`_solve_pressure`)
    and of the transport solve (:func:`_transport`)."""

    pressure_tol: float = 1e-11
    concentration_tol: float = 1e-10

    def __post_init__(self):
        check_number("pressure_tol", self.pressure_tol, above=0)
        check_number("concentration_tol", self.concentration_tol, above=0)


@dataclass(frozen=True)
class PressureLevel:
    """The pressure solve at time level ``index`` and what the next
    level's :func:`_solve_pressure` reuses: ``window``, the last
    ``PRESSURE_WINDOW`` pressures up to this one, newest first;
    ``next_window``, how many of them, from the newest, span the next
    level's start; ``factor``, the solve of :func:`_pinned_factor`, with
    ``factor_diagonal``, the diagonal it was built from, or None for both
    when the next level must factor its own matrix."""

    index: int
    pressure: np.ndarray
    velocity: np.ndarray              # (T, Q, 2)
    report: SolveReport
    window: tuple[np.ndarray, ...]
    next_window: int
    factor: Optional[Callable[[np.ndarray], np.ndarray]]
    factor_diagonal: Optional[np.ndarray]


@dataclass(frozen=True)
class TimeStepState:
    """Solution data at time level ``step_index``: the concentration
    after that many transport steps and ``level``, the pressure solve of
    that concentration, whose fields are ``pressure``, ``velocity`` and
    ``pressure_report``."""

    step_index: int
    concentration: np.ndarray
    concentration_report: Optional[SolveReport]
    level: PressureLevel

    @property
    def pressure(self) -> np.ndarray:
        return self.level.pressure

    @property
    def velocity(self) -> np.ndarray:
        return self.level.velocity

    @property
    def pressure_report(self) -> SolveReport:
        return self.level.report


@dataclass(frozen=True)
class StepRecord:
    """One time level of :func:`run`: ``pressure_window`` is the number
    of earlier pressures its pressure CG start spanned, 0 at level 0."""

    step_index: int
    time: float
    concentration_l2: float
    pressure_iterations: int
    concentration_iterations: int
    pressure_window: int


def _pinned_factor(disc, matrix, step_index):
    """The solve r -> x of the bordered Neumann system [[A, m], [m^T, 0]]
    [x, l] = [r, 0], for the pressure matrix A, singular on the constants,
    and the basis integrals m, from an LU factor of A with its last dof
    pinned (Bochev & Lehoucq, SIAM Review 47(1), 2005).  That block is
    symmetric positive definite, so SuperLU factors it with diagonal
    pivots in symmetric mode.  l = sum(r) / sum(m) takes r to
    r - l m, orthogonal to the constants and so in the range of A; the
    pinned solve gives an x with A x = r - l m, and the constant that
    makes m^T x = 0 is subtracted."""
    m = disc.p2_basis_integrals
    total = m.sum()
    # minimum degree on A^T + A fills 35-45 % less than COLAMD here
    lu = _factor(splu, "LU", matrix[:-1, :-1].tocsc(), step_index,
                 "pressure", permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                 options=dict(SymmetricMode=True))

    def solve(r):
        x = np.empty(r.size)
        x[:-1] = lu.solve(r[:-1] - (r.sum() / total) * m[:-1])
        x[-1] = 0.0
        x -= (m @ x) / total
        return x
    return solve


def _solve_pressure(disc, coeffs, grid, c, options, n, last=None):
    """Pressure level n, following ``last`` (None at level 0), for the
    concentration c, with its Darcy velocity; a failed solve or a
    coefficient blow-up names step n.

    CG is preconditioned by s B0 s, B0 the solve of :func:`_pinned_factor`
    for the matrix A0 of the level that built it and
    s = sqrt(diag(A0) / diag(A)) for this level's A: symmetric positive
    definite on m-orthogonal vectors, it follows the drift of k/mu(c).
    CG starts at :func:`~miscfem.solvers.deflated_start` over the newest
    ``last.next_window`` pressures of ``last.window``.  A solve of at
    least ``RESIZE_ITERATIONS`` iterations sizes the next start by that
    start's residuals: it spans one more pressure than the last one that
    at least halved the residual; a solve of fewer leaves it the whole
    window.  A solve of more than ``REFACTOR_ITERATIONS`` iterations drops
    the factor, and the next level factors afresh."""
    try:
        system = assemble_pressure(disc, coeffs, c, grid.time(n))
        diagonal = system.matrix.data.take(disc.p2_pattern.diagonal)
        if last is None or last.factor is None:
            factor = _pinned_factor(disc, system.matrix, n)
            factor_diagonal = diagonal
        else:
            factor, factor_diagonal = last.factor, last.factor_diagonal
        scale = np.sqrt(factor_diagonal / diagonal)

        def precond(r):
            return scale * factor(scale * r)

        x0 = r0 = None
        if last is not None:
            x0, r0, residuals = deflated_start(
                system.matrix, system.rhs, disc.p2_basis_integrals,
                last.window[:last.next_window])
        p, report = cg_deflated(system.matrix, system.rhs,
                                deflate=disc.p2_basis_integrals,
                                rel_tol=options.pressure_tol,
                                x0=x0, r0=r0, precond=precond)
        if not report.converged:
            raise StepFailure(n, "pressure", report,
                              tolerance=options.pressure_tol)
        if report.iterations > REFACTOR_ITERATIONS:
            factor = factor_diagonal = None
        velocity = compute_velocity(disc, system.mobility, p)
    except CoefficientBlowupError as exc:
        raise CoefficientBlowupError(f"at step {n}: {exc}") from None
    window = (p,) + (last.window[:PRESSURE_WINDOW - 1] if last else ())
    next_window = len(window)
    if last is not None and report.iterations >= RESIZE_ITERATIONS:
        halved = np.flatnonzero(residuals[1:] <= 0.5 * residuals[:-1])
        # p itself, then the pressures up to the last that halved it
        next_window = min(next_window,
                          int(halved[-1]) + 2 if halved.size else 1)
    return PressureLevel(n, p, velocity, report, window, next_window,
                         factor=factor, factor_diagonal=factor_diagonal)


def initialize(disc: Discretization, coeffs: ProblemCoefficients,
               grid: TimeGrid,
               options: SolverOptions = SolverOptions()) -> TimeStepState:
    """Interpolate the initial concentration, solve its pressure, and
    order the transport pattern for every step."""
    c0 = interpolate(disc.p1, coeffs.initial_concentration)
    level = _solve_pressure(disc, coeffs, grid, c0, options, 0)
    disc.p1_pattern.band       # computed once and kept
    return TimeStepState(step_index=0, concentration=c0,
                         concentration_report=None, level=level)


def _transport(disc, coeffs, grid, state, mode, options, n):
    """Concentration of step n, transported with the velocity of
    ``state``, and its solve report.  The system and its factor are freed
    on return, before the pressure solve of step n allocates its own."""
    try:
        system = assemble_concentration(disc, coeffs, state.concentration,
                                        state.velocity, grid.tau,
                                        grid.time(n), mode)
    except CoefficientBlowupError as exc:
        raise CoefficientBlowupError(f"at step {n}: {exc}") from None
    # the matrix changes every step with D(u), so each step factors it
    # once in band storage (BandOrdering), and gmres's first correction
    # with that factor is the solution
    band = disc.p1_pattern.band
    method, factorize = (("LU", band.lu) if system.convection
                         else ("Cholesky", band.cholesky))
    precond = _factor(factorize, method, system.matrix, n, "concentration")
    c, c_report = gmres(system.matrix, system.rhs,
                        rel_tol=options.concentration_tol,
                        x0=state.concentration, precond=precond)
    if not c_report.converged:
        raise StepFailure(n, "concentration", c_report,
                          tolerance=options.concentration_tol)
    return c, c_report


def step(disc: Discretization, coeffs: ProblemCoefficients, grid: TimeGrid,
         state: TimeStepState, mode: str = "direct",
         options: SolverOptions = SolverOptions()) -> TimeStepState:
    """Advance one level: the transport solve on the velocity of
    ``state``, then the pressure of the new concentration."""
    n = state.step_index + 1
    if n > grid.num_steps:
        raise ValueError(f"time grid has only {grid.num_steps} steps")
    c, c_report = _transport(disc, coeffs, grid, state, mode, options, n)
    transported = TimeStepState(step_index=n, concentration=c,
                                concentration_report=c_report,
                                level=state.level)
    return finalize_pressure(disc, coeffs, grid, transported, options)


def finalize_pressure(disc: Discretization, coeffs: ProblemCoefficients,
                      grid: TimeGrid, state: TimeStepState,
                      options: SolverOptions = SolverOptions()) -> TimeStepState:
    """The pressure half of a step: ``state`` with the pressure level of
    its own concentration in place of the level before; a state that
    already has it is returned as it is."""
    if state.level.index == state.step_index:
        return state
    return TimeStepState(state.step_index, state.concentration,
                         state.concentration_report, _solve_pressure(
                             disc, coeffs, grid, state.concentration,
                             options, state.step_index, state.level))


def run(disc: Discretization, coeffs: ProblemCoefficients, grid: TimeGrid,
        mode: str = "direct", options: SolverOptions = SolverOptions(),
        observers=()) -> tuple[TimeStepState, list[StepRecord]]:
    """March all steps; returns the final state and per-step records.

    Observers are called with each new state (including the initial one)
    so callers can stream fields to disk without the driver keeping them:
    memory stays O(1) in the number of steps.
    A ``mode`` other than "skew" or "direct" is refused before any work.
    """
    check_mode(mode)
    mass = disc.mass_p1

    def l2(c):
        return float(np.sqrt(max(c @ (mass @ c), 0.0)))

    state = initialize(disc, coeffs, grid, options)
    history = [StepRecord(0, 0.0, l2(state.concentration),
                          state.pressure_report.iterations, 0, 0)]
    for obs in observers:
        obs(state)
    for n in range(1, grid.num_steps + 1):
        window = state.level.next_window
        state = step(disc, coeffs, grid, state, mode, options)
        history.append(StepRecord(n, grid.time(n), l2(state.concentration),
                                  state.pressure_report.iterations,
                                  state.concentration_report.iterations,
                                  window))
        for obs in observers:
            obs(state)
    return state, history

"""Linearized backward-Euler driver for the coupled system.

Step n transports the concentration with the velocity u(n-1) of the
level before, the lag the scheme prescribes, and then solves the
pressure and velocity of the new concentration c(n)
(:func:`finalize_pressure`).  So every state the driver returns holds
c, p and u of its own time level.

The pressure CG is preconditioned by an LU factor of the bordered Neumann
system [[A0, m], [m^T, 0]] (A0 the stiffness at the level it was built,
m the basis integrals), whose solve B0 with right-hand side [r, 0]
inverts the m-deflated stiffness on m-orthogonal vectors.  The factor is
carried from level to level in the state's :class:`PressureLevel`, with
the diagonal of A0, and each later level applies s B0 s with
s = sqrt(diag(A0) / diag(A)), which follows the drift of k/mu(c) in the
matrix A of that level.  CG starts from the extrapolated pressure
2 p(n-1) - p(n-2), so it converges in a few iterations; the factor is
dropped, and built afresh at the next level, once a solve takes more than
``REFACTOR_ITERATIONS`` iterations.

The transport matrix changes its values every step but never its
structure, so its fill-reducing ordering is computed once per sparsity
pattern (:attr:`~miscfem.solvers.SparsityPattern.minimum_degree`), by
:func:`initialize`, and each step factors the reordered matrix in its
natural order.

Memory stays O(1) in the number of steps; anything that must be recorded
along the way goes through observer callables or the returned per-step
norm history.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

from .checks import check_number
from .elements import interpolate
from .forms import (CoefficientBlowupError, Discretization,
                    ProblemCoefficients, assemble_concentration,
                    assemble_pressure, check_mode, compute_velocity)
from .solvers import SYMMETRIC_LU, SolveReport, cg_deflated, gmres

# a pressure solve on a lagged factor that needs more CG iterations than
# this drops the factor; the next pressure level factors its own matrix
REFACTOR_ITERATIONS = 10


class StepFailure(RuntimeError):
    """A linear solve inside one time step did not converge (``report``
    says how far it got), or its matrix could not be factored (``report``
    is None and ``reason`` gives the factorization's error)."""

    def __init__(self, step_index, what, report=None, reason=None):
        if reason is None:
            reason = (f"residual {report.relative_residual:.3e} after "
                      f"{report.iterations} iterations")
        super().__init__(f"{what} solve failed at step {step_index}: {reason}")
        self.step_index = step_index
        self.report = report

    def __reduce__(self):
        # rebuild from the message and attributes, not through __init__
        return type(self).__new__, (type(self), *self.args), self.__dict__


def _factor(matrix, step_index, what, **options) -> SuperLU:
    """``splu(matrix, **options)``; a matrix that cannot be factored (e.g.
    an exactly singular one, or one holding NaN) fails step
    ``step_index`` with :class:`StepFailure`."""
    try:
        return splu(matrix, **options)
    except RuntimeError as exc:
        raise StepFailure(step_index, what,
                          reason=f"LU factorization: {exc}") from exc


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
        return n * self.final_time / self.num_steps


@dataclass(frozen=True)
class SolverOptions:
    """Relative tolerances (> 0) of the pressure CG, preconditioned by a
    lagged sparse LU factor of the bordered Neumann system, and of the
    transport solve: one exact solve with a sparse LU factor of each
    step's matrix plus a true-residual check, with GMRES
    right-preconditioned by that factor as the fallback."""

    pressure_tol: float = 1e-11
    concentration_tol: float = 1e-10

    def __post_init__(self):
        check_number("pressure_tol", self.pressure_tol, above=0)
        check_number("concentration_tol", self.concentration_tol, above=0)


@dataclass(frozen=True)
class PressureLevel:
    """The pressure solve at time level ``index`` and what the next
    level's solve reuses: ``previous``, the pressure one level before
    (None at level 0), for the extrapolated CG start; and ``factor``, the
    LU factor of the bordered system that preconditions the next solve,
    with ``factor_diagonal``, the diagonal of the stiffness it was built
    from, or None for both when that solve must factor its own matrix."""

    index: int
    pressure: np.ndarray
    velocity: np.ndarray              # (T, Q, 2)
    report: SolveReport
    previous: Optional[np.ndarray]
    factor: Optional[SuperLU]
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
    step_index: int
    time: float
    concentration_l2: float
    pressure_iterations: int
    concentration_iterations: int


def _bordered_factor(disc, matrix, step_index) -> SuperLU:
    """LU factor of [[A, m], [m^T, 0]] for the pressure matrix A and the
    basis integrals m; the bordered matrix itself is not kept."""
    m = disc.p2_basis_integrals[:, None]
    bordered = sp.bmat([[matrix, m], [m.T, None]], format="csc")
    # minimum degree on A^T + A fills about half as much as COLAMD here
    return _factor(bordered, step_index, "pressure",
                   permc_spec="MMD_AT_PLUS_A")


def _solve_pressure(disc, coeffs, grid, c, options, n, last=None):
    """Pressure level n, following ``last`` (None at level 0), for the
    concentration c, with its Darcy velocity; a failed solve or a
    coefficient blow-up names step n."""
    try:
        system = assemble_pressure(disc, coeffs, c, grid.time(n))
        diagonal = system.matrix.diagonal()
        if last is None or last.factor is None:
            factor = _bordered_factor(disc, system.matrix, n)
            factor_diagonal = diagonal
        else:
            factor, factor_diagonal = last.factor, last.factor_diagonal
        # the lagged factor B0 of A0, rescaled to this level's k/mu(c):
        # s B0 s with s = sqrt(diag(A0) / diag(A)) is symmetric positive
        # definite on m-orthogonal vectors, and the identity scaling at
        # the factor's own level
        scale = np.sqrt(factor_diagonal / diagonal)

        def precond(r):
            return scale * factor.solve(np.append(scale * r, 0.0))[:-1]

        if last is None:
            x0 = None
        elif last.previous is None:
            x0 = last.pressure
        else:
            x0 = 2.0 * last.pressure - last.previous
        p, report = cg_deflated(system.matrix, system.rhs,
                                deflate=disc.p2_basis_integrals,
                                rel_tol=options.pressure_tol,
                                x0=x0, precond=precond)
        if not report.converged:
            raise StepFailure(n, "pressure", report)
        if report.iterations > REFACTOR_ITERATIONS:
            factor = factor_diagonal = None
        velocity = compute_velocity(disc, system.mobility, p)
    except CoefficientBlowupError as exc:
        raise CoefficientBlowupError(f"at step {n}: {exc}") from None
    return PressureLevel(n, p, velocity, report,
                         previous=None if last is None else last.pressure,
                         factor=factor, factor_diagonal=factor_diagonal)


def initialize(disc: Discretization, coeffs: ProblemCoefficients,
               grid: TimeGrid,
               options: SolverOptions = SolverOptions()) -> TimeStepState:
    """Interpolate the initial concentration, solve its pressure, and
    order the transport pattern for every step."""
    c0 = interpolate(disc.p1, coeffs.initial_concentration)
    level = _solve_pressure(disc, coeffs, grid, c0, options, 0)
    disc.p1_pattern.minimum_degree     # computed once and kept
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
    # the matrix changes every step with D(u) and the convection, and one
    # exact factor of it costs less than a Jacobi-GMRES solve: GMRES's
    # first correction with it is the solution, which GMRES checks by its
    # true residual before it would start a cycle.  The pattern is
    # structurally symmetric, so minimum degree on A^T + A with diagonal
    # pivots fits the symmetric matrix of velocity_coupling="none" and
    # the advective one alike, and fills less than COLAMD; the small
    # nonzero threshold still pivots off a weak diagonal.
    ordering = disc.p1_pattern.minimum_degree
    factor = _factor(ordering.permute(system.matrix), n, "concentration",
                     permc_spec="NATURAL", **SYMMETRIC_LU)

    def precond(v):
        return factor.solve(v[ordering.order])[ordering.position]

    c, c_report = gmres(system.matrix, system.rhs,
                        rel_tol=options.concentration_tol,
                        x0=state.concentration, precond=precond)
    if not c_report.converged:
        raise StepFailure(n, "concentration", c_report)
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
    return replace(state, level=_solve_pressure(
        disc, coeffs, grid, state.concentration, options, state.step_index,
        state.level))


def run(disc: Discretization, coeffs: ProblemCoefficients, grid: TimeGrid,
        mode: str = "direct", options: SolverOptions = SolverOptions(),
        observers=()) -> tuple[TimeStepState, list[StepRecord]]:
    """March all steps; returns the final state and per-step records.

    Observers are called with each new state (including the initial one)
    so callers can stream fields to disk without the driver keeping them.
    A ``mode`` other than "skew" or "direct" is refused before any work.
    """
    check_mode(mode)
    mass = disc.mass_p1

    def l2(c):
        return float(np.sqrt(max(c @ (mass @ c), 0.0)))

    state = initialize(disc, coeffs, grid, options)
    history = [StepRecord(0, 0.0, l2(state.concentration),
                          state.pressure_report.iterations, 0)]
    for obs in observers:
        obs(state)
    for n in range(1, grid.num_steps + 1):
        state = step(disc, coeffs, grid, state, mode, options)
        history.append(StepRecord(n, grid.time(n), l2(state.concentration),
                                  state.pressure_report.iterations,
                                  state.concentration_report.iterations))
        for obs in observers:
            obs(state)
    return state, history

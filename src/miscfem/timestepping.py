"""Linearized backward-Euler driver for the coupled system.

Each step lags the pressure/velocity pair one level behind the transported
concentration: the state after n steps carries the pressure at level n-1
(the one the n-th transport solve used) and the concentration at level n.
``run`` finishes with one extra pressure solve so the final state also has
the end-time pressure and velocity.

The pressure CG is preconditioned by an LU factor of the bordered Neumann
system [[A, m], [m^T, 0]] (A the stiffness, m the basis integrals), whose
solve with right-hand side [r, 0] inverts the m-deflated stiffness on
m-orthogonal vectors.  The factor is built at one level and carried to
the next in the state, so CG converges in a few iterations while the
concentration drifts; it is dropped, and built afresh at the next level,
once a solve takes more than ``REFACTOR_ITERATIONS`` iterations.

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

from .elements import interpolate
from .forms import (CoefficientBlowupError, Discretization,
                    ProblemCoefficients, VelocityField,
                    assemble_concentration, assemble_pressure,
                    compute_velocity)
from .solvers import SolveReport, cg_deflated, gmres

# a pressure solve on a lagged factor that needs more CG iterations than
# this drops the factor; the next pressure level factors its own matrix
REFACTOR_ITERATIONS = 10


class StepFailure(RuntimeError):
    """A linear solve inside one time step did not converge."""

    def __init__(self, step_index, what, report):
        super().__init__(
            f"{what} solve failed at step {step_index}: "
            f"residual {report.relative_residual:.3e} after "
            f"{report.iterations} iterations")
        self.step_index = step_index
        self.report = report


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, final_time] with num_steps steps."""

    final_time: float
    num_steps: int

    def __post_init__(self):
        if self.final_time <= 0:
            raise ValueError("final_time must be positive")
        if int(self.num_steps) != self.num_steps or self.num_steps < 1:
            raise ValueError("num_steps must be a positive integer")

    @property
    def tau(self) -> float:
        return self.final_time / self.num_steps

    def time(self, n: int) -> float:
        return n * self.final_time / self.num_steps


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances of the pressure CG, which is preconditioned by a lagged
    sparse LU factor of the bordered Neumann system, and of the transport
    GMRES, which is right-preconditioned by an exact sparse LU factor of
    each step's matrix, and an iteration cap for both (None: solver
    default)."""

    pressure_tol: float = 1e-11
    concentration_tol: float = 1e-10
    max_iter: Optional[int] = None


@dataclass(frozen=True)
class TimeStepState:
    """Solution data after ``step_index`` transport steps.

    ``pressure``/``velocity`` live at level ``pressure_level`` (normally
    step_index - 1, the lag the scheme prescribes; equal to step_index
    only for the initial state and after ``finalize_pressure``).
    ``pressure_factor`` is the LU factor of the bordered pressure system
    that the next pressure solve uses as its preconditioner, or None when
    that solve must factor its own matrix."""

    step_index: int
    pressure_level: int
    pressure: np.ndarray
    velocity: VelocityField
    concentration: np.ndarray
    pressure_report: SolveReport
    concentration_report: Optional[SolveReport]
    pressure_factor: Optional[SuperLU] = None


@dataclass(frozen=True)
class StepRecord:
    step_index: int
    time: float
    concentration_l2: float
    pressure_iterations: int
    concentration_iterations: int


def _bordered_factor(system) -> SuperLU:
    """LU factor of [[A, m], [m^T, 0]] for the pressure system; the
    bordered matrix itself is not kept."""
    m = system.mass_vector[:, None]
    bordered = sp.bmat([[system.matrix, m], [m.T, None]], format="csc")
    # minimum degree on A^T + A fills about half as much as COLAMD here
    return splu(bordered, permc_spec="MMD_AT_PLUS_A")


def _pressure_and_velocity(disc, coeffs, c, t, options, n, x0=None,
                           factor=None):
    """Pressure solve and Darcy velocity for the concentration c at time t;
    a failed solve or a viscosity blow-up names step n.  ``factor`` is the
    lagged bordered-system factor (None: factor this level's matrix); the
    factor the next level should use is returned with the solution."""
    try:
        system = assemble_pressure(disc, coeffs, c, t)
        if factor is None:
            factor = _bordered_factor(system)
        n2 = system.rhs.size

        def precond(r):
            return factor.solve(np.append(r, 0.0))[:n2]

        p, report = cg_deflated(system.matrix, system.rhs,
                                deflate=system.mass_vector,
                                rel_tol=options.pressure_tol,
                                max_iter=options.max_iter,
                                x0=x0, precond=precond)
        if not report.converged:
            raise StepFailure(n, "pressure", report)
        if report.iterations > REFACTOR_ITERATIONS:
            factor = None
        velocity = compute_velocity(disc, coeffs, c, p,
                                    mobility=system.mobility)
        return p, velocity, report, factor
    except CoefficientBlowupError as exc:
        raise CoefficientBlowupError(f"at step {n}: {exc}") from None


def initialize(disc: Discretization, coeffs: ProblemCoefficients,
               grid: TimeGrid,
               options: SolverOptions = SolverOptions()) -> TimeStepState:
    """Interpolate the initial concentration and solve the initial pressure."""
    c0 = interpolate(disc.p1, coeffs.initial_concentration)
    p0, velocity, report, factor = _pressure_and_velocity(
        disc, coeffs, c0, 0.0, options, 0)
    return TimeStepState(step_index=0, pressure_level=0,
                         pressure=p0, velocity=velocity, concentration=c0,
                         pressure_report=report, concentration_report=None,
                         pressure_factor=factor)


def step(disc: Discretization, coeffs: ProblemCoefficients, grid: TimeGrid,
         state: TimeStepState, mode: str = "direct",
         options: SolverOptions = SolverOptions()) -> TimeStepState:
    """Advance one level: lagged pressure, then the transport solve."""
    n = state.step_index + 1
    if n > grid.num_steps:
        raise ValueError(f"time grid has only {grid.num_steps} steps")

    if state.pressure_level == state.step_index:
        # pressure at the lagged level is already in the state
        p, velocity, p_report, p_factor = (state.pressure, state.velocity,
                                           state.pressure_report,
                                           state.pressure_factor)
    else:
        p, velocity, p_report, p_factor = _pressure_and_velocity(
            disc, coeffs, state.concentration, grid.time(state.step_index),
            options, n, x0=state.pressure, factor=state.pressure_factor)

    system = assemble_concentration(disc, coeffs, state.concentration,
                                    velocity, grid.tau, grid.time(n), mode)
    # the matrix changes every step with D(u) and the convection, and one
    # exact factor of it costs less than a Jacobi-GMRES solve
    factor = splu(system.matrix.tocsc())
    c, c_report = gmres(system.matrix, system.rhs,
                        rel_tol=options.concentration_tol,
                        max_iter=options.max_iter,
                        x0=state.concentration, precond=factor.solve)
    if not c_report.converged:
        raise StepFailure(n, "concentration", c_report)

    return TimeStepState(step_index=n, pressure_level=n - 1,
                         pressure=p, velocity=velocity, concentration=c,
                         pressure_report=p_report, concentration_report=c_report,
                         pressure_factor=p_factor)


def finalize_pressure(disc: Discretization, coeffs: ProblemCoefficients,
                      grid: TimeGrid, state: TimeStepState,
                      options: SolverOptions = SolverOptions()) -> TimeStepState:
    """Extra pressure solve so pressure and concentration share a level."""
    if state.pressure_level == state.step_index:
        return state
    p, velocity, report, factor = _pressure_and_velocity(
        disc, coeffs, state.concentration, grid.time(state.step_index),
        options, state.step_index, x0=state.pressure,
        factor=state.pressure_factor)
    return replace(state, pressure_level=state.step_index, pressure=p,
                   velocity=velocity, pressure_report=report,
                   pressure_factor=factor)


def run(disc: Discretization, coeffs: ProblemCoefficients, grid: TimeGrid,
        mode: str = "direct", options: SolverOptions = SolverOptions(),
        observers=()) -> tuple[TimeStepState, list[StepRecord]]:
    """March all steps; returns the finalized state and per-step records.

    Observers are called with each new state (including the initial one)
    so callers can stream fields to disk without the driver keeping them.
    """
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
    state = finalize_pressure(disc, coeffs, grid, state, options)
    return state, history

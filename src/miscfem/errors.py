"""Error norms against closed-form fields.

Spatial norms integrate with the discretization's quadrature rule; the
max norm is approximated over all quadrature points plus the Lagrange
nodes (no per-element optimization), which under-reports the true max
by O(h^2) -- below the resolution of a convergence table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import Discretization


@dataclass(frozen=True)
class ErrorRecord:
    """Errors of one time level n against the exact fields at t_n."""

    step_index: int
    time: float
    c_l2: float
    c_linf: float
    c_h1semi: float
    u_l2: float
    u_linf: float
    p_l2: float
    p_grad_l4: float


def error_scalar(disc: Discretization, dofmap, coeffs, exact, t: float,
                 norm: str = "l2", exact_grad=None, q: float = 2.0) -> float:
    """Norm of (finite element field - exact(x, y, t)).

    norm = "l2"     : quadrature L2 norm of the difference
           "linf"   : max of |difference| over quadrature points and nodes
           "gradlq" : L^q norm of the gradient difference (q=2 gives the
                      H1 seminorm); requires exact_grad(x, y, t) -> (..., 2)
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    x, y = disc.quad_points[..., 0], disc.quad_points[..., 1]
    if norm == "l2":
        diff = disc.field_at_quad(dofmap, coeffs) - exact(x, y, t)
        return float(np.sqrt(np.sum(disc.cell_weights * diff ** 2)))
    if norm == "linf":
        diff = np.abs(disc.field_at_quad(dofmap, coeffs) - exact(x, y, t))
        nodes = dofmap.dof_coords
        node_diff = np.abs(coeffs - exact(nodes[:, 0], nodes[:, 1], t))
        return float(max(diff.max(), node_diff.max()))
    if norm == "gradlq":
        if exact_grad is None:
            raise ValueError("gradient norm needs exact_grad")
        if q <= 1:
            raise ValueError(f"gradient norm exponent must exceed 1, got {q}")
        diff = disc.gradient_at_quad(dofmap, coeffs) - exact_grad(x, y, t)
        mag = np.hypot(diff[..., 0], diff[..., 1])
        return float(np.sum(disc.cell_weights * mag ** q) ** (1.0 / q))
    raise ValueError(f"unknown norm {norm!r}")


def error_velocity(disc: Discretization, velocity: np.ndarray, exact,
                   t: float, norm: str = "l2") -> float:
    """Norm of the Darcy velocity error at the volume quadrature points.

    ``velocity`` holds the (T, Q, 2) values there; exact(x, y, t) must
    return vectors of shape (..., 2); the max norm takes the largest
    pointwise Euclidean magnitude of the difference.
    """
    x, y = disc.quad_points[..., 0], disc.quad_points[..., 1]
    diff = velocity - exact(x, y, t)
    mag2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
    if norm == "l2":
        return float(np.sqrt(np.sum(disc.cell_weights * mag2)))
    if norm == "linf":
        return float(np.sqrt(mag2.max()))
    raise ValueError(f"unknown norm {norm!r}")


def observed_orders(errors, ratio: float = 2.0) -> np.ndarray:
    """Pairwise convergence orders log(e_i / e_{i+1}) / log(ratio).

    The last entry is the headline order of a refinement table.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size < 2:
        raise ValueError("need at least two errors")
    if np.any(errors <= 0):
        raise ValueError("errors must be positive")
    return np.log(errors[:-1] / errors[1:]) / np.log(ratio)


def measure_errors(disc: Discretization, state, grid, sol) -> ErrorRecord:
    """All-column :class:`ErrorRecord` of a driver state against a
    closed-form benchmark solution.

    Every field is compared at the state's time level.  The discrete
    pressure has zero mean, so the exact pressure is shifted by its
    quadrature mean over the mesh before comparison.
    """
    t = grid.time(state.step_index)

    c_l2 = error_scalar(disc, disc.p1, state.concentration,
                        sol.concentration, t, "l2")
    c_linf = error_scalar(disc, disc.p1, state.concentration,
                          sol.concentration, t, "linf")
    c_h1 = error_scalar(disc, disc.p1, state.concentration,
                        sol.concentration, t, "gradlq",
                        exact_grad=sol.concentration_grad, q=2.0)
    u_l2 = error_velocity(disc, state.velocity, sol.velocity, t, "l2")
    u_linf = error_velocity(disc, state.velocity, sol.velocity, t, "linf")

    x, y = disc.quad_points[..., 0], disc.quad_points[..., 1]
    area = float(disc.cell_weights.sum())
    p_mean = float(np.sum(disc.cell_weights * sol.pressure(x, y, t))) / area

    def shifted_pressure(xx, yy, tt):
        return sol.pressure(xx, yy, tt) - p_mean

    p_l2 = error_scalar(disc, disc.p2, state.pressure, shifted_pressure,
                        t, "l2")
    p_grad_l4 = error_scalar(disc, disc.p2, state.pressure, shifted_pressure,
                             t, "gradlq", exact_grad=sol.pressure_grad,
                             q=4.0)
    return ErrorRecord(step_index=state.step_index, time=t,
                       c_l2=c_l2, c_linf=c_linf, c_h1semi=c_h1,
                       u_l2=u_l2, u_linf=u_linf,
                       p_l2=p_l2, p_grad_l4=p_grad_l4)

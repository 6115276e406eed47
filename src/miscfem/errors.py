"""Error norms against closed-form fields, in one pass over a state.

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


def observed_orders(errors, refinement) -> np.ndarray:
    """Pairwise convergence orders log(e_i / e_{i+1}) / log(r_i / r_{i+1})
    of a table whose row i has error e_i at mesh width or time step r_i.

    The last entry is the headline order of a refinement table.
    """
    errors = np.asarray(errors, dtype=np.float64)
    refinement = np.asarray(refinement, dtype=np.float64)
    if errors.size < 2:
        raise ValueError("need at least two errors")
    if np.any(errors <= 0) or np.any(refinement <= 0):
        raise ValueError("errors and refinement values must be positive")
    ratios = refinement[:-1] / refinement[1:]
    if np.any(ratios == 1.0):
        raise ValueError("a refinement pair of ratio 1 has no order")
    return np.log(errors[:-1] / errors[1:]) / np.log(ratios)


def measure_errors(disc: Discretization, state, grid, sol) -> ErrorRecord:
    """All-column :class:`ErrorRecord` of a driver state against a
    closed-form benchmark solution.

    Every field is compared at the state's time level, and each exact
    field is evaluated once.  The discrete pressure has zero mean, so the
    exact pressure is shifted by its quadrature mean over the mesh before
    comparison.  The gradient norms are L^q norms of the pointwise
    Euclidean magnitude (q = 2 gives the H1 seminorm); the velocity max
    norm is the largest such magnitude at the quadrature points.
    """
    t = grid.time(state.step_index)
    x, y = disc.quad_x, disc.quad_y
    w = disc.cell_weights

    def l2(diff):
        return float(np.sqrt(np.sum(w * diff ** 2)))

    def grad_lq(diff, q):
        mag = np.hypot(diff[..., 0], diff[..., 1])
        return float(np.sum(w * mag ** q) ** (1.0 / q))

    c = np.asarray(state.concentration, dtype=np.float64)
    c_diff = disc.field_at_quad(disc.p1, c) - sol.concentration(x, y, t)
    nodes = disc.p1.dof_coords
    node_diff = c - sol.concentration(nodes[:, 0], nodes[:, 1], t)
    c_grad_diff = (disc.gradient_at_quad(disc.p1, c)
                   - sol.concentration_grad(x, y, t))

    u_diff = state.velocity - sol.velocity(x, y, t)
    u_mag2 = u_diff[..., 0] ** 2 + u_diff[..., 1] ** 2

    p = np.asarray(state.pressure, dtype=np.float64)
    p_exact = sol.pressure(x, y, t)
    p_mean = float(np.sum(w * p_exact)) / float(w.sum())
    p_diff = disc.field_at_quad(disc.p2, p) - (p_exact - p_mean)
    p_grad_diff = disc.gradient_at_quad(disc.p2, p) - sol.pressure_grad(x, y, t)

    return ErrorRecord(
        step_index=state.step_index, time=t,
        c_l2=l2(c_diff),
        c_linf=float(max(np.abs(c_diff).max(), np.abs(node_diff).max())),
        c_h1semi=grad_lq(c_grad_diff, 2.0),
        u_l2=float(np.sqrt(np.sum(w * u_mag2))),
        u_linf=float(np.sqrt(u_mag2.max())),
        p_l2=l2(p_diff), p_grad_l4=grad_lq(p_grad_diff, 4.0))

"""Weak-form assembly for the coupled pressure/transport system.

The scheme discretizes, on a triangulated disk with no-flux walls,

    -div( (k(x)/mu(c)) grad p ) = q_I - q_P + f,
    gamma dc/dt - div( D(u) grad c ) + u . grad c
        + (optionally) reaction from q_I + q_P                 = chat q_I + g,
    u = -(k(x)/mu(c)) grad p,

with pressure in quadratic Lagrange elements (determined up to a constant,
fixed weakly through its mean) and concentration in linear elements.
Convection can enter either in skew-symmetric split form

    1/2 (u . grad c, w) - 1/2 (u c, grad w) + 1/2 ((q_I + q_P) c, w)
        + 1/2 boundary correction (u.n c, w),

which preserves the discrete L2 budget exactly, or in plain "direct" form
(u . grad c, w), which is the right choice when manufactured sources make
div u differ from q_I - q_P.  A problem may also carry no advective term
at all (``velocity_coupling="none"``): the velocity then enters transport
only through the dispersion coefficient, and no convection matrix is
assembled.

The Darcy velocity reaches transport only at the volume quadrature
points, through D(u) and the convection term; the skew boundary
correction takes u.n from the prescribed ``pressure_flux`` datum, so no
velocity trace on the boundary is ever formed.

A ``Discretization`` bundles everything reusable across time steps:
dof maps, quadrature tabulations, per-triangle affine geometry, the
sparsity patterns of both systems, the (time-independent) linear mass
matrix, the quadratic load vector of basis integrals, and the
boundary-edge traces of the bases that the wall-flux terms need.  The
mesh and the dof maps never change, so neither does the structure of
either matrix: each assembly sums its cell blocks into the slots of its
pattern (see :class:`~miscfem.solvers.SparsityPattern`), and no step
converts triplets to CSR.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .dispersion import DispersionParams, dispersion_matrices
from .elements import (DofMap, build_dofmap, edge_quadrature, quadrature_rule,
                       reference_basis, triangle_geometry)
from .meshing import Mesh
# from_triplets is no longer called here, but the benchmark's span
# recorder (perfbench/spans.py) rebinds this name
from .solvers import (SparsityPattern, from_triplets,  # noqa: F401
                      sparsity_pattern)


class CoefficientBlowupError(RuntimeError):
    """Viscosity left its admissible band, so the transported
    concentration has overshot far enough that the coefficient model is
    meaningless; or the permeability made k/mu zero, negative or not
    finite; or the data made a load vector not finite."""


@dataclass(frozen=True)
class ProblemCoefficients:
    """Physical data of one displacement problem.

    Callables take numpy arrays; time-dependent fields take (x, y, t).
    ``None`` for a source/flux means identically zero (and is skipped in
    assembly).  ``viscosity_bounds = (mu_min, mu_max)`` is the physical
    band of mu; assembly fails with :class:`CoefficientBlowupError` when
    evaluated viscosities leave [mu_min/2, 2*mu_max], or when k/mu is not
    positive and finite at some quadrature point.
    """

    permeability: Callable          # k(x, y) > 0
    viscosity: Callable             # mu(c) > 0
    viscosity_bounds: tuple
    porosity: float                 # gamma > 0
    dispersion: DispersionParams
    initial_concentration: Callable  # c0(x, y)
    injection: Optional[Callable] = None          # q_I(x, y, t) >= 0
    production: Optional[Callable] = None         # q_P(x, y, t) >= 0
    injected_concentration: Optional[Callable] = None  # chat(x, y, t)
    pressure_source: Optional[Callable] = None    # f(x, y, t)
    concentration_source: Optional[Callable] = None    # g(x, y, t)
    # wall data take the outward unit normal of the discrete boundary as
    # two extra arguments: flux(x, y, t, nx, ny).  Evaluating against the
    # mesh's own normals keeps the Neumann datum exactly compatible with
    # the divergence theorem on the polygonal domain.
    pressure_flux: Optional[Callable] = None      # u.n on the wall
    concentration_flux: Optional[Callable] = None  # D grad c . n on the wall
    # How the transport equation couples to the Darcy velocity:
    # "advection" gives the u . grad c term of the displacement model;
    # "none" drops the advective term entirely, leaving the velocity to
    # act only through the dispersion coefficient D(u) (and through
    # mu(c) on the pressure side).
    velocity_coupling: str = "advection"

    def __post_init__(self):
        porosity = self.porosity
        if isinstance(porosity, bool) or not 0 < porosity < math.inf:
            raise ValueError("porosity must be a positive finite number")
        lo, hi = self.viscosity_bounds
        if not (0 < lo <= hi):
            raise ValueError("viscosity bounds must satisfy 0 < lo <= hi")
        if self.velocity_coupling not in ("advection", "none"):
            raise ValueError(
                f"unknown velocity coupling {self.velocity_coupling!r}")


@dataclass(frozen=True)
class VelocityField:
    """Darcy velocity at the volume quadrature points of every cell, the
    only place assembly and the error norms read it."""

    cell_values: np.ndarray        # (T, Q, 2)


@dataclass(frozen=True)
class PressureSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    mass_vector: np.ndarray        # integrals of the quadratic basis
    compatibility_defect: float    # |sum(rhs)|, zero for compatible data
    mobility: np.ndarray           # (T, Q) k/mu(c_prev); the velocity reuses it


@dataclass(frozen=True)
class ConcentrationSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray


@dataclass(frozen=True)
class Discretization:
    """Geometry- and space-dependent data reused across all time steps.

    ``p1_pattern`` and ``p2_pattern`` are the fixed sparsity patterns of
    the transport and pressure matrices, built from the dof maps; the
    ``edge_*`` arrays tabulate the boundary edges, each in its owning
    triangle's reference frame; they carry the wall-flux terms of both
    systems and the skew boundary correction, which assembly adds into
    the owner cells' blocks before the one cell scatter per system."""

    mesh: Mesh
    p1: DofMap
    p2: DofMap
    cell_weights: np.ndarray       # (T, Q) quadrature weight * |det J|
    quad_points: np.ndarray        # (T, Q, 2) physical coordinates
    p1_values: np.ndarray          # (Q, 3)
    p2_values: np.ndarray          # (Q, 6)
    p1_grads: np.ndarray           # (T, 3, 2) physical gradients (constant in q)
    p2_grads: np.ndarray           # (T, 6, Q, 2) C-contiguous
    mass_local: np.ndarray         # (T, 3, 3) linear element mass blocks
    mass_p1: sp.csr_matrix
    p2_basis_integrals: np.ndarray
    p1_pattern: SparsityPattern
    p2_pattern: SparsityPattern
    edge_weights: np.ndarray       # (B, Qe) arc weight * edge length
    edge_points: np.ndarray        # (B, Qe, 2)
    edge_p1_values: np.ndarray     # (B, Qe, 3) traces of the owner's basis
    edge_p2_values: np.ndarray     # (B, Qe, 6)

    def p2_gradient(self, p_coeffs: np.ndarray) -> np.ndarray:
        """Gradient of the quadratic field with nodal values ``p_coeffs``
        at every volume quadrature point, shape (T, Q, 2)."""
        T, Q = self.cell_weights.shape
        local = p_coeffs[self.p2.cell_dofs][:, None, :]
        return (local @ self.p2_grads.reshape(T, 6, 2 * Q)).reshape(T, Q, 2)


def build_discretization(mesh: Mesh, quad_degree: int = 4) -> Discretization:
    """Tabulate bases, geometry and sparsity patterns for a mesh."""
    p1 = build_dofmap(mesh, 1)
    p2 = build_dofmap(mesh, 2)
    rule = quadrature_rule(quad_degree)

    p1_values, p1_ref_grads = reference_basis(1, rule.points)
    p2_values, p2_ref_grads = reference_basis(2, rule.points)
    corners = mesh.vertices[mesh.triangles]
    detJ, invJT = triangle_geometry(corners)

    cell_weights = rule.weights[None, :] * detJ[:, None]
    # the barycentric combination, summed in the order einsum sums it
    lam = rule.points[:, :, None]
    quad_points = (lam[:, 0] * corners[:, None, 0]
                   + lam[:, 1] * corners[:, None, 1]
                   + lam[:, 2] * corners[:, None, 2])
    p1_grads = p1_ref_grads[0] @ invJT.transpose(0, 2, 1)
    # (T, 6, Q, 2) so that the stiffness kernel's (T, 6, 2Q) view is free
    T, Q = cell_weights.shape
    p2_ref_rows = p2_ref_grads.transpose(1, 0, 2).reshape(6 * Q, 2)
    p2_grads = (p2_ref_rows @ invJT.transpose(0, 2, 1)).reshape(T, 6, Q, 2)

    mass_local = np.einsum("tq,qi,qj->tij", cell_weights, p1_values, p1_values)

    p2_pattern = sparsity_pattern(p2.dof_count, p2.cell_dofs)
    # P2 numbers its vertex dofs, which are the P1 dofs, first
    p1_pattern = p2_pattern.leading_block(p1.dof_count, 3)
    mass_p1 = p1_pattern.assemble(mass_local)
    p2_basis_integrals = _scatter(
        p2, np.einsum("tq,qi->ti", cell_weights, p2_values))

    # boundary-edge tabulations in the owning triangle's reference frame
    s, ws = edge_quadrature()
    owner = mesh.triangles[mesh.boundary_tris]
    ends = mesh.boundary_edges
    bary = ((1.0 - s)[None, :, None] * (owner == ends[:, :1])[:, None, :]
            + s[None, :, None] * (owner == ends[:, 1:])[:, None, :])
    edge_p1_values, _ = reference_basis(1, bary)
    edge_p2_values, _ = reference_basis(2, bary)

    pa, pb = mesh.vertices[ends[:, 0]], mesh.vertices[ends[:, 1]]
    lengths = np.hypot(*(pb - pa).T)
    edge_weights = ws[None, :] * lengths[:, None]
    edge_points = pa[:, None, :] + s[None, :, None] * (pb - pa)[:, None, :]

    return Discretization(
        mesh=mesh, p1=p1, p2=p2,
        cell_weights=cell_weights, quad_points=quad_points,
        p1_values=p1_values, p2_values=p2_values,
        p1_grads=p1_grads, p2_grads=p2_grads,
        mass_local=mass_local, mass_p1=mass_p1,
        p2_basis_integrals=p2_basis_integrals,
        p1_pattern=p1_pattern, p2_pattern=p2_pattern,
        edge_weights=edge_weights, edge_points=edge_points,
        edge_p1_values=edge_p1_values, edge_p2_values=edge_p2_values)


def _scatter(dofmap: DofMap, loads: np.ndarray) -> np.ndarray:
    """Global vector from per-cell loads (T, k); shared dofs are summed."""
    return np.bincount(dofmap.cell_dofs.ravel(), weights=loads.ravel(),
                       minlength=dofmap.dof_count)


def _eval_field(func, x, y, t=None):
    out = func(x, y) if t is None else func(x, y, t)
    return np.broadcast_to(np.asarray(out, dtype=np.float64), x.shape)


def _eval_wall_flux(disc, func, t):
    """Evaluate a wall-flux field at the edge quadrature points, feeding it
    the outward normals of the owning boundary edges."""
    ex, ey = disc.edge_points[..., 0], disc.edge_points[..., 1]
    n = disc.mesh.boundary_normals
    out = func(ex, ey, t, n[:, None, 0], n[:, None, 1])
    return np.broadcast_to(np.asarray(out, dtype=np.float64), ex.shape)


def _add_wall_loads(disc, loads, flux, edge_values):
    """Add each boundary edge's load (flux, phi_i) into its owner cell's
    row of the per-cell ``loads``."""
    np.add.at(loads, disc.mesh.boundary_tris,
              np.einsum("bq,bqi->bi", flux * disc.edge_weights, edge_values))


def _mobility(disc, coeffs, c_prev):
    """k/mu(c_prev) at the volume quadrature points from nodal
    concentrations, with the viscosity blow-up guard and a guard that
    k/mu is positive and finite."""
    c_q = np.einsum("qi,ti->tq", disc.p1_values, c_prev[disc.p1.cell_dofs])
    mu = np.asarray(coeffs.viscosity(c_q), dtype=np.float64)
    lo, hi = coeffs.viscosity_bounds
    if not (mu.min() >= 0.5 * lo and mu.max() <= 2.0 * hi):   # NaN too
        raise CoefficientBlowupError(
            f"viscosity range [{mu.min():.6g}, {mu.max():.6g}] left the "
            f"admissible band [{0.5 * lo:.6g}, {2.0 * hi:.6g}]")
    x, y = disc.quad_points[..., 0], disc.quad_points[..., 1]
    mobility = _eval_field(coeffs.permeability, x, y) / mu
    if not (mobility.min() > 0.0 and mobility.max() < math.inf):  # NaN too
        raise CoefficientBlowupError(
            f"permeability gives k/mu in [{mobility.min():.6g}, "
            f"{mobility.max():.6g}], which is not positive and finite")
    return mobility


def assemble_pressure(disc: Discretization, coeffs: ProblemCoefficients,
                      c_prev: np.ndarray, t: float) -> PressureSystem:
    """Stiffness system for the mean-constrained pressure at time t.

    Weak form: ( (k/mu(c_prev)) grad p, grad v ) = ( q_I - q_P + f, v )
    - boundary term from the prescribed wall flux u.n.  A right-hand
    side that is not finite is a :class:`CoefficientBlowupError`; a
    finite one must be compatible (sum ~ 0), and a warning is emitted
    when the defect exceeds 1e-2 of its norm.
    """
    x, y = disc.quad_points[..., 0], disc.quad_points[..., 1]
    mobility = _mobility(disc, coeffs, c_prev)
    # sum over (q, a) of two (T, 6, 2Q) views: one batched matmul
    T = mobility.shape[0]
    weighted = (mobility * disc.cell_weights)[:, None, :, None] * disc.p2_grads
    grads = disc.p2_grads.reshape(T, 6, -1)
    local = weighted.reshape(T, 6, -1) @ grads.transpose(0, 2, 1)
    A = disc.p2_pattern.assemble(local)

    source = np.zeros(x.shape)
    for func, sign in ((coeffs.injection, 1.0), (coeffs.production, -1.0),
                       (coeffs.pressure_source, 1.0)):
        if func is not None:
            source += sign * _eval_field(func, x, y, t)
    loads = np.einsum("tq,qi->ti", source * disc.cell_weights, disc.p2_values)
    if coeffs.pressure_flux is not None:
        _add_wall_loads(disc, loads,
                        -_eval_wall_flux(disc, coeffs.pressure_flux, t),
                        disc.edge_p2_values)
    rhs = _scatter(disc.p2, loads)
    if not np.isfinite(rhs).all():      # before the sum below can warn
        raise CoefficientBlowupError("pressure load vector is not finite")

    defect = abs(float(rhs.sum()))
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm > 0 and defect > 1e-2 * rhs_norm:
        warnings.warn(f"pressure data incompatible: defect {defect:.3e} "
                      f"exceeds 1e-2 * ||rhs|| = {1e-2 * rhs_norm:.3e}",
                      stacklevel=2)
    return PressureSystem(matrix=A, rhs=rhs,
                          mass_vector=disc.p2_basis_integrals,
                          compatibility_defect=defect, mobility=mobility)


def compute_velocity(disc: Discretization, coeffs: ProblemCoefficients,
                     c_prev: np.ndarray, p_coeffs: np.ndarray,
                     mobility: Optional[np.ndarray] = None) -> VelocityField:
    """Darcy velocity -(k/mu(c_prev)) grad p at the quadrature points.

    ``mobility`` is k/mu(c_prev) at the quadrature points when the caller
    already has it (``PressureSystem.mobility`` of the same c_prev); then
    mu(c_prev) is not evaluated again."""
    if mobility is None:
        mobility = _mobility(disc, coeffs, c_prev)
    grad_p = disc.p2_gradient(p_coeffs)
    return VelocityField(cell_values=-mobility[:, :, None] * grad_p)


def assemble_concentration(disc: Discretization, coeffs: ProblemCoefficients,
                           c_prev: np.ndarray, velocity: VelocityField,
                           tau: float, t: float,
                           mode: str = "direct") -> ConcentrationSystem:
    """Backward-Euler transport system at time level t with step tau.

    The unknown is the new concentration; diffusion uses the dispersion
    model evaluated at the lagged velocity, convection enters in the
    chosen form (see module docstring), and the right-hand side carries
    (gamma/tau) M c_prev plus sources chat*q_I + g and the wall flux;
    a right-hand side that is not finite is a
    :class:`CoefficientBlowupError`.
    """
    if tau <= 0:
        raise ValueError(f"time step must be positive, got {tau}")
    if mode not in ("skew", "direct"):
        raise ValueError(f"unknown convection mode {mode!r}")

    gamma = coeffs.porosity
    U = velocity.cell_values
    x, y = disc.quad_points[..., 0], disc.quad_points[..., 1]

    # P1 gradients G are constant per cell, so the diffusion block is
    # G (sum_q w_q D_q) G^T and the convection block (phi w)^T U G^T
    T, Q = disc.cell_weights.shape
    G = disc.p1_grads
    Gt = G.transpose(0, 2, 1)
    D = dispersion_matrices(U, coeffs.dispersion)
    D_cell = disc.cell_weights[:, None, :] @ D.reshape(T, Q, 4)
    local = G @ D_cell.reshape(T, 2, 2) @ Gt

    if coeffs.velocity_coupling == "advection":
        # (T, 3, Q): w_q phi_i(x_q)
        weighted_values = disc.cell_weights[:, None, :] * disc.p1_values.T
        n1 = (weighted_values @ U) @ Gt
        if mode == "skew":
            local += 0.5 * (n1 - n1.transpose(0, 2, 1))
            q_total = np.zeros(x.shape)
            for func in (coeffs.injection, coeffs.production):
                if func is not None:
                    q_total += _eval_field(func, x, y, t)
            if q_total.any():
                local += (0.5 * q_total[:, None, :] * weighted_values
                          @ disc.p1_values)
            if coeffs.pressure_flux is not None:
                flux = _eval_wall_flux(disc, coeffs.pressure_flux, t)
                np.add.at(local, disc.mesh.boundary_tris, np.einsum(
                    "bq,bqi,bqj->bij", 0.5 * flux * disc.edge_weights,
                    disc.edge_p1_values, disc.edge_p1_values))
        else:
            local += n1
    local += (gamma / tau) * disc.mass_local

    A = disc.p1_pattern.assemble(local)

    rhs = (gamma / tau) * (disc.mass_p1 @ c_prev)
    source = np.zeros(x.shape)
    if coeffs.injection is not None and coeffs.injected_concentration is not None:
        source += (_eval_field(coeffs.injected_concentration, x, y, t)
                   * _eval_field(coeffs.injection, x, y, t))
    if coeffs.concentration_source is not None:
        source += _eval_field(coeffs.concentration_source, x, y, t)
    if source.any() or coeffs.concentration_flux is not None:
        loads = np.einsum("tq,qi->ti", source * disc.cell_weights,
                          disc.p1_values)
        if coeffs.concentration_flux is not None:
            _add_wall_loads(
                disc, loads,
                _eval_wall_flux(disc, coeffs.concentration_flux, t),
                disc.edge_p1_values)
        rhs += _scatter(disc.p1, loads)
    if not np.isfinite(rhs).all():
        raise CoefficientBlowupError("concentration load vector is not finite")
    return ConcentrationSystem(matrix=A, rhs=rhs)

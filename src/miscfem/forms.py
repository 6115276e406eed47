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

A :class:`Discretization` bundles everything reusable across time steps.
Each assembly sums its cell blocks, one dense product with a reference
tensor per system (README "Assembly kernels"), into the slots of a
:class:`~miscfem.solvers.SparsityPattern` fixed at set-up.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .checks import check_number
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
    finite; or the data made a matrix or a load vector not finite, or
    the transport matrix singular in floating point; or a row's errors
    against the exact solution are not finite."""


def check_mode(mode: str) -> None:
    """Refuse a convection form other than "skew" and "direct"."""
    if mode not in ("skew", "direct"):
        raise ValueError(f"unknown convection mode {mode!r}")


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
    viscosity_bounds: tuple         # 0 < mu_min <= mu_max
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
    # "advection" (u . grad c) or "none" (see the module docstring)
    velocity_coupling: str = "advection"

    def __post_init__(self):
        check_number("porosity", self.porosity, above=0)
        try:
            lo, hi = self.viscosity_bounds
        except (TypeError, ValueError):
            raise ValueError("viscosity_bounds must be a pair (lo, hi)") from None
        lo = check_number("viscosity_bounds[0]", lo, above=0)
        check_number("viscosity_bounds[1]", hi, at_least=lo)
        if self.velocity_coupling not in ("advection", "none"):
            raise ValueError(
                f"unknown velocity coupling {self.velocity_coupling!r}")


@dataclass(frozen=True)
class PressureSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    mobility: np.ndarray           # (T, Q) k/mu(c_prev); the velocity reuses it


@dataclass(frozen=True)
class ConcentrationSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    # whether the matrix holds a convection term; without one it is
    # (gamma/tau) M plus a D(u)-weighted stiffness, symmetric positive definite
    convection: bool


@dataclass(frozen=True)
class Discretization:
    """Geometry- and space-dependent data reused across all time steps.

    ``p1_pattern`` and ``p2_pattern`` are the fixed sparsity patterns of
    the transport and pressure matrices, built from the dof maps; the
    ``edge_*`` arrays tabulate the boundary edges, each in its owning
    triangle's reference frame; they carry the wall-flux terms of both
    systems and the skew boundary correction, which assembly adds into
    the owner cells' blocks before the one cell scatter per system.
    The six fields after ``p1_grads`` are the per-cell geometry factors
    and reference tensors of README "Assembly kernels"
    (:func:`_gradient_products` orders the entries k).
    ``quad_points``, ``quad_x``, ``quad_y`` and the four edge point and
    normal arrays view ``bytes``, so numpy refuses to make them writable;
    assembly passes these same objects to every coefficient callable at
    every step, so a callable can keep what depends on the points alone,
    found by identity (:class:`~miscfem.manufactured._ProductTable`)."""

    mesh: Mesh
    p1: DofMap
    p2: DofMap
    cell_weights: np.ndarray       # (T, Q) quadrature weight * |det J|
    quad_points: np.ndarray        # (T, Q, 2) physical coordinates, a
    quad_x: np.ndarray             # view of these (T, Q) x and y, each
    quad_y: np.ndarray             # immutable and C-contiguous
    p1_values: np.ndarray          # (Q, 3)
    p2_values: np.ndarray          # (Q, 6)
    p1_ref_grads: np.ndarray       # (3, 2Q) reference gradients, (i, (q, b))
    p2_ref_grads: np.ndarray       # (6, 2Q)
    p1_grads: np.ndarray           # (T, 3, 2) physical gradients (constant in q)
    det_j: np.ndarray              # (T,) |det J|
    metric: np.ndarray             # (T, 3) |det J| J^-1 J^-T
    p1_grad_products: np.ndarray   # (T, 3, 9) |det J| products of p1_grads
    stiffness_tensor: np.ndarray   # (3Q, 36) w_q products of P2 ref grads
    dispersion_weights: np.ndarray  # (4Q, 3) w_q picking D00, D11, D01
    convection_weights: np.ndarray  # (2Q, 6) w_q phi_i(x_q) delta_ab
    mass_local: np.ndarray         # (T, 3, 3) linear element mass blocks
    mass_p1: sp.csr_matrix
    p2_basis_integrals: np.ndarray
    p1_pattern: SparsityPattern
    p2_pattern: SparsityPattern
    edge_weights: np.ndarray       # (B, Qe) arc weight * edge length
    edge_x: np.ndarray             # (B, Qe) edge point coordinates and
    edge_y: np.ndarray             # outward normals, likewise
    edge_nx: np.ndarray
    edge_ny: np.ndarray
    edge_p1_values: np.ndarray     # (B, Qe, 3) traces of the owner's basis
    edge_p2_values: np.ndarray     # (B, Qe, 6)

    def field_at_quad(self, dofmap: DofMap, coeffs: np.ndarray) -> np.ndarray:
        """Values (T, Q) at the volume quadrature points of the P1 or P2
        field (``dofmap``) with nodal values ``coeffs``: one GEMM of the
        cell coefficients with the tabulated basis.  Non-finite
        coefficients give non-finite values and no numpy warning."""
        values = self.p1_values if dofmap.order == 1 else self.p2_values
        with np.errstate(over="ignore", invalid="ignore"):
            return coeffs[dofmap.cell_dofs] @ values.T

    def gradient_at_quad(self, dofmap: DofMap,
                         coeffs: np.ndarray) -> np.ndarray:
        """Gradients (T, Q, 2) of the same field at the same points: one
        GEMM with the reference gradients, then J^-T per cell (rows 1 and
        2 of ``p1_grads`` are J^-1); no numpy warning either."""
        table = self.p1_ref_grads if dofmap.order == 1 else self.p2_ref_grads
        with np.errstate(over="ignore", invalid="ignore"):
            ref = coeffs[dofmap.cell_dofs] @ table
            return ref.reshape(self.quad_points.shape) @ self.p1_grads[:, 1:]


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
    # the barycentric combination, summed in the order einsum sums it,
    # x and y each contiguous, as every coefficient callable receives them
    lam = rule.points
    xy = np.ascontiguousarray(np.moveaxis(corners, -1, 0))[..., None]
    quad_coords = (lam[:, 0] * xy[:, :, 0] + lam[:, 1] * xy[:, :, 1]
                   + lam[:, 2] * xy[:, :, 2])
    p1_grads = p1_ref_grads[0] @ invJT.transpose(0, 2, 1)
    Q = rule.weights.size

    # J^-1 = invJT^T, so grad phi_i . grad phi_j = r_i^T (invJT^T invJT) r_j
    a, b = invJT[:, 0, 0], invJT[:, 0, 1]
    c, d = invJT[:, 1, 0], invJT[:, 1, 1]
    metric = detJ[:, None] * np.column_stack(
        [a * a + c * c, b * b + d * d, a * b + c * d])
    p1_grad_products = detJ[:, None, None] * _gradient_products(p1_grads)
    stiffness_tensor = (rule.weights[:, None, None]
                        * _gradient_products(p2_ref_grads)).reshape(3 * Q, 36)
    dispersion_weights = np.zeros((Q, 4, 3))
    dispersion_weights[:, [0, 3, 1], [0, 1, 2]] = rule.weights[:, None]
    convection_weights = np.zeros((Q, 2, 3, 2))
    for k in range(2):
        convection_weights[:, k, :, k] = rule.weights[:, None] * p1_values

    mass_local = np.einsum("tq,qi,qj->tij", cell_weights, p1_values, p1_values)
    # (w phi_i) phi_j and (w phi_j) phi_i differ in their last bits: the
    # upper triangle, mirrored, keeps the blocks and every matrix that
    # sums them exactly symmetric
    i, j = np.tril_indices(3, -1)
    mass_local[:, i, j] = mass_local[:, j, i]

    p2_pattern = sparsity_pattern(p2.dof_count, p2.cell_dofs)
    # P2 numbers its vertex dofs, which are the P1 dofs, first
    p1_pattern = p2_pattern.leading_block(p1.dof_count, 3)
    mass_p1 = p1_pattern.assemble(mass_local)
    p2_basis_integrals = _scatter(
        p2, np.einsum("tq,qi->ti", cell_weights, p2_values))

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
    # x and y of the edge points, then of their outward normals
    edge_coords = np.empty((4,) + edge_weights.shape)
    edge_coords[:2] = pa.T[..., None] + s * (pb - pa).T[..., None]
    edge_coords[2:] = mesh.boundary_normals.T[..., None]
    # on a bytes object, which no flag can make writable again
    quad_coords, edge_coords = (np.frombuffer(arr.tobytes()).reshape(arr.shape)
                                for arr in (quad_coords, edge_coords))
    quad_x, quad_y = quad_coords
    edge_x, edge_y, edge_nx, edge_ny = edge_coords

    return Discretization(
        mesh=mesh, p1=p1, p2=p2, cell_weights=cell_weights,
        quad_points=np.moveaxis(quad_coords, 0, -1),
        quad_x=quad_x, quad_y=quad_y,
        p1_values=p1_values, p2_values=p2_values,
        p1_ref_grads=p1_ref_grads.transpose(1, 0, 2).reshape(3, 2 * Q),
        p2_ref_grads=p2_ref_grads.transpose(1, 0, 2).reshape(6, 2 * Q),
        p1_grads=p1_grads, det_j=detJ, metric=metric,
        p1_grad_products=p1_grad_products, stiffness_tensor=stiffness_tensor,
        dispersion_weights=dispersion_weights.reshape(4 * Q, 3),
        convection_weights=convection_weights.reshape(2 * Q, 6),
        mass_local=mass_local, mass_p1=mass_p1,
        p2_basis_integrals=p2_basis_integrals,
        p1_pattern=p1_pattern, p2_pattern=p2_pattern,
        edge_weights=edge_weights, edge_x=edge_x, edge_y=edge_y,
        edge_nx=edge_nx, edge_ny=edge_ny,
        edge_p1_values=edge_p1_values, edge_p2_values=edge_p2_values)


def _gradient_products(g: np.ndarray) -> np.ndarray:
    """The products (..., 3, n * n) of gradients g (..., n, 2) that pair
    with the entries 00, 11 and 01 of a symmetric 2x2 matrix K, so that
    g_i^T K g_j = K00 gx_i gx_j + K11 gy_i gy_j
                  + K01 (gx_i gy_j + gy_i gx_j)."""
    n = g.shape[-2]
    i, j = np.divmod(np.arange(n * n), n)
    gx, gy = np.moveaxis(g, -1, 0)
    # C order: the per-step GEMM and einsum on these tables run faster,
    # and a product's rounding depends on its operands' layout
    return np.ascontiguousarray(np.stack(
        [gx[..., i] * gx[..., j], gy[..., i] * gy[..., j],
         gx[..., i] * gy[..., j] + gy[..., i] * gx[..., j]], axis=-2))


def _scatter(dofmap: DofMap, loads: np.ndarray) -> np.ndarray:
    """Global vector from per-cell loads (T, k); shared dofs are summed."""
    return np.bincount(dofmap.cell_dofs.ravel(), weights=loads.ravel(),
                       minlength=dofmap.dof_count)


def _eval_field(func, x, y, *args):
    """``func(x, y, *args)`` as a float64 array of the shape of x: what the
    callable returned when it is one, which assembly only reads, and a
    broadcast of it otherwise."""
    out = func(x, y, *args)
    if (type(out) is np.ndarray and out.dtype == np.float64
            and out.shape == x.shape):
        return out
    return np.broadcast_to(np.asarray(out, dtype=np.float64), x.shape)


def _eval_wall_flux(disc, func, t):
    """Evaluate a wall-flux field at the edge quadrature points, feeding it
    the outward normals of the owning boundary edges."""
    return _eval_field(func, disc.edge_x, disc.edge_y, t, disc.edge_nx,
                       disc.edge_ny)


def _load_vector(disc, dofmap, source, flux, t, sign=1.0):
    """Load vector (source, phi_i) + sign (flux(t), phi_i)_wall on the basis
    of ``dofmap``, for ``source`` at the volume quadrature points and the
    wall-flux callable ``flux`` or None; edge loads join their owners'."""
    values, edge_values = ((disc.p1_values, disc.edge_p1_values)
                           if dofmap.order == 1 else
                           (disc.p2_values, disc.edge_p2_values))
    with np.errstate(over="ignore", invalid="ignore"):  # callers check
        loads = (source * disc.cell_weights) @ values
    if flux is not None:
        g = sign * _eval_wall_flux(disc, flux, t)
        np.add.at(loads, disc.mesh.boundary_tris, np.einsum(
            "bq,bqi->bi", g * disc.edge_weights, edge_values))
    return _scatter(dofmap, loads)


def _mobility(disc, coeffs, c_prev):
    """k/mu(c_prev) at the volume quadrature points from nodal
    concentrations, under the guards of :class:`ProblemCoefficients`."""
    c_q = disc.field_at_quad(disc.p1, c_prev)
    mu = np.asarray(coeffs.viscosity(c_q), dtype=np.float64)
    lo, hi = coeffs.viscosity_bounds
    if not (mu.min() >= 0.5 * lo and mu.max() <= 2.0 * hi):   # NaN too
        raise CoefficientBlowupError(
            f"viscosity range [{mu.min():.6g}, {mu.max():.6g}] left the "
            f"admissible band [{0.5 * lo:.6g}, {2.0 * hi:.6g}]")
    mobility = _eval_field(coeffs.permeability, disc.quad_x,
                           disc.quad_y) / mu
    if not (mobility.min() > 0.0 and mobility.max() < math.inf):  # NaN too
        raise CoefficientBlowupError(
            f"permeability gives k/mu in [{mobility.min():.6g}, "
            f"{mobility.max():.6g}], which is not positive and finite")
    return mobility


def assemble_pressure(disc: Discretization, coeffs: ProblemCoefficients,
                      c_prev: np.ndarray, t: float) -> PressureSystem:
    """Stiffness system for the mean-constrained pressure at time t.

    Weak form: ( (k/mu(c_prev)) grad p, grad v ) = ( q_I - q_P + f, v )
    - boundary term from the prescribed wall flux u.n.  A matrix or
    right-hand side that is not finite is a
    :class:`CoefficientBlowupError`; a finite right-hand side must be
    compatible (sum ~ 0), and a warning is emitted when the defect
    exceeds 1e-2 of its norm.
    """
    x, y = disc.quad_x, disc.quad_y
    mobility = _mobility(disc, coeffs, c_prev)
    T, Q = mobility.shape
    # one metric entry at a time: README "Assembly kernels"
    geometry = np.empty((T, Q, 3))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for k in range(3):
            np.multiply(mobility, disc.metric[:, k, None],
                        out=geometry[:, :, k])
        local = geometry.reshape(T, 3 * Q) @ disc.stiffness_tensor
    A = disc.p2_pattern.assemble(local.reshape(T, 6, 6))
    if not np.isfinite(A.data).all():
        raise CoefficientBlowupError("pressure matrix is not finite")

    source = np.zeros(x.shape)
    for func, sign in ((coeffs.injection, 1.0), (coeffs.production, -1.0),
                       (coeffs.pressure_source, 1.0)):
        if func is not None:
            source += sign * _eval_field(func, x, y, t)
    rhs = _load_vector(disc, disc.p2, source, coeffs.pressure_flux, t, -1.0)
    if not np.isfinite(rhs).all():      # before the sum below can warn
        raise CoefficientBlowupError("pressure load vector is not finite")

    defect = abs(float(rhs.sum()))
    rhs_norm = math.sqrt(rhs @ rhs)     # np.linalg.norm's own formula
    if rhs_norm > 0 and defect > 1e-2 * rhs_norm:
        warnings.warn(f"pressure data incompatible: defect {defect:.3e} "
                      f"exceeds 1e-2 * ||rhs|| = {1e-2 * rhs_norm:.3e}",
                      stacklevel=2)
    return PressureSystem(matrix=A, rhs=rhs, mobility=mobility)


def compute_velocity(disc: Discretization, mobility: np.ndarray,
                     p_coeffs: np.ndarray) -> np.ndarray:
    """Darcy velocity -(k/mu) grad p (T, Q, 2) at the volume quadrature
    points, for ``mobility`` = k/mu there (``PressureSystem.mobility``)."""
    velocity = disc.gradient_at_quad(disc.p2, p_coeffs)
    factor = -mobility
    for k in range(2):      # one component at a time, in place
        velocity[..., k] *= factor
    return velocity


def assemble_concentration(disc: Discretization, coeffs: ProblemCoefficients,
                           c_prev: np.ndarray, velocity: np.ndarray,
                           tau: float, t: float,
                           mode: str = "direct") -> ConcentrationSystem:
    """Backward-Euler transport system at time level t with step tau.

    The unknown is the new concentration; diffusion uses the dispersion
    model evaluated at the lagged ``velocity`` (T, Q, 2) of
    :func:`compute_velocity`, convection enters in the chosen form (see
    module docstring) unless the coupling is "none", and the right-hand
    side carries (gamma/tau) M c_prev plus sources chat*q_I + g and the
    wall flux.  A matrix or right-hand side that is not finite, a
    right-hand side whose 2-norm overflows (as gamma/tau = 1e300 makes
    it), or a matrix in which gamma/tau times the least entry of M is at
    most the machine epsilon times its largest entry (as gamma/tau =
    1e-300 makes it) is a :class:`CoefficientBlowupError`.
    """
    check_number("time step tau", tau, above=0)
    check_mode(mode)

    gamma = coeffs.porosity
    x, y = disc.quad_x, disc.quad_y

    # constant P1 gradients per cell: README "Assembly kernels"
    T, Q = disc.cell_weights.shape
    convection = coeffs.velocity_coupling == "advection"
    skew = mode == "skew" and convection
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        D = dispersion_matrices(velocity, coeffs.dispersion)
        D_cell = D.reshape(T, 4 * Q) @ disc.dispersion_weights
        local = np.einsum("tk,tkn->tn", D_cell,
                          disc.p1_grad_products).reshape(T, 3, 3)
        if convection:
            U = velocity.reshape(T, 2 * Q) @ disc.convection_weights
            U = (disc.det_j[:, None] * U).reshape(T, 3, 1, 2)
            G = disc.p1_grads[:, None, :, :]
            n1 = U[..., 0] * G[..., 0] + U[..., 1] * G[..., 1]
            local += 0.5 * (n1 - n1.transpose(0, 2, 1)) if skew else n1

    if skew:
        q_total = np.zeros(x.shape)
        for func in (coeffs.injection, coeffs.production):
            if func is not None:
                q_total += _eval_field(func, x, y, t)
        if q_total.any():
            phi = disc.p1_values
            products = (phi[:, :, None] * phi[:, None, :]).reshape(Q, 9)
            with np.errstate(over="ignore", invalid="ignore"):
                local += ((0.5 * q_total * disc.cell_weights)
                          @ products).reshape(T, 3, 3)
        if coeffs.pressure_flux is not None:
            flux = _eval_wall_flux(disc, coeffs.pressure_flux, t)
            np.add.at(local, disc.mesh.boundary_tris, np.einsum(
                "bq,bqi,bqj->bij", 0.5 * flux * disc.edge_weights,
                disc.edge_p1_values, disc.edge_p1_values))
    local += (gamma / tau) * disc.mass_local

    A = disc.p1_pattern.assemble(local)
    if not np.isfinite(A.data).all():
        raise CoefficientBlowupError("concentration matrix is not finite")
    # the dispersion stiffness vanishes on constants, so (gamma/tau) M is
    # what keeps A nonsingular; lost in the rounding of A's largest entry
    # (its largest diagonal entry when A is symmetric positive definite),
    # it leaves A singular in floating point
    if ((gamma / tau) * disc.mass_p1.data.min()
            <= np.finfo(np.float64).eps * np.abs(A.data).max()):
        raise CoefficientBlowupError(
            f"concentration matrix is singular in floating point: "
            f"gamma/tau = {gamma / tau:.3g} vanishes beside the dispersion")

    rhs = (gamma / tau) * (disc.mass_p1 @ c_prev)
    source = np.zeros(x.shape)
    if coeffs.injection is not None and coeffs.injected_concentration is not None:
        source += (_eval_field(coeffs.injected_concentration, x, y, t)
                   * _eval_field(coeffs.injection, x, y, t))
    if coeffs.concentration_source is not None:
        source += _eval_field(coeffs.concentration_source, x, y, t)
    if source.any() or coeffs.concentration_flux is not None:
        rhs += _load_vector(disc, disc.p1, source,
                            coeffs.concentration_flux, t)
    if not np.isfinite(rhs).all():
        raise CoefficientBlowupError("concentration load vector is not finite")
    with np.errstate(over="ignore"):
        rhs_norm = math.sqrt(rhs @ rhs)
    if not math.isfinite(rhs_norm):
        # every residual norm of the solve would overflow with it
        raise CoefficientBlowupError(
            f"concentration load vector has a 2-norm beyond the float "
            f"range (gamma/tau = {gamma / tau:.3g})")
    return ConcentrationSystem(matrix=A, rhs=rhs, convection=convection)

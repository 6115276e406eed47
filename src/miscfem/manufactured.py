"""Closed-form benchmark solutions and their manufactured sources.

A :class:`ManufacturedSolution` carries exact pressure/concentration
fields with their analytic first derivatives plus the coefficient laws.
The volumetric sources that force the coupled system to reproduce those
fields involve divergences of coefficient-weighted fluxes.
:func:`manufacture_sources` recovers them with central finite
differences of the analytic fluxes (step ``fd_step``) for any case; it
is the oracle.  :func:`problem_coefficients`, which feeds the driver,
is the same coefficient bundle with the divergences and the wall data a
case gives in closed form instead.  Those are exact where the fluxes
are smooth, but the dispersive flux D(u) grad c is only Lipschitz where
|u| has a kink, and there the finite-difference source is kept: at
points closer than ``fd_step`` to the kink, where the stencil straddles
it.  So ``fd_step`` is both the stencil step and the width of that band,
and changing it can change results.
Wall data follow the assembly contract ``flux(x, y, t, nx, ny)``: the
analytic flux vector at the requested point dotted with whatever outward
normal the caller passes in, so the Neumann data stay exactly compatible
with the divergence theorem on the discrete polygonal domain.

Every time step evaluates the sources and wall fluxes at the same volume
and edge quadrature points, which a
:class:`~miscfem.forms.Discretization` holds on immutable memory.  So
the disk-trig case keeps the time-independent trigonometric products of
its closed forms for those two point sets (:class:`_ProductTable`),
finds them by the identity of the coordinate arrays, and a later call
at those points applies only e^-t and x - t.  Every other call computes
the products afresh, in the same operations, so every callable returns
exactly what a fresh evaluation returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .checks import check_number
from .dispersion import DispersionParams, dispersion_matrices
from .forms import ProblemCoefficients


@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact fields of a benchmark problem on a disk.

    All callables are numpy-vectorized; gradients return (..., 2) arrays
    with the components stacked on the last axis.

    ``velocity_divergence``, ``flux_divergence``, ``normal_velocity``
    and ``normal_flux`` are closed forms derived from the permeability,
    viscosity, dispersion, pressure and concentration fields, and
    ``kink_distance`` from where |u| is not smooth.  A
    ``dataclasses.replace`` that changes any of those fields must replace
    the closed forms with it, or :func:`problem_coefficients` keeps the
    old sources and wall data.  Only ``porosity`` and
    ``velocity_coupling`` are applied to the sources in generic code.

    The closures of :func:`disk_trig_case` share one
    :class:`_ProductTable`, which gives cos x sin y, sin x sin y,
    cos x cos y and (sin x sin y)^2 + (cos x cos y)^2, the only forms in
    which the coordinates' sines and cosines enter c, grad c, dc/dt, the
    two divergences and the two wall data, and keeps them for immutable
    coordinates.  Those depend on the coordinates only, so a ``replace``
    of a field must still replace the closed forms derived from it.
    """

    domain_center: tuple
    domain_radius: float
    porosity: float
    permeability: Callable            # k(x, y)
    viscosity: Callable               # mu(c)
    viscosity_bounds: tuple
    dispersion: DispersionParams
    pressure: Callable                # p(x, y, t)
    pressure_grad: Callable           # (x, y, t) -> (..., 2)
    concentration: Callable           # c(x, y, t)
    concentration_grad: Callable      # (x, y, t) -> (..., 2)
    concentration_dt: Callable        # dc/dt (x, y, t)
    # Closed forms of the two divergences manufacture_sources takes by
    # finite differences, and the distance from a point to where the
    # dispersive flux is not smooth; they must be replaced together with
    # any field they are derived from (see the class docstring).
    velocity_divergence: Callable     # div u (x, y, t)
    flux_divergence: Callable         # div(D grad c) (x, y, t)
    normal_velocity: Callable         # u . n (x, y, t, nx, ny)
    normal_flux: Callable             # D(u) grad c . n (x, y, t, nx, ny)
    kink_distance: Callable           # (x, y, t) -> distance
    velocity_coupling: str = "advection"   # "advection" (u . grad c) or "none"

    def velocity(self, x, y, t):
        """Darcy velocity -(k/mu(c)) grad p, shape (..., 2)."""
        mobility = (self.permeability(x, y)
                    / self.viscosity(self.concentration(x, y, t)))
        return -np.asarray(mobility)[..., None] * self.pressure_grad(x, y, t)

    def concentration_flux(self, x, y, t):
        """Dispersive flux D(u) grad c, shape (..., 2)."""
        D = dispersion_matrices(self.velocity(x, y, t), self.dispersion)
        return np.einsum("...ab,...b->...a", D, self.concentration_grad(x, y, t))


def _immutable(a) -> bool:
    """Whether ``a`` views memory that no flag makes writable again: its
    chain of bases ends in a ``bytes`` object."""
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(a, bytes)


class _ProductTable:
    """cos x sin y, sin x sin y, cos x cos y and (sin x sin y)^2 +
    (cos x cos y)^2 at the points (x, y), taken as float64.

    Only coordinates on immutable memory (see :func:`_immutable`), such
    as a :class:`~miscfem.forms.Discretization`'s, keep their products,
    read-only, and a call that passes those very arrays again gets them
    back.  The last two such point sets are kept: the volume and edge
    points of one discretization.  Any other call computes the products
    afresh."""

    def __init__(self):
        self.entries = []                   # (x, y, products), oldest first

    def __call__(self, x, y) -> tuple:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        for stored_x, stored_y, products in self.entries:
            if stored_x is x and stored_y is y:
                return products
        sin_x, cos_x = np.sin(x), np.cos(x)
        sin_y, cos_y = np.sin(y), np.cos(y)
        cs, ss, cc = cos_x * sin_y, sin_x * sin_y, cos_x * cos_y
        del sin_x, cos_x, sin_y, cos_y      # fewer arrays live at once
        products = tuple(np.asarray(a)
                         for a in (cs, ss, cc, ss * ss + cc * cc))
        if _immutable(x) and _immutable(y):
            for array in products:
                array.flags.writeable = False
            self.entries = self.entries[-1:] + [(x, y, products)]
        return products


def disk_trig_case() -> ManufacturedSolution:
    """Benchmark on the disk of radius 1/2 around (1/2, 1/2):

        p = 100 (x - t)^2 exp(-t),
        c = 1/2 + 1/5 exp(-t) cos(x) sin(y),

    with permeability 2, viscosity mu(c) = 1 + c and the isotropic
    Bear-Scheidegger tensor (1 + |u|/10) I (gamma_dm = 1, alpha_l =
    alpha_t = 1/10).  The concentration stays in [0.3, 0.7], so viscosity
    stays in [1.3, 1.7].

    Transport carries no advective term (``velocity_coupling="none"``):
    the Darcy velocity acts on the concentration only through the
    dispersion coefficient D(u), and on the pressure through mu(c).
    This is deliberate.  The manufactured velocity is strongly divergent
    (div u is of order 10^2) and the wall is no-flux, so the
    concentration mean is controlled by nothing but the transport term
    itself.  An advective term u . grad c is neutral on constants and
    lets the O(h^2) quadrature imbalance of the convection integral
    accumulate into a mean-mode drift that dwarfs every other error
    component; algebraic couplings such as (u_1 + u_2) c or |u| c make
    the constant mode exponentially unstable or degrade its order.
    Dropping the term keeps every error component at the interpolation
    scale of the two fields, which is what this benchmark measures.

    With s = x - t and m = 1/(1 + c) the velocity is u = (-400 s e^-t m, 0),
    so div u = -400 e^-t m (1 - s m c_x).  |u| = 400 |s| e^-t m has a kink
    along x = t, and with Laplacian(c) = -2 (c - 1/2)

        div(D grad c) = (1 + |u|/10) Laplacian(c)
                        + 40 e^-t m (sign(s) c_x - |s| m |grad c|^2).

    On the wall u . n = -400 s e^-t m n_x and
    D grad c . n = (1 + |u|/10) (c_x n_x + c_y n_y).
    """

    table = _ProductTable()

    def pressure(x, y, t):
        return 100.0 * (x - t) ** 2 * np.exp(-t) + 0.0 * y

    def pressure_grad(x, y, t):
        gx = 200.0 * (x - t) * np.exp(-t) + 0.0 * y
        return np.stack([gx, np.zeros_like(gx)], axis=-1)

    def concentration(x, y, t):
        cs, _, _, _ = table(x, y)
        return 0.5 + 0.2 * np.exp(-t) * cs

    def concentration_grad(x, y, t):
        _, ss, cc, _ = table(x, y)
        a = 0.2 * np.exp(-t)
        return np.stack([-a * ss, a * cc], axis=-1)

    def concentration_dt(x, y, t):
        cs, _, _, _ = table(x, y)
        return -0.2 * np.exp(-t) * cs

    def permeability(x, y):
        return np.full(np.broadcast(x, y).shape, 2.0)

    def viscosity(c):
        return 1.0 + np.asarray(c, dtype=np.float64)

    # e^-t leads every product with s = x - t, so a large t gives zero,
    # not an overflow
    def velocity_divergence(x, y, t):
        (cs, ss, _, _), e = table(x, y), np.exp(-t)
        a = 0.2 * e
        m = 1.0 / (1.0 + (0.5 + a * cs))
        return -400.0 * e * m * (1.0 - (x - t) * m * (-a * ss))

    def flux_divergence(x, y, t):
        (cs, ss, _, grad2), e, s = table(x, y), np.exp(-t), x - t
        a = 0.2 * e
        w = a * cs                              # c - 1/2
        m = 1.0 / (1.0 + (0.5 + w))
        g = 40.0 * e * m
        k = g * np.abs(s)                       # |u|/10
        return ((1.0 + k) * (-2.0 * w)
                + g * np.sign(s) * (-a * ss) - k * m * (a * a * grad2))

    def normal_velocity(x, y, t, nx, ny):
        e = np.exp(-t)
        cs, _, _, _ = table(x, y)
        m = 1.0 / (1.0 + (0.5 + 0.2 * e * cs))
        return -400.0 * e * m * (x - t) * nx

    def normal_flux(x, y, t, nx, ny):
        (cs, ss, cc, _), e = table(x, y), np.exp(-t)
        a = 0.2 * e
        m = 1.0 / (1.0 + (0.5 + a * cs))
        k = 40.0 * e * m * np.abs(x - t)        # |u|/10
        return (1.0 + k) * (a * (cc * ny - ss * nx))

    def kink_distance(x, y, t):
        return np.abs(x - t)

    return ManufacturedSolution(
        domain_center=(0.5, 0.5), domain_radius=0.5, porosity=1.0,
        permeability=permeability, viscosity=viscosity,
        viscosity_bounds=(1.3, 1.7),
        dispersion=DispersionParams(gamma_dm=1.0, alpha_l=0.1, alpha_t=0.1),
        pressure=pressure, pressure_grad=pressure_grad,
        concentration=concentration, concentration_grad=concentration_grad,
        concentration_dt=concentration_dt,
        velocity_divergence=velocity_divergence,
        flux_divergence=flux_divergence, normal_velocity=normal_velocity,
        normal_flux=normal_flux, kink_distance=kink_distance,
        velocity_coupling="none")


def fd_divergence(flux, x, y, t, step: float):
    """Central-difference divergence of a (..., 2)-valued flux field."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dx = flux(x + step, y, t)[..., 0] - flux(x - step, y, t)[..., 0]
    dy = flux(x, y + step, t)[..., 1] - flux(x, y - step, t)[..., 1]
    return (dx + dy) / (2.0 * step)


def _normal_component(field):
    """The wall datum field(x, y, t) . n as flux(x, y, t, nx, ny)."""
    def flux(x, y, t, nx, ny):
        value = field(x, y, t)
        return value[..., 0] * nx + value[..., 1] * ny
    return flux


def _transport_source(sol: ManufacturedSolution, flux_divergence):
    """The transport source gamma dc/dt - div(D(u) grad c), plus u . grad c
    under advection coupling, with div(D(u) grad c) given by
    ``flux_divergence(x, y, t)``."""
    def concentration_source(x, y, t):
        base = (sol.porosity * sol.concentration_dt(x, y, t)
                - flux_divergence(x, y, t))
        if sol.velocity_coupling == "none":
            return base
        u = sol.velocity(x, y, t)
        return base + np.einsum("...a,...a->...", u,
                                sol.concentration_grad(x, y, t))
    return concentration_source


def manufacture_sources(sol: ManufacturedSolution,
                        fd_step: float = 1e-5) -> ProblemCoefficients:
    """The benchmark's coefficients with the sources and wall fluxes that
    make the scheme's equations exact, divergences by finite differences.

    With no injection/production wells the forced system reads

        -div( (k/mu(c)) grad p ) = f,
        gamma dc/dt - div( D(u) grad c ) + <velocity term> = g,

    where the velocity term is u . grad c (advection coupling) or absent
    (``velocity_coupling="none"``), so f = div u and g collects the
    remaining terms, both divergences taken by central differences of
    the analytic fluxes.  The result is a complete problem that the
    driver can march, the oracle for :func:`problem_coefficients`.
    """
    check_number("fd_step", fd_step, above=0)

    def initial_concentration(x, y):
        return sol.concentration(x, y, 0.0)

    return ProblemCoefficients(
        permeability=sol.permeability,
        viscosity=sol.viscosity,
        viscosity_bounds=sol.viscosity_bounds,
        porosity=sol.porosity,
        dispersion=sol.dispersion,
        initial_concentration=initial_concentration,
        pressure_source=partial(fd_divergence, sol.velocity, step=fd_step),
        concentration_source=_transport_source(sol, partial(
            fd_divergence, sol.concentration_flux, step=fd_step)),
        pressure_flux=_normal_component(sol.velocity),
        concentration_flux=_normal_component(sol.concentration_flux),
        velocity_coupling=sol.velocity_coupling)


def problem_coefficients(sol: ManufacturedSolution,
                         fd_step: float = 1e-5) -> ProblemCoefficients:
    """Bundle a benchmark and its manufactured sources for the driver.

    This is :func:`manufacture_sources` with the case's closed-form wall
    data in place of the normal components of its fluxes, and its
    closed-form divergences in place of the finite differences, except
    that at points closer than ``fd_step`` to the case's kink the flux
    divergence is the finite difference, bit for bit.  Its smeared value
    there differs from the exact one (by up to 0.07 on the disk-trig
    case), and the mean mode of the no-flux transport, which nothing
    damps, carries that difference into the computed errors.
    """
    def flux_divergence(x, y, t):
        div = sol.flux_divergence(x, y, t)
        band = sol.kink_distance(x, y, t) < fd_step
        if not band.any():
            return div
        div = np.array(div, dtype=np.float64)
        x, y, t, band = np.broadcast_arrays(x, y, t, band)
        div[band] = fd_divergence(sol.concentration_flux,
                                  x[band], y[band], t[band], fd_step)
        return div

    return replace(manufacture_sources(sol, fd_step),
                   pressure_source=sol.velocity_divergence,
                   concentration_source=_transport_source(sol,
                                                          flux_divergence),
                   pressure_flux=sol.normal_velocity,
                   concentration_flux=sol.normal_flux)


def strong_residuals(sol: ManufacturedSolution, coeffs: ProblemCoefficients,
                     x, y, t, fd_step: float = 1e-5):
    """Pointwise residuals of both forced equations.

    Recomputes each term from the solution fields, with divergences by
    central differences of step ``fd_step`` -- independently of the
    closures inside ``coeffs`` -- and subtracts the coefficients'
    sources.  Against :func:`manufacture_sources` with the same step the
    result is pure roundoff; with a different step it measures the
    finite-difference truncation gap.
    """
    res_p = (fd_divergence(sol.velocity, x, y, t, fd_step)
             - coeffs.pressure_source(x, y, t))
    if sol.velocity_coupling == "none":
        coupled = 0.0
    else:
        u = sol.velocity(x, y, t)
        coupled = np.einsum("...a,...a->...", u,
                            sol.concentration_grad(x, y, t))
    res_c = (sol.porosity * sol.concentration_dt(x, y, t)
             - fd_divergence(sol.concentration_flux, x, y, t, fd_step)
             + coupled
             - coeffs.concentration_source(x, y, t))
    return res_p, res_c


CASES = {"disk-trig": disk_trig_case}

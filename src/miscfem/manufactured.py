"""Closed-form benchmark solutions and their manufactured sources.

A :class:`ManufacturedSolution` carries exact pressure/concentration
fields with their analytic first derivatives plus the coefficient laws.
The volumetric sources that force the coupled system to reproduce those
fields involve divergences of coefficient-weighted fluxes.
:func:`manufacture_sources` recovers them with central finite
differences of the analytic fluxes (step ``fd_step``) for any case; it
is the oracle.  :func:`problem_coefficients`, which feeds the driver,
is the same coefficient bundle with the divergences a case gives in
closed form instead.  Those are exact where the fluxes are smooth, but
the dispersive flux D(u) grad c is only Lipschitz where |u| has a kink,
and there the finite-difference source is kept: at points closer than
``fd_step`` to the kink, where the stencil straddles it.  So ``fd_step``
is both the stencil step and the width of that band, and changing it
can change results.
Wall data follow the assembly contract ``flux(x, y, t, nx, ny)``: the
analytic flux vector at the requested point dotted with whatever outward
normal the caller passes in, so the Neumann data stay exactly compatible
with the divergence theorem on the discrete polygonal domain.
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

    ``velocity_divergence`` and ``flux_divergence`` are closed forms
    derived from the permeability, viscosity, dispersion, pressure and
    concentration fields, and ``kink_distance`` from where |u| is not
    smooth.  A ``dataclasses.replace`` that changes any of those fields
    must replace the closed forms with it, or :func:`problem_coefficients`
    keeps the old sources.  Only ``porosity`` and ``velocity_coupling``
    are applied to the sources in generic code.
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
    """

    def pressure(x, y, t):
        return 100.0 * (x - t) ** 2 * np.exp(-t) + 0.0 * y

    def pressure_grad(x, y, t):
        gx = 200.0 * (x - t) * np.exp(-t) + 0.0 * y
        return np.stack([gx, np.zeros_like(gx)], axis=-1)

    def concentration(x, y, t):
        return 0.5 + 0.2 * np.exp(-t) * np.cos(x) * np.sin(y)

    def concentration_grad(x, y, t):
        e = 0.2 * np.exp(-t)
        return np.stack([-e * np.sin(x) * np.sin(y),
                         e * np.cos(x) * np.cos(y)], axis=-1)

    def concentration_dt(x, y, t):
        return -0.2 * np.exp(-t) * np.cos(x) * np.sin(y)

    def permeability(x, y):
        return np.full(np.broadcast(x, y).shape, 2.0)

    def viscosity(c):
        return 1.0 + np.asarray(c, dtype=np.float64)

    def velocity_divergence(x, y, t):
        e = np.exp(-t)
        sy = np.sin(y)
        m = 1.0 / (1.0 + (0.5 + 0.2 * e * np.cos(x) * sy))
        c_x = -0.2 * e * np.sin(x) * sy
        return -400.0 * e * m * (1.0 - (x - t) * m * c_x)

    def flux_divergence(x, y, t):
        e, s = np.exp(-t), x - t
        sin_x, cos_x, sin_y, cos_y = np.sin(x), np.cos(x), np.sin(y), np.cos(y)
        a = 0.2 * e
        w = a * cos_x * sin_y                   # c - 1/2
        c_x, c_y = -a * sin_x * sin_y, a * cos_x * cos_y
        m = 1.0 / (1.0 + (0.5 + w))
        k = 40.0 * e * m * np.abs(s)            # |u|/10
        return ((1.0 + k) * (-2.0 * w)
                + 40.0 * e * m * np.sign(s) * c_x - k * m * (c_x ** 2 + c_y ** 2))

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
        flux_divergence=flux_divergence, kink_distance=kink_distance,
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

    This is :func:`manufacture_sources` with the case's closed-form
    divergences in place of the finite differences, except that at
    points closer than ``fd_step`` to the case's kink the flux
    divergence is the finite difference, bit for bit.  Its smeared value
    there differs from the exact one (by up to 0.07 on the disk-trig
    case), and the mean mode of the no-flux transport, which nothing
    damps, carries that difference into the computed errors.
    """
    def flux_divergence(x, y, t):
        div = np.array(sol.flux_divergence(x, y, t), dtype=np.float64)
        x, y, t = np.broadcast_arrays(x, y, t)
        band = sol.kink_distance(x, y, t) < fd_step
        if band.any():
            div[band] = fd_divergence(sol.concentration_flux,
                                      x[band], y[band], t[band], fd_step)
        return div

    return replace(manufacture_sources(sol, fd_step),
                   pressure_source=sol.velocity_divergence,
                   concentration_source=_transport_source(sol,
                                                          flux_divergence))


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

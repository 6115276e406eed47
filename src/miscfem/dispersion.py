"""The velocity-dependent Bear-Scheidegger diffusion-dispersion tensor

    D(u) = gamma*d_m*I + |u| ( alpha_T*I + (alpha_L - alpha_T) * (u x u) / |u|^2 ),

whose eigenpairs are gamma*d_m + alpha_L*|u| along u and
gamma*d_m + alpha_T*|u| across it.  With alpha_L = alpha_T it is the
isotropic law (gamma*d_m + alpha*|u|) I.  ``bear_scheidegger`` (also
``dispersion_matrices``) evaluates it pointwise at quadrature points,
returning 2x2 matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check_number


@dataclass(frozen=True)
class DispersionParams:
    """Bear-Scheidegger coefficients: molecular gamma*d_m > 0 and
    longitudinal/transverse dispersivities alpha_l >= 0, alpha_t >= 0."""

    gamma_dm: float
    alpha_l: float
    alpha_t: float

    def __post_init__(self):
        check_number("gamma_dm", self.gamma_dm, above=0)
        check_number("alpha_l", self.alpha_l, at_least=0)
        check_number("alpha_t", self.alpha_t, at_least=0)


def ScalarDispersionParams(base: float, slope: float) -> DispersionParams:
    """The isotropic law d(u) = base + slope*|u| (times identity): the
    tensor with gamma_dm = base and alpha_l = alpha_t = slope."""
    return DispersionParams(gamma_dm=base, alpha_l=slope, alpha_t=slope)


def bear_scheidegger(u, params: DispersionParams) -> np.ndarray:
    """Evaluate the tensor at velocities u of shape (..., 2) -> (..., 2, 2).

    Continuous at u = 0 where it degenerates to gamma_dm * I; the rank-one
    term u x u / |u| is evaluated as outer(u, u) / |u| to avoid 0/0.  An
    isotropic tensor (alpha_l == alpha_t) skips that term, which is then
    exactly zero.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape[-1] != 2:
        raise ValueError("velocities must have shape (..., 2)")
    ux, uy = u[..., 0], u[..., 1]
    speed = np.hypot(ux, uy)
    # the entries 00, 01, 10, 11 one at a time: README "Assembly kernels"
    out = np.zeros(u.shape[:-1] + (4,))
    iso = params.gamma_dm + params.alpha_t * speed
    out[..., 0] = iso
    out[..., 3] = iso
    tensor = out.reshape(u.shape[:-1] + (2, 2))
    if params.alpha_l == params.alpha_t:
        return tensor
    safe = np.where(speed > 0.0, speed, 1.0)
    scale = (params.alpha_l - params.alpha_t) / safe
    # one shared off-diagonal keeps the matrix symmetric to the last bit;
    # scale * u_x is at most |alpha_l - alpha_t|, so the product overflows
    # only where the entry itself does; += on the zeros turns an
    # off-diagonal -0 into +0, as the general formula does
    scaled_x = scale * ux
    off = scaled_x * uy
    out[..., 0] += scaled_x * ux
    out[..., 1] += off
    out[..., 2] += off
    out[..., 3] += scale * uy * uy
    return tensor


dispersion_matrices = bear_scheidegger


def dispersion_eigenvalues(u, params: DispersionParams):
    """Longitudinal and transverse eigenvalues of D(u) for u of shape (..., 2)."""
    u = np.asarray(u, dtype=np.float64)
    speed = np.hypot(u[..., 0], u[..., 1])
    return (params.gamma_dm + params.alpha_l * speed,
            params.gamma_dm + params.alpha_t * speed)

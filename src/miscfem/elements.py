"""Lagrange P1/P2 reference elements, triangle quadrature, dof maps.

Reference triangle: vertices (0,0), (1,0), (0,1); barycentric coordinates
(l0, l1, l2) = (1-x-y, x, y).  Local P2 node order is the three vertices
followed by the edge midpoints of edges (0,1), (1,2), (2,0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check_number
from .meshing import Mesh

# Symmetric positive-weight rules on the reference triangle, exact through
# the stated polynomial degree.  Points are barycentric; weights sum to the
# reference area 1/2.  The six- and twelve-point orbit constants solve the
# moment equations for degrees 4 and 6; the seven-point degree-5 rule is
# the classical closed form with sqrt(15).
_S15 = np.sqrt(15.0)

def _orbit3(a):
    b = 1.0 - 2.0 * a
    return np.array([[b, a, a], [a, b, a], [a, a, b]])


def _orbit6(a, b):
    c = 1.0 - a - b
    return np.array([[c, a, b], [c, b, a], [a, c, b],
                     [b, c, a], [a, b, c], [b, a, c]])


_RULES = {
    1: (np.full((1, 3), 1.0 / 3.0), np.array([0.5])),
    2: (_orbit3(1.0 / 6.0), np.full(3, 1.0 / 6.0)),
}

_A4_1, _W4_1 = 0.4459484909159648863183, 0.1116907948390057328475
_A4_2, _W4_2 = 0.09157621350977074345957, 0.05497587182766093381916
_RULES[4] = (np.vstack([_orbit3(_A4_1), _orbit3(_A4_2)]),
             np.concatenate([np.full(3, _W4_1), np.full(3, _W4_2)]))

_A5_1 = (6.0 + _S15) / 21.0
_A5_2 = (6.0 - _S15) / 21.0
_RULES[5] = (np.vstack([_RULES[1][0], _orbit3(_A5_1), _orbit3(_A5_2)]),
             np.concatenate([[9.0 / 80.0],
                             np.full(3, (155.0 + _S15) / 2400.0),
                             np.full(3, (155.0 - _S15) / 2400.0)]))

_A6_1, _W6_1 = 0.2492867451709104212916, 0.05839313786318968301264
_A6_2, _W6_2 = 0.06308901449150222834033, 0.02542245318510340846047
_A6_3, _B6_3 = 0.05314504984481694735325, 0.3103524510337844054166
_W6_3 = 0.04142553780918678759678
_RULES[6] = (np.vstack([_orbit3(_A6_1), _orbit3(_A6_2), _orbit6(_A6_3, _B6_3)]),
             np.concatenate([np.full(3, _W6_1), np.full(3, _W6_2),
                             np.full(6, _W6_3)]))

_DEGREE_TO_RULE = {1: 1, 2: 2, 3: 4, 4: 4, 5: 5, 6: 6}


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points (Q, 3) and weights (Q,) summing to 1/2."""

    points: np.ndarray
    weights: np.ndarray


def quadrature_rule(degree: int) -> QuadratureRule:
    """Smallest tabulated symmetric rule exact through `degree`."""
    try:
        rule = _DEGREE_TO_RULE[check_number("degree", degree, integral=True)]
    except (ValueError, KeyError):
        raise ValueError(f"no tabulated triangle rule for degree {degree!r}; "
                         f"supported degrees are 1..6") from None
    points, weights = _RULES[rule]
    points = points.copy()
    weights = weights.copy()
    points.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(points=points, weights=weights)


def edge_quadrature():
    """Three-point Gauss-Legendre rule on [0, 1] (exact through degree 5).

    Returns (points, weights) with weights summing to 1.
    """
    half = 0.5 * np.sqrt(3.0 / 5.0)
    points = np.array([0.5 - half, 0.5, 0.5 + half])
    weights = np.array([5.0, 8.0, 5.0]) / 18.0
    return points, weights


def reference_basis(order: int, points) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate reference basis functions at barycentric points.

    Parameters
    ----------
    order : 1 or 2
    points : (..., 3) barycentric coordinates in the closed reference triangle

    Returns
    -------
    values : (..., nb) with nb = 3 (P1) or 6 (P2)
    grads : (..., nb, 2) gradients with respect to reference (x, y)
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[-1] != 3:
        raise ValueError("points must be barycentric triples")
    if np.any(pts < -1e-12) or np.any(np.abs(pts.sum(axis=-1) - 1.0) > 1e-12):
        raise ValueError("point outside the closed reference triangle")
    l0, l1, l2 = pts[..., 0], pts[..., 1], pts[..., 2]
    # gradients of barycentric coordinates w.r.t. reference (x, y)
    dl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

    if order == 1:
        values = np.stack([l0, l1, l2], axis=-1)
        grads = np.broadcast_to(dl, pts.shape[:-1] + (3, 2)).copy()
        return values, grads
    if order == 2:
        values = np.stack([
            l0 * (2.0 * l0 - 1.0),
            l1 * (2.0 * l1 - 1.0),
            l2 * (2.0 * l2 - 1.0),
            4.0 * l0 * l1,
            4.0 * l1 * l2,
            4.0 * l2 * l0,
        ], axis=-1)
        lam = (l0, l1, l2)
        grads = np.empty(pts.shape[:-1] + (6, 2))
        for i in range(3):
            grads[..., i, :] = (4.0 * lam[i] - 1.0)[..., None] * dl[i]
        for k, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            grads[..., 3 + k, :] = 4.0 * (lam[a][..., None] * dl[b]
                                          + lam[b][..., None] * dl[a])
        return values, grads
    raise ValueError(f"unsupported element order {order}")


@dataclass(frozen=True)
class DofMap:
    """Global degree-of-freedom layout for P1 or P2 on a mesh.

    cell_dofs  : (T, 3) or (T, 6) global dof indices per triangle
    dof_coords : (ndof, 2) coordinates of the Lagrange nodes
    """

    order: int
    dof_count: int
    cell_dofs: np.ndarray
    dof_coords: np.ndarray


def build_dofmap(mesh: Mesh, order: int) -> DofMap:
    """Number dofs: vertices first, then (P2) one dof per undirected edge,
    in the order of ``mesh.edges``, which :func:`~miscfem.meshing.edge_table`
    numbered."""
    if order == 1:
        cell_dofs = mesh.triangles.copy()
        coords = mesh.vertices.copy()
    elif order == 2:
        edges = mesh.edges
        cell_dofs = np.hstack([mesh.triangles,
                               mesh.num_vertices + mesh.cell_edges])
        mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
        coords = np.vstack([mesh.vertices, mids])
    else:
        raise ValueError(f"unsupported element order {order}")
    cell_dofs.flags.writeable = False
    coords.flags.writeable = False
    return DofMap(order=order, dof_count=coords.shape[0],
                  cell_dofs=cell_dofs, dof_coords=coords)


def interpolate(dofmap: DofMap, f) -> np.ndarray:
    """Lagrange interpolant: evaluate f at the dof nodes.

    f must accept numpy arrays (x, y) and evaluate elementwise.
    """
    x, y = dofmap.dof_coords[:, 0], dofmap.dof_coords[:, 1]
    values = np.asarray(f(x, y), dtype=np.float64)
    if values.shape != x.shape:
        raise ValueError("interpolated callable must return one value per node")
    return values


def triangle_geometry(corners):
    """Affine map data per triangle from corner coordinates (T, 3, 2):
    |det J| and inverse-transpose J.

    J columns are the edge vectors (v1 - v0, v2 - v0); physical gradients
    of a reference basis function g are invJT @ g.
    """
    p = np.asarray(corners, dtype=np.float64)
    j00 = p[:, 1, 0] - p[:, 0, 0]
    j10 = p[:, 1, 1] - p[:, 0, 1]
    j01 = p[:, 2, 0] - p[:, 0, 0]
    j11 = p[:, 2, 1] - p[:, 0, 1]
    det = j00 * j11 - j01 * j10
    invJT = np.empty((p.shape[0], 2, 2))
    invJT[:, 0, 0] = j11 / det
    invJT[:, 0, 1] = -j10 / det
    invJT[:, 1, 0] = -j01 / det
    invJT[:, 1, 1] = j00 / det
    return np.abs(det), invJT

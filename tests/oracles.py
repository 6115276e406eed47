"""Exact-integration oracles shared across test modules.

Everything here is independent of the library's quadrature and assembly
paths: polynomials are stored as ``{(a, b): coeff}`` exponent dicts and
integrated over the reference triangle (0,0), (1,0), (0,1) with the
closed-form factorial formula."""

import json
import math

import numpy as np


def exact_monomial(a: int, b: int) -> float:
    """integral of x^a y^b over the triangle (0,0), (1,0), (0,1)."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def poly_mul(p, q):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def poly_int(p):
    return sum(c * exact_monomial(a, b) for (a, b), c in p.items())


def poly_grad(p):
    gx, gy = {}, {}
    for (a, b), c in p.items():
        if a > 0:
            gx[(a - 1, b)] = gx.get((a - 1, b), 0.0) + a * c
        if b > 0:
            gy[(a, b - 1)] = gy.get((a, b - 1), 0.0) + b * c
    return gx, gy


def p2_basis_polynomials():
    """The six quadratic basis functions on the reference triangle,
    ordered vertices (0, 1, 2) then midpoints of edges (0,1), (1,2),
    (2,0)."""
    l1 = {(0, 0): 1.0, (1, 0): -1.0, (0, 1): -1.0}
    l2 = {(1, 0): 1.0}
    l3 = {(0, 1): 1.0}

    def vertex(l):
        two_l = {k: 2.0 * v for k, v in l.items()}
        two_l[(0, 0)] = two_l.get((0, 0), 0.0) - 1.0
        return poly_mul(l, two_l)

    def edge(la, lb):
        return poly_mul({k: 4.0 * v for k, v in la.items()}, lb)

    return [vertex(l1), vertex(l2), vertex(l3),
            edge(l1, l2), edge(l2, l3), edge(l3, l1)]


def p1_mass_oracle() -> np.ndarray:
    """Exact P1 mass matrix of the reference triangle (area 1/2)."""
    return np.array([[2.0, 1.0, 1.0],
                     [1.0, 2.0, 1.0],
                     [1.0, 1.0, 2.0]]) / 24.0


def p2_stiffness_oracle() -> np.ndarray:
    """Exact integrals of grad(phi_i) . grad(phi_j) for the quadratic
    basis of the reference triangle."""
    grads = [poly_grad(p) for p in p2_basis_polynomials()]
    out = np.empty((6, 6))
    for i, (gxi, gyi) in enumerate(grads):
        for j, (gxj, gyj) in enumerate(grads):
            out[i, j] = (poly_int(poly_mul(gxi, gxj))
                         + poly_int(poly_mul(gyi, gyj)))
    return out


def write_unit_triangle_mesh(path):
    """JSON mesh holding the single reference triangle; returns path."""
    path.write_text(json.dumps({
        "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        "triangles": [[0, 1, 2]],
        "boundary_edges": [[0, 1], [1, 2], [2, 0]]}))
    return path


def p2_dofmap_oracle(mesh):
    """Quadratic dof layout by a plain walk over the triangles: vertex
    dofs first, then one dof per undirected edge, numbered in the order
    the walk over (triangle, local edge (0,1), (1,2), (2,0)) first meets
    it.  Returns (cell_dofs, dof_coords)."""
    V = mesh.num_vertices
    numbers = {}
    cell_dofs = []
    mids = []
    for tri in mesh.triangles.tolist():
        row = list(tri)
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            if key not in numbers:
                numbers[key] = V + len(numbers)
                mids.append(0.5 * (mesh.vertices[a] + mesh.vertices[b]))
            row.append(numbers[key])
        cell_dofs.append(row)
    return (np.array(cell_dofs, dtype=np.int64),
            np.vstack([mesh.vertices, np.array(mids)]))

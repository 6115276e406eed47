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


def _scatter(cell_dofs, local, n):
    """Dense global matrix from per-cell blocks, duplicates summed."""
    k = cell_dofs.shape[1]
    rows = np.repeat(cell_dofs, k, axis=1).ravel()
    cols = np.tile(cell_dofs, (1, k)).ravel()
    out = np.zeros((n, n))
    np.add.at(out, (rows, cols), local.ravel())
    return out


def pressure_matrix_oracle(disc, coeffs, c_prev):
    """Dense P2 stiffness ((k/mu(c_prev)) grad phi_j, grad phi_i), by the
    4-index einsum of the first assembly code over (T, Q, 6, 2)
    gradients."""
    c_q = np.einsum("qi,ti->tq", disc.p1_values, c_prev[disc.p1.cell_dofs])
    x, y = disc.quad_points[..., 0], disc.quad_points[..., 1]
    mobility = coeffs.permeability(x, y) / coeffs.viscosity(c_q)
    grads = disc.p2_grads.transpose(0, 2, 1, 3)
    scaled = (mobility * disc.cell_weights)[:, :, None, None] * grads
    local = np.einsum("tqia,tqja->tij", scaled, grads)
    return _scatter(disc.p2.cell_dofs, local, disc.p2.dof_count)


def velocity_oracle(disc, coeffs, c_prev, p_coeffs):
    """Darcy velocity -(k/mu(c_prev)) grad p by the first code's einsum."""
    c_q = np.einsum("qi,ti->tq", disc.p1_values, c_prev[disc.p1.cell_dofs])
    x, y = disc.quad_points[..., 0], disc.quad_points[..., 1]
    mobility = coeffs.permeability(x, y) / coeffs.viscosity(c_q)
    grad_p = np.einsum("tqia,ti->tqa", disc.p2_grads.transpose(0, 2, 1, 3),
                       p_coeffs[disc.p2.cell_dofs])
    return -mobility[:, :, None] * grad_p


def transport_matrix_oracle(disc, coeffs, velocity, tau, t, mode):
    """Dense backward-Euler transport matrix by the 4-index einsums of the
    first assembly code: dispersion D(u), convection in ``mode``, the
    skew form's source and wall terms, and the (gamma/tau) mass."""
    from miscfem.dispersion import dispersion_matrices

    w, G, phi = disc.cell_weights, disc.p1_grads, disc.p1_values
    U = velocity.cell_values
    D = dispersion_matrices(U, coeffs.dispersion)
    DG = np.einsum("tqab,tjb->tqja", D, G)
    local = np.einsum("tq,tia,tqja->tij", w, G, DG)
    skew = mode == "skew" and coeffs.velocity_coupling == "advection"
    if coeffs.velocity_coupling == "advection":
        n1 = np.einsum("tq,qi,tqj->tij", w, phi,
                       np.einsum("tqa,tja->tqj", U, G))
        local += 0.5 * (n1 - n1.transpose(0, 2, 1)) if skew else n1
    if skew:
        x, y = disc.quad_points[..., 0], disc.quad_points[..., 1]
        q_total = sum(f(x, y, t) for f in (coeffs.injection,
                                           coeffs.production)
                      if f is not None)
        local += np.einsum("tq,qi,qj->tij", 0.5 * q_total * w, phi, phi)
    local += (coeffs.porosity / tau) * disc.mass_local
    n = disc.p1.dof_count
    out = _scatter(disc.p1.cell_dofs, local, n)
    if skew and coeffs.pressure_flux is not None:
        ex, ey = disc.edge_points[..., 0], disc.edge_points[..., 1]
        nrm = disc.mesh.boundary_normals
        flux = coeffs.pressure_flux(ex, ey, t, nrm[:, None, 0],
                                    nrm[:, None, 1])
        edge = np.einsum("bq,bqi,bqj->bij", 0.5 * flux * disc.edge_weights,
                         disc.edge_p1_values, disc.edge_p1_values)
        out += _scatter(disc.p1.cell_dofs[disc.mesh.boundary_tris], edge, n)
    return out

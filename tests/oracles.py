"""Exact-integration oracles shared across test modules.

Everything here is independent of the library's quadrature and assembly
paths: polynomials are stored as ``{(a, b): coeff}`` exponent dicts and
integrated over the reference triangle (0,0), (1,0), (0,1) with the
closed-form factorial formula."""

import json
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


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


def bear_scheidegger_oracle(u, params):
    """The Bear-Scheidegger tensor by the general formula for every
    parameter set: the rank-one term (alpha_l - alpha_t) u x u / |u| is
    always added, also when it is zero."""
    u = np.asarray(u, dtype=np.float64)
    speed = np.hypot(u[..., 0], u[..., 1])
    out = np.zeros(u.shape[:-1] + (2, 2))
    iso = params.gamma_dm + params.alpha_t * speed
    out[..., 0, 0] = iso
    out[..., 1, 1] = iso
    safe = np.where(speed > 0.0, speed, 1.0)
    scale = (params.alpha_l - params.alpha_t) / safe
    off = (scale * u[..., 0]) * u[..., 1]
    out[..., 0, 0] += scale * u[..., 0] * u[..., 0]
    out[..., 0, 1] += off
    out[..., 1, 0] += off
    out[..., 1, 1] += scale * u[..., 1] * u[..., 1]
    return out


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


def p2_gradients(disc):
    """Physical gradients (T, Q, 6, 2) of the quadratic basis at the
    volume quadrature points, each the reference gradient mapped by the
    cell's J^-T, built from the element module alone."""
    from miscfem.elements import (quadrature_rule, reference_basis,
                                  triangle_geometry)

    _, ref = reference_basis(2, quadrature_rule(4).points)
    _, invJT = triangle_geometry(disc.mesh.vertices[disc.mesh.triangles])
    grads = np.einsum("tab,qib->tqia", invJT, ref)
    assert grads.shape[:2] == disc.cell_weights.shape
    return grads


def pressure_matrix_oracle(disc, coeffs, c_prev):
    """Dense P2 stiffness ((k/mu(c_prev)) grad phi_j, grad phi_i), by the
    4-index einsum of the first assembly code over (T, Q, 6, 2)
    gradients."""
    c_q = np.einsum("qi,ti->tq", disc.p1_values, c_prev[disc.p1.cell_dofs])
    x, y = disc.quad_points[..., 0], disc.quad_points[..., 1]
    mobility = coeffs.permeability(x, y) / coeffs.viscosity(c_q)
    grads = p2_gradients(disc)
    scaled = (mobility * disc.cell_weights)[:, :, None, None] * grads
    local = np.einsum("tqia,tqja->tij", scaled, grads)
    return _scatter(disc.p2.cell_dofs, local, disc.p2.dof_count)


def velocity_oracle(disc, coeffs, c_prev, p_coeffs):
    """Darcy velocity -(k/mu(c_prev)) grad p by the first code's einsum."""
    c_q = np.einsum("qi,ti->tq", disc.p1_values, c_prev[disc.p1.cell_dofs])
    x, y = disc.quad_points[..., 0], disc.quad_points[..., 1]
    mobility = coeffs.permeability(x, y) / coeffs.viscosity(c_q)
    grad_p = np.einsum("tqia,ti->tqa", p2_gradients(disc),
                       p_coeffs[disc.p2.cell_dofs])
    return -mobility[:, :, None] * grad_p


def pressure_data_broadcast_oracle(disc, mobility):
    """The P2 stiffness data by the broadcast kernel that
    :func:`miscfem.assemble_pressure` used before it wrote the metric
    entries one at a time: (T, Q, 1) mobility times (T, 1, 3) metric."""
    T, Q = mobility.shape
    geometry = mobility[:, :, None] * disc.metric[:, None, :]
    local = geometry.reshape(T, 3 * Q) @ disc.stiffness_tensor
    return disc.p2_pattern.assemble(local.reshape(T, 6, 6)).data


def velocity_broadcast_oracle(disc, mobility, p_coeffs):
    """The Darcy velocity by the broadcast kernel that
    :func:`miscfem.compute_velocity` used before it scaled the gradient
    one component at a time."""
    return -mobility[:, :, None] * disc.gradient_at_quad(disc.p2, p_coeffs)


def transport_matrix_oracle(disc, coeffs, velocity, tau, t, mode):
    """Dense backward-Euler transport matrix by the 4-index einsums of the
    first assembly code: dispersion D(u), convection in ``mode``, the
    skew form's source and wall terms, and the (gamma/tau) mass."""
    from miscfem.dispersion import dispersion_matrices

    w, G, phi = disc.cell_weights, disc.p1_grads, disc.p1_values
    U = velocity
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
        ex, ey = disc.edge_x, disc.edge_y
        nrm = disc.mesh.boundary_normals
        flux = coeffs.pressure_flux(ex, ey, t, nrm[:, None, 0],
                                    nrm[:, None, 1])
        edge = np.einsum("bq,bqi,bqj->bij", 0.5 * flux * disc.edge_weights,
                         disc.edge_p1_values, disc.edge_p1_values)
        out += _scatter(disc.p1.cell_dofs[disc.mesh.boundary_tris], edge, n)
    return out


def _scatter_loads(cell_dofs, local, n):
    """Dense global vector from per-cell (or per-edge) loads."""
    out = np.zeros(n)
    np.add.at(out, cell_dofs.ravel(), local.ravel())
    return out


def _wall_loads(disc, flux, edge_values, t):
    """Per-edge loads (flux(x, y, t, n), phi_i) on the boundary edges, in
    the owner triangles' bases."""
    ex, ey = disc.edge_x, disc.edge_y
    nrm = disc.mesh.boundary_normals
    g = flux(ex, ey, t, nrm[:, None, 0], nrm[:, None, 1])
    return np.einsum("bq,bq,bqi->bi", np.broadcast_to(g, ex.shape),
                     disc.edge_weights, edge_values)


def pressure_rhs_oracle(disc, coeffs, t):
    """Dense pressure load (q_I - q_P + f, v) - (u.n, v)_wall: per-cell
    volume loads and per-edge wall loads, each scattered on its own."""
    x, y = disc.quad_points[..., 0], disc.quad_points[..., 1]
    source = np.zeros(x.shape)
    for func, sign in ((coeffs.injection, 1.0), (coeffs.production, -1.0),
                       (coeffs.pressure_source, 1.0)):
        if func is not None:
            source = source + sign * func(x, y, t)
    n = disc.p2.dof_count
    out = _scatter_loads(disc.p2.cell_dofs, np.einsum(
        "tq,tq,qi->ti", disc.cell_weights, source, disc.p2_values), n)
    if coeffs.pressure_flux is not None:
        out -= _scatter_loads(
            disc.p2.cell_dofs[disc.mesh.boundary_tris],
            _wall_loads(disc, coeffs.pressure_flux, disc.edge_p2_values, t), n)
    return out


def concentration_rhs_oracle(disc, coeffs, c_prev, tau, t):
    """Dense transport load (gamma/tau) (c_prev, w) + (chat q_I + g, w)
    + (D grad c . n, w)_wall: per-cell volume loads and per-edge wall
    loads, each scattered on its own."""
    x, y = disc.quad_points[..., 0], disc.quad_points[..., 1]
    w, phi = disc.cell_weights, disc.p1_values
    c_q = np.einsum("qj,tj->tq", phi, c_prev[disc.p1.cell_dofs])
    source = (coeffs.porosity / tau) * c_q
    if coeffs.injection is not None and \
            coeffs.injected_concentration is not None:
        source = source + (coeffs.injected_concentration(x, y, t)
                           * coeffs.injection(x, y, t))
    if coeffs.concentration_source is not None:
        source = source + coeffs.concentration_source(x, y, t)
    n = disc.p1.dof_count
    out = _scatter_loads(disc.p1.cell_dofs,
                         np.einsum("tq,tq,qi->ti", w, source, phi), n)
    if coeffs.concentration_flux is not None:
        out += _scatter_loads(
            disc.p1.cell_dofs[disc.mesh.boundary_tris],
            _wall_loads(disc, coeffs.concentration_flux,
                        disc.edge_p1_values, t), n)
    return out


def edge_table_oracle(triangles):
    """Edge numbering by ``np.unique`` on the undirected edge keys, in the
    order a walk over (triangle, local edge) first meets each edge: the
    same four arrays as :func:`miscfem.meshing.edge_table`."""
    tails = triangles.ravel()
    heads = triangles[:, [1, 2, 0]].ravel()
    keys = (np.minimum(tails, heads) * (int(triangles.max()) + 1)
            + np.maximum(tails, heads))
    _, first, inverse, counts = np.unique(keys, return_index=True,
                                          return_inverse=True,
                                          return_counts=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    first = first[order]
    return (np.column_stack([tails[first], heads[first]]), first // 3,
            counts[order], number[inverse].reshape(-1, 3))


def gmres_cycles_oracle(A, b, rel_tol, restart, max_iter, x0, precond):
    """Restarted, right-preconditioned GMRES as bare scipy cycles, with no
    first correction: the loop :func:`miscfem.solvers.gmres` falls back
    to when that correction misses ``rel_tol``.  Returns x, the number of
    inner iterations and the true relative residual."""
    bnorm = float(np.linalg.norm(b))
    x = np.asarray(x0, dtype=np.float64).copy()
    AMinv = spla.LinearOperator(A.shape, matvec=lambda v: A @ precond(v),
                                dtype=np.float64)
    history = []
    last = np.inf
    while True:
        res = float(np.linalg.norm(b - A @ x)) / bnorm
        if (res <= rel_tol or res >= last * (1.0 - 1e-12)
                or len(history) >= max_iter):
            return x, len(history), res
        last = res
        y, _ = spla.gmres(AMinv, b - A @ x, rtol=0.0, atol=rel_tol * bnorm,
                          restart=min(restart, max_iter - len(history)),
                          maxiter=1, callback=history.append,
                          callback_type="pr_norm")
        x += precond(y)


def bordered_neumann_solve(A, m):
    """The solve r -> x of the bordered Neumann system [[A, m], [m^T, 0]]
    [x, l] = [r, 0], for A singular on the constants and positive m, by a
    sparse LU factor of the whole bordered matrix, whose zero diagonal
    entry makes SuperLU pivot off the diagonal.  Returns the solve and
    the factor."""
    m = np.asarray(m, dtype=np.float64)[:, None]
    factor = spla.splu(sp.bmat([[A, m], [m.T, None]], format="csc"),
                       permc_spec="MMD_AT_PLUS_A")

    def solve(r):
        return factor.solve(np.append(r, 0.0))[:-1]
    return solve, factor


@np.errstate(invalid="ignore", over="ignore")
def cg_deflated_oracle(A, b, deflate=None, rel_tol=1e-11, max_iter=None,
                       x0=None, precond=None, r0=None):
    """The loop of :func:`miscfem.solvers.cg_deflated` as it was before it
    updated in place: every projection and update makes a new array, and
    norms come from ``np.linalg.norm``.  Takes no input checks.  Returns
    x and (iterations, relative residual, converged)."""
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    if max_iter is None:
        max_iter = 10 * n
    if deflate is not None:
        m = np.asarray(deflate, dtype=np.float64)
        mtm = m @ m

        def project(v):
            return v - ((m @ v) / mtm) * m
    else:
        def project(v):
            return v

    pb = project(b)
    bnorm = float(np.linalg.norm(pb))
    x = np.zeros(n) if x0 is None else project(np.array(x0, dtype=np.float64))
    if bnorm == 0.0:
        return np.zeros(n), (0, 0.0, True)

    r = project(pb - A @ x if r0 is None else r0)
    rnorm = float(np.linalg.norm(r))
    if rnorm / bnorm <= rel_tol:
        return x, (0, rnorm / bnorm, True)

    z = r if precond is None else project(precond(r))
    p = z.copy()
    rz = float(r @ z)
    iterations = 0
    least, least_at = rnorm, 0
    for _ in range(max_iter):
        Ap = project(A @ p)
        pAp = float(p @ Ap)
        if not 0.0 < pAp < np.inf:
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        iterations += 1
        rnorm = float(np.linalg.norm(r))
        if rnorm / bnorm <= rel_tol:
            return x, (iterations, rnorm / bnorm, True)
        if rnorm < least:
            least, least_at = rnorm, iterations
        elif iterations - least_at >= 50:     # STAGNATION_ITERATIONS
            break
        z = r if precond is None else project(precond(r))
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return x, (iterations, rnorm / bnorm, False)

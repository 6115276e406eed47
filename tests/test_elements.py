"""Reference-element building blocks: quadrature, bases, dof maps."""

import json
import math

import numpy as np
import pytest
from oracles import p2_dofmap_oracle

from miscfem import (build_dofmap, edge_quadrature, generate_disk_mesh,
                     interpolate, load_mesh, quadrature_rule, reference_basis,
                     save_mesh)
from miscfem.elements import triangle_geometry


def monomial_integral(a: int, b: int) -> float:
    """Exact integral of x^a y^b over the reference triangle.

    On the triangle with vertices (0,0), (1,0), (0,1) the integral is
    a! b! / (a + b + 2)!, a classical closed form independent of any
    quadrature rule.
    """
    return (math.factorial(a) * math.factorial(b)
            / math.factorial(a + b + 2))


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_quadrature_exact_on_monomials(degree):
    """Every degree through 4 gets the one tabulated rule, six points."""
    rule = quadrature_rule(degree)
    assert rule.weights.shape == (6,) and rule.points.shape == (6, 3)
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = float(np.sum(rule.weights * x ** a * y ** b))
            assert got == pytest.approx(monomial_integral(a, b), abs=1e-14)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_quadrature_weights_positive_and_sum_to_area(degree):
    rule = quadrature_rule(degree)
    assert np.all(rule.weights > 0)
    assert float(rule.weights.sum()) == pytest.approx(0.5, abs=1e-15)
    # barycentric points stay strictly inside the closed triangle
    assert np.all(rule.points >= 0)
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)


def test_quadrature_rejects_unsupported_degree():
    """No rule is tabulated beyond degree 4, and a boolean is not a
    degree: True would silently pick the rule for degree 1."""
    for degree in (5, 6, 7, 0, True):
        with pytest.raises(ValueError, match="no tabulated triangle rule"):
            quadrature_rule(degree)


def test_edge_quadrature_integrates_quintics():
    s, w = edge_quadrature()
    # 3-point Gauss on [0, 1] is exact through degree 5
    for k in range(6):
        assert float(np.sum(w * s ** k)) == pytest.approx(1.0 / (k + 1),
                                                          abs=1e-15)


@pytest.mark.parametrize("order", [1, 2])
def test_reference_basis_partition_of_unity(order, rng):
    b = rng.dirichlet(np.ones(3), size=40)
    values, grads = reference_basis(order, b)
    assert np.allclose(values.sum(axis=1), 1.0, atol=1e-13)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-13)


@pytest.mark.parametrize("order", [1, 2])
def test_reference_basis_kronecker_at_nodes(order):
    if order == 1:
        nodes = np.eye(3)
    else:
        nodes = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                          [0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]])
    values, _ = reference_basis(order, nodes)
    assert np.allclose(values, np.eye(len(nodes)), atol=1e-14)


def test_reference_basis_rejects_points_outside():
    bad = np.array([[1.2, -0.1, -0.1]])
    with pytest.raises(ValueError):
        reference_basis(1, bad)
    with pytest.raises(ValueError):
        reference_basis(3, np.array([[1.0, 0.0, 0.0]]))


def test_dofmap_counts(mesh16):
    p1 = build_dofmap(mesh16, 1)
    p2 = build_dofmap(mesh16, 2)
    assert p1.dof_count == mesh16.num_vertices
    edges = set()
    for tri in mesh16.triangles:
        for i in range(3):
            edges.add(tuple(sorted((tri[i], tri[(i + 1) % 3]))))
    assert p2.dof_count == mesh16.num_vertices + len(edges)
    assert p2.cell_dofs.shape == (mesh16.num_triangles, 6)


def test_dofmap_midpoint_coordinates(mesh16):
    p2 = build_dofmap(mesh16, 2)
    verts = mesh16.vertices
    for t, tri in enumerate(mesh16.triangles):
        for e in range(3):
            a, b = tri[e], tri[(e + 1) % 3]
            mid = 0.5 * (verts[a] + verts[b])
            assert np.allclose(p2.dof_coords[p2.cell_dofs[t, 3 + e]], mid,
                               atol=1e-14)


@pytest.mark.parametrize("M", [8, 16, 33, 64])
def test_p2_dofmap_matches_dict_walk(M):
    mesh = generate_disk_mesh(M=M)
    cell_dofs, coords = p2_dofmap_oracle(mesh)
    p2 = build_dofmap(mesh, 2)
    assert np.array_equal(p2.cell_dofs, cell_dofs)
    assert np.array_equal(p2.dof_coords, coords)
    assert p2.dof_count == coords.shape[0]


def test_p2_dofmap_matches_dict_walk_on_shuffled_mesh(tmp_path, mesh16, rng):
    """Triangles in random order, each with its corners rotated: the
    numbering still follows the walk over the file's triangles."""
    save_mesh(mesh16, tmp_path / "disk.json")
    data = json.loads((tmp_path / "disk.json").read_text())
    order = rng.permutation(len(data["triangles"]))
    data["triangles"] = [data["triangles"][t][k:] + data["triangles"][t][:k]
                         for t, k in zip(order, rng.integers(3, size=order.size))]
    (tmp_path / "shuffled.json").write_text(json.dumps(data))
    mesh = load_mesh(tmp_path / "shuffled.json")
    cell_dofs, coords = p2_dofmap_oracle(mesh)
    p2 = build_dofmap(mesh, 2)
    assert np.array_equal(p2.cell_dofs, cell_dofs)
    assert np.array_equal(p2.dof_coords, coords)


@pytest.mark.parametrize("order,f,grad", [
    (1, lambda x, y: 3.0 - 2.0 * x + 0.5 * y,
     lambda x, y: (-2.0, 0.5)),
    (2, lambda x, y: 1.0 + x - y + 2.0 * x * y - x ** 2 + 0.5 * y ** 2,
     lambda x, y: (1.0 + 2.0 * y - 2.0 * x, -1.0 + 2.0 * x + y)),
])
def test_interpolation_reproduces_polynomials(disc16, order, f, grad):
    """P1 captures linears and P2 captures quadratics exactly, so the
    field and its gradient at every volume quadrature point of every
    element, through the kernels assembly and the error norms use, must
    match."""
    dofmap = disc16.p1 if order == 1 else disc16.p2
    coeffs = interpolate(dofmap, f)
    x, y = disc16.quad_points[..., 0], disc16.quad_points[..., 1]
    gx, gy = grad(x, y)
    exact_grad = np.stack(np.broadcast_arrays(gx, gy), axis=-1)
    values = disc16.field_at_quad(dofmap, coeffs)
    assert np.max(np.abs(values - f(x, y))) < 1e-12
    gradients = disc16.gradient_at_quad(dofmap, coeffs)
    assert np.max(np.abs(gradients - exact_grad)) < 1e-11


def test_triangle_geometry_matches_areas(mesh8):
    verts = mesh8.vertices[mesh8.triangles]
    detj, invjt = triangle_geometry(verts)
    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, 2] - verts[:, 0]
    double_area = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    assert np.allclose(detj, double_area, atol=1e-14)
    assert np.all(detj > 0)
    # inv(J)^T J^T = I for each cell
    J = np.stack([verts[:, 1] - verts[:, 0],
                  verts[:, 2] - verts[:, 0]], axis=-1)
    eye = np.einsum("tab,tcb->tac", invjt, J)
    assert np.allclose(eye, np.eye(2), atol=1e-12)

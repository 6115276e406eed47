"""Disk mesh generation, quality measures and the JSON exchange format."""

import json

import numpy as np
import pytest

from miscfem import (Mesh, MeshConstructionError, MeshFormatError,
                     generate_disk_mesh, load_mesh, mesh_quality, save_mesh)
from miscfem.meshing import signed_areas


@pytest.mark.parametrize("M", [8, 16, 32, 64])
def test_boundary_nodes_on_circle(M):
    mesh = generate_disk_mesh(M=M)
    r = np.hypot(mesh.vertices[:M, 0] - 0.5, mesh.vertices[:M, 1] - 0.5)
    assert np.allclose(r, 0.5, atol=1e-12)
    assert mesh.num_boundary_edges == M
    assert mesh.h_nominal == pytest.approx(1.0 / M)


@pytest.mark.parametrize("M", [8, 16, 32])
def test_triangles_positively_oriented(M):
    mesh = generate_disk_mesh(M=M)
    assert np.all(signed_areas(mesh.vertices, mesh.triangles) > 0)


@pytest.mark.parametrize("M", [8, 16, 32])
def test_boundary_is_closed_ccw_cycle(M):
    mesh = generate_disk_mesh(M=M)
    edges = mesh.boundary_edges
    assert np.array_equal(np.sort(edges[:, 0]), np.sort(edges[:, 1]))
    # each edge's head is the next edge's tail
    succ = dict(zip(edges[:, 0], edges[:, 1]))
    v = edges[0, 0]
    seen = set()
    for _ in range(len(edges)):
        assert v not in seen
        seen.add(v)
        v = succ[v]
    assert v == edges[0, 0]


def test_boundary_normals_outward_unit(mesh16):
    n = mesh16.boundary_normals
    assert np.allclose(np.hypot(n[:, 0], n[:, 1]), 1.0, atol=1e-13)
    mids = 0.5 * (mesh16.vertices[mesh16.boundary_edges[:, 0]]
                  + mesh16.vertices[mesh16.boundary_edges[:, 1]])
    outward = mids - np.array([0.5, 0.5])
    assert np.all(np.einsum("bd,bd->b", n, outward) > 0)


def test_boundary_tris_touch_their_edges(mesh16):
    for (a, b), t in zip(mesh16.boundary_edges, mesh16.boundary_tris):
        tri = set(mesh16.triangles[t])
        assert {a, b} <= tri


@pytest.mark.parametrize("M,min_angle,h_band", [
    (8, 30.0, (2.0, 5.0)),
    (16, 30.0, (2.0, 5.0)),
    (32, 30.0, (2.0, 5.0)),
    (64, 30.0, (2.0, 5.0)),
])
def test_mesh_quality_bands(M, min_angle, h_band):
    """Quasi-uniformity: h_max stays within a fixed multiple of 1/M and
    angles stay fat as the family refines (bands frozen from measured
    values with margin)."""
    q = mesh_quality(generate_disk_mesh(M=M))
    assert q.min_angle_deg >= min_angle
    lo, hi = h_band
    assert lo / M <= q.h_max <= hi / M
    assert q.h_min > 0.5 / M
    assert q.shape_regularity < 6.0


def test_mesh_arrays_read_only(mesh16):
    with pytest.raises(ValueError):
        mesh16.vertices[0, 0] = 99.0
    with pytest.raises(ValueError):
        mesh16.triangles[0, 0] = 0


def test_save_load_roundtrip(tmp_path, mesh16):
    path = tmp_path / "disk.json"
    save_mesh(mesh16, path)
    again = load_mesh(path)
    assert np.array_equal(again.vertices, mesh16.vertices)
    assert np.array_equal(again.triangles, mesh16.triangles)
    assert np.array_equal(again.boundary_edges, mesh16.boundary_edges)
    assert np.allclose(again.boundary_normals, mesh16.boundary_normals)


def test_saved_schema_keys(tmp_path, mesh8):
    path = tmp_path / "disk.json"
    save_mesh(mesh8, path)
    data = json.loads(path.read_text())
    assert set(data) == {"vertices", "triangles", "boundary_edges"}
    assert len(data["vertices"]) == mesh8.num_vertices


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"vertices": [[0, 0],\n  [1, 0],\n  oops\n]}')
    with pytest.raises(MeshFormatError) as err:
        load_mesh(path)
    assert err.value.line == 3


def test_load_rejects_missing_key(tmp_path):
    path = tmp_path / "nokey.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1]]}))
    with pytest.raises(MeshFormatError):
        load_mesh(path)


def test_load_rejects_out_of_range_indices(tmp_path):
    path = tmp_path / "range.json"
    path.write_text(json.dumps({
        "vertices": [[0, 0], [1, 0], [0, 1]],
        "triangles": [[0, 1, 7]],
        "boundary_edges": [[0, 1], [1, 2], [2, 0]]}))
    with pytest.raises(MeshFormatError):
        load_mesh(path)


def test_load_rejects_flipped_triangle(tmp_path):
    path = tmp_path / "flip.json"
    path.write_text(json.dumps({
        "vertices": [[0, 0], [1, 0], [0, 1]],
        "triangles": [[0, 2, 1]],
        "boundary_edges": [[0, 1], [1, 2], [2, 0]]}))
    with pytest.raises(MeshFormatError):
        load_mesh(path)


def test_generate_rejects_tiny_boundary_count():
    with pytest.raises((ValueError, MeshConstructionError)):
        generate_disk_mesh(M=3)


def write_mesh(path, vertices, triangles, boundary_edges):
    path.write_text(json.dumps({"vertices": vertices, "triangles": triangles,
                                "boundary_edges": boundary_edges}))
    return path


def test_load_rejects_edge_shared_by_three_triangles(tmp_path):
    path = write_mesh(tmp_path / "fan.json",
                      [[0, 0], [1, 0], [0.5, 1], [0.5, 2], [0.5, 3]],
                      [[0, 1, 2], [0, 1, 3], [0, 1, 4]],
                      [[0, 1], [1, 2], [2, 0]])
    with pytest.raises(MeshFormatError, match="shared by 3 triangles"):
        load_mesh(path)


@pytest.mark.parametrize("vertices,triangles,boundary_edges", [
    # two triangles touching at one vertex: vertex 0 starts two edges
    ([[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]],
     [[0, 1, 2], [0, 3, 4]],
     [[0, 1], [1, 2], [2, 0], [0, 3], [3, 4], [4, 0]]),
    # two disjoint triangles: two boundary cycles
    ([[0, 0], [1, 0], [0, 1], [3, 0], [4, 0], [3, 1]],
     [[0, 1, 2], [3, 4, 5]],
     [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]]),
], ids=["bow-tie", "two-cycles"])
def test_load_rejects_boundary_that_is_not_one_cycle(
        tmp_path, vertices, triangles, boundary_edges):
    path = write_mesh(tmp_path / "cycles.json", vertices, triangles,
                      boundary_edges)
    with pytest.raises(MeshFormatError):
        load_mesh(path)


SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]]
SQUARE_TRIANGLES = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]


@pytest.mark.parametrize("boundary_edges", [
    [[0, 3], [3, 2], [2, 1], [1, 0]],           # clockwise
    [[0, 1], [1, 2], [2, 3]],                   # one edge missing
    [[0, 1], [1, 2], [2, 3], [3, 0], [0, 4]],   # an interior edge added
    [[4, 0], [0, 1], [1, 2], [2, 3]],           # starts off the boundary
], ids=["clockwise", "missing", "interior", "off-boundary-start"])
def test_load_rejects_boundary_edges_that_disagree_with_triangles(
        tmp_path, boundary_edges):
    path = write_mesh(tmp_path / "square.json", SQUARE, SQUARE_TRIANGLES,
                      boundary_edges)
    with pytest.raises(MeshFormatError):
        load_mesh(path)


def test_load_accepts_rotated_boundary_cycle(tmp_path):
    path = write_mesh(tmp_path / "square.json", SQUARE, SQUARE_TRIANGLES,
                      [[2, 3], [3, 0], [0, 1], [1, 2]])
    mesh = load_mesh(path)
    assert mesh.boundary_edges.tolist() == [[2, 3], [3, 0], [0, 1], [1, 2]]
    assert mesh.boundary_tris.tolist() == [2, 3, 0, 1]

"""Deterministic quasi-uniform triangulations of a disk.

The generator places M equally spaced nodes on the circle, fills the
interior with concentric staggered rings at the same point pitch, and
triangulates with a Delaunay pass.  The boundary polygon is kept as-is
(no curved elements): the O(h^2) geometric consistency error this
introduces is accepted and documented in the package README.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay


class MeshFormatError(ValueError):
    """A mesh file could not be parsed or fails basic consistency checks."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MeshConstructionError(RuntimeError):
    """The generator produced a degenerate triangulation (should not happen)."""


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of a planar domain.

    vertices         : (V, 2) float array of node coordinates
    triangles        : (T, 3) int array, counterclockwise vertex triples
    boundary_edges   : (B, 2) int array of vertex pairs forming one closed
                       counterclockwise cycle around the boundary
    boundary_tris    : (B,) int array, owning triangle of each boundary edge
    boundary_normals : (B, 2) float array of unit outward normals
    h_nominal        : nominal mesh size 1/M, with M the boundary node count
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tris: np.ndarray
    boundary_normals: np.ndarray
    h_nominal: float

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_boundary_edges(self) -> int:
        return self.boundary_edges.shape[0]


@dataclass(frozen=True)
class QualityReport:
    """Shape metrics of a triangulation.

    shape_regularity is the worst ratio of triangle diameter to inradius
    (an equilateral triangle scores 2*sqrt(3) ~ 3.46).
    """

    min_angle_deg: float
    h_max: float
    h_min: float
    shape_regularity: float


def signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    return 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                  - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))


def _freeze(mesh: Mesh) -> Mesh:
    for arr in (mesh.vertices, mesh.triangles, mesh.boundary_edges,
                mesh.boundary_tris, mesh.boundary_normals):
        arr.flags.writeable = False
    return mesh


def edge_table(triangles):
    """Number the undirected edges of a triangulation in the order a walk
    over (triangle, local edge k from corner k to corner (k+1) % 3) first
    meets them.  Returns ``edges`` (E, 2), directed as in ``owners`` (E,),
    the first triangle that has the edge; ``counts`` (E,), the number of
    triangles sharing it; and ``cell_edges`` (T, 3), the edge numbers of
    each triangle's local edges."""
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


def _boundary_structure(vertices, triangles, start_vertex=None):
    """Extract the boundary cycle, owning triangles and outward normals.

    Requires counterclockwise triangles; the directed edges of the cycle
    then have the domain on their left, so the outward normal of edge
    (a, b) is the tangent rotated by -90 degrees.
    """
    edges, owners, counts, _ = edge_table(triangles)
    if counts.max() > 2:
        i = np.argmax(counts > 2)
        raise MeshConstructionError(f"edge {tuple(sorted(edges[i].tolist()))} "
                                    f"is shared by {counts[i]} triangles")
    if counts.min() > 1:
        raise MeshConstructionError("mesh has no boundary edges")
    tails, heads = edges[counts == 1].T
    owners = owners[counts == 1]
    vertex, starts = np.unique(tails, return_counts=True)
    if starts.max() > 1:
        raise MeshConstructionError(f"boundary is not a simple cycle at "
                                    f"vertex {vertex[np.argmax(starts)]}")

    # walk from the start vertex along the boundary edge leaving each vertex
    leaving = np.full(vertices.shape[0], -1)
    leaving[tails] = np.arange(tails.size)
    start = tails.min() if start_vertex is None else start_vertex
    cycle = [leaving[start]]
    while cycle[-1] >= 0 and heads[cycle[-1]] != start \
            and len(cycle) < tails.size:
        cycle.append(leaving[heads[cycle[-1]]])
    if cycle[-1] < 0 or heads[cycle[-1]] != start or len(cycle) < tails.size:
        raise MeshConstructionError("boundary edges do not form a closed cycle")

    edges = np.column_stack([tails[cycle], heads[cycle]])
    tangents = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    lengths = np.hypot(tangents[:, 0], tangents[:, 1])
    normals = np.column_stack([tangents[:, 1], -tangents[:, 0]]) / lengths[:, None]
    return edges, owners[cycle], normals


def generate_disk_mesh(center=(0.5, 0.5), radius=0.5, M=16) -> Mesh:
    """Triangulate the disk |x - center| < radius with M boundary nodes.

    The boundary nodes are equally spaced in angle; interior nodes sit on
    concentric rings whose radial spacing matches the boundary node pitch
    2*pi*radius/M (ring at radius r holds round(M*r/radius) nodes),
    alternate rings staggered by half a spacing, plus the center point.
    The point set is triangulated by a Delaunay pass, which for this
    convex cloud keeps every boundary segment as a mesh edge.

    Deterministic: identical arguments produce identical meshes.
    """
    if int(M) != M or M < 8:
        raise ValueError(f"boundary node count M must be an integer >= 8, got {M}")
    M = int(M)
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    cx, cy = float(center[0]), float(center[1])
    radius = float(radius)

    theta = 2.0 * math.pi * np.arange(M) / M
    points = [np.column_stack([cx + radius * np.cos(theta),
                               cy + radius * np.sin(theta)])]

    pitch = 2.0 * math.pi * radius / M
    j = 1
    while True:
        r = radius - j * pitch
        if r < 0.55 * pitch:
            break
        n = int(round(M * r / radius))
        phi = 2.0 * math.pi * np.arange(n) / n + (j % 2) * math.pi / n
        points.append(np.column_stack([cx + r * np.cos(phi),
                                       cy + r * np.sin(phi)]))
        j += 1
    points.append(np.array([[cx, cy]]))
    points = np.vstack(points)

    tri = Delaunay(points)
    if tri.coplanar.size:
        raise MeshConstructionError(
            f"Delaunay pass dropped {tri.coplanar.shape[0]} points")
    triangles = np.asarray(tri.simplices, dtype=np.int64)

    areas = signed_areas(points, triangles)
    flip = areas < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    areas = np.abs(areas)
    if np.any(areas <= 1e-12 * areas.max()):
        raise MeshConstructionError("degenerate triangle in generated mesh")

    edges, tris, normals = _boundary_structure(points, triangles, start_vertex=0)
    if edges.shape[0] != M or not np.array_equal(np.sort(edges[:, 0]), np.arange(M)):
        raise MeshConstructionError(
            f"expected {M} boundary edges on the first {M} vertices, "
            f"got {edges.shape[0]}")

    return _freeze(Mesh(vertices=points, triangles=triangles,
                        boundary_edges=edges, boundary_tris=tris,
                        boundary_normals=normals, h_nominal=1.0 / M))


def mesh_quality(mesh: Mesh) -> QualityReport:
    """Per-mesh shape metrics: worst angle, diameter range, regularity."""
    p = mesh.vertices[mesh.triangles]          # (T, 3, 2)
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    lengths = np.hypot(e[..., 0], e[..., 1])   # (T, 3), edge k opposite vertex k
    diam = lengths.max(axis=1)
    area = np.abs(signed_areas(mesh.vertices, mesh.triangles))
    inradius = 2.0 * area / lengths.sum(axis=1)

    # law of cosines per corner
    l2 = lengths ** 2
    angles = np.empty_like(lengths)
    for k in range(3):
        a, b, c = l2[:, k], l2[:, (k + 1) % 3], l2[:, (k + 2) % 3]
        cosang = (b + c - a) / (2.0 * np.sqrt(b * c))
        angles[:, k] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))

    return QualityReport(min_angle_deg=float(angles.min()),
                         h_max=float(diam.max()),
                         h_min=float(diam.min()),
                         shape_regularity=float((diam / inradius).max()))


def save_mesh(mesh: Mesh, path) -> None:
    """Write a mesh as plain JSON; coordinates round-trip exactly."""
    obj = {
        "vertices": [[float(x), float(y)] for x, y in mesh.vertices],
        "triangles": [[int(i) for i in tri] for tri in mesh.triangles],
        "boundary_edges": [[int(a), int(b)] for a, b in mesh.boundary_edges],
    }
    with open(path, "w") as f:
        json.dump(obj, f)
        f.write("\n")


def load_mesh(path) -> Mesh:
    """Read a JSON mesh file written by save_mesh.

    The owning triangles and outward normals of the boundary edges are
    reconstructed from the connectivity; h_nominal is 1 over the number
    of boundary edges.
    """
    with open(path) as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as exc:
            raise MeshFormatError(exc.msg, line=exc.lineno) from exc

    if not isinstance(obj, dict):
        raise MeshFormatError("top-level JSON value must be an object")
    for key in ("vertices", "triangles", "boundary_edges"):
        if key not in obj:
            raise MeshFormatError(f"missing required key {key!r}")

    try:
        vertices = np.array(obj["vertices"], dtype=np.float64)
        triangles = np.array(obj["triangles"], dtype=np.int64)
        pairs = np.array(obj["boundary_edges"], dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise MeshFormatError(f"malformed array data: {exc}") from exc

    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshFormatError("'vertices' must be a list of [x, y] pairs")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshFormatError("'triangles' must be a list of 3 vertex indices")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise MeshFormatError("'boundary_edges' must be a list of index pairs")

    V = vertices.shape[0]
    if triangles.size and (triangles.min() < 0 or triangles.max() >= V):
        raise MeshFormatError(
            f"triangle vertex index out of range [0, {V})")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= V):
        raise MeshFormatError(f"boundary edge index out of range [0, {V})")

    if np.any(signed_areas(vertices, triangles) <= 0):
        raise MeshFormatError("file contains a non-counterclockwise or "
                              "degenerate triangle")

    try:
        start = int(pairs[0, 0]) if pairs.size else None
        edges, tris, normals = _boundary_structure(vertices, triangles, start)
    except MeshConstructionError as exc:
        raise MeshFormatError(str(exc)) from exc
    if not np.array_equal(edges, pairs):
        raise MeshFormatError("'boundary_edges' does not match the boundary "
                              "cycle implied by the triangles")

    return _freeze(Mesh(vertices=vertices, triangles=triangles,
                        boundary_edges=edges, boundary_tris=tris,
                        boundary_normals=normals,
                        h_nominal=1.0 / edges.shape[0]))

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
from scipy.spatial import Delaunay, QhullError

from .solvers import number_pairs


class MeshFormatError(ValueError):
    """A mesh file could not be parsed or fails basic consistency checks."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MeshConstructionError(RuntimeError):
    """The generator produced a degenerate triangulation, or its Delaunay
    pass failed, as it does on disks too large or too small for qhull's
    arithmetic."""


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of a planar domain.

    vertices         : (V, 2) float array of node coordinates
    triangles        : (T, 3) int array, counterclockwise vertex triples
    boundary_edges   : (B, 2) int array of vertex pairs forming one closed
                       counterclockwise cycle around the boundary
    boundary_tris    : (B,) int array, owning triangle of each boundary edge
    boundary_normals : (B, 2) float array of unit outward normals
    edges            : (E, 2) int array, the undirected edges numbered as
                       by :func:`edge_table`
    cell_edges       : (T, 3) int array, the edge numbers of each
                       triangle's local edges (k, (k + 1) % 3)
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tris: np.ndarray
    boundary_normals: np.ndarray
    edges: np.ndarray
    cell_edges: np.ndarray

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
                mesh.boundary_tris, mesh.boundary_normals, mesh.edges,
                mesh.cell_edges):
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
    _, first, inverse = number_pairs(np.minimum(tails, heads),
                                     np.maximum(tails, heads),
                                     int(triangles.max()) + 1)
    # renumber the edges from sorted order to the order of the walk
    met = np.zeros(tails.size, dtype=bool)
    met[first] = True
    cell_edges = (np.cumsum(met)[first] - 1)[inverse]
    first = np.flatnonzero(met)
    return (np.column_stack([tails[first], heads[first]]), first // 3,
            np.bincount(cell_edges, minlength=first.size),
            cell_edges.reshape(-1, 3))


def _boundary_structure(vertices, edges, owners, counts, start_vertex=None):
    """Extract the boundary cycle, owning triangles and outward normals
    from the triangles' :func:`edge_table`.

    Requires counterclockwise triangles; the directed edges of the cycle
    then have the domain on their left, so the outward normal of edge
    (a, b) is the tangent rotated by -90 degrees.
    """
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


def _finite(name, value) -> float:
    """``value`` as a float; a boolean or anything but a finite number is
    a ValueError."""
    try:
        finite = not isinstance(value, (bool, np.bool_)) and math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def generate_disk_mesh(center=(0.5, 0.5), radius=0.5, M=16) -> Mesh:
    """Triangulate the disk |x - center| < radius with M boundary nodes.

    The boundary nodes are equally spaced in angle; interior nodes sit on
    concentric rings whose radial spacing matches the boundary node pitch
    2*pi*radius/M (ring at radius r holds round(M*r/radius) nodes),
    alternate rings staggered by half a spacing, plus the center point.
    The point set is triangulated by a Delaunay pass, which for this
    convex cloud keeps every boundary segment as a mesh edge.

    Deterministic: identical arguments produce identical meshes.  A
    boolean or non-finite M, center coordinate or radius, a center that
    is not a pair, or a radius that is not positive is a ValueError.
    """
    if _finite("M", M) != int(M) or M < 8:
        raise ValueError(f"boundary node count M must be an integer >= 8, got {M}")
    M = int(M)
    cx, cy = (_finite(f"center[{i}]", v) for i, v in enumerate(center))
    radius = _finite("radius", radius)
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")

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

    try:
        tri = Delaunay(points)
    except QhullError as exc:
        raise MeshConstructionError(f"Delaunay pass failed: "
                                    f"{str(exc).splitlines()[0]}") from exc
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

    all_edges, owners, counts, cell_edges = edge_table(triangles)
    edges, tris, normals = _boundary_structure(points, all_edges, owners,
                                               counts, start_vertex=0)
    if edges.shape[0] != M or not np.array_equal(np.sort(edges[:, 0]), np.arange(M)):
        raise MeshConstructionError(
            f"expected {M} boundary edges on the first {M} vertices, "
            f"got {edges.shape[0]}")

    return _freeze(Mesh(vertices=points, triangles=triangles,
                        boundary_edges=edges, boundary_tris=tris,
                        boundary_normals=normals, edges=all_edges,
                        cell_edges=cell_edges))


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


def _table(rows, width, types, dtype, message):
    """A non-empty JSON list of ``width``-long rows whose entries all have
    one of the exact Python ``types`` (so booleans, strings and, for
    indices, floats are refused), as a (len, width) array."""
    if not (isinstance(rows, list) and rows and all(
            isinstance(row, list) and len(row) == width
            and all(type(v) in types for v in row) for row in rows)):
        raise MeshFormatError(message)
    try:
        return np.array(rows, dtype=dtype)
    except OverflowError as exc:
        raise MeshFormatError(f"{message}: {exc}") from exc


def load_mesh(path) -> Mesh:
    """Read a JSON mesh file written by save_mesh.

    The owning triangles and outward normals of the boundary edges are
    reconstructed from the connectivity.
    """
    try:
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
    except UnicodeDecodeError as exc:
        raise MeshFormatError(f"not UTF-8 text at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise MeshFormatError(exc.msg, line=exc.lineno) from exc
    except RecursionError as exc:   # the decoder recurses per nesting level
        raise MeshFormatError("JSON nested too deeply") from exc

    if not isinstance(obj, dict):
        raise MeshFormatError("top-level JSON value must be an object")
    for key in ("vertices", "triangles", "boundary_edges"):
        if key not in obj:
            raise MeshFormatError(f"missing required key {key!r}")

    vertices = _table(obj["vertices"], 2, (int, float), np.float64,
                      "'vertices' must be a list of [x, y] pairs")
    triangles = _table(obj["triangles"], 3, (int,), np.int64,
                       "'triangles' must be a list of 3 vertex indices")
    pairs = _table(obj["boundary_edges"], 2, (int,), np.int64,
                   "'boundary_edges' must be a list of index pairs")
    if not np.all(np.isfinite(vertices)):
        raise MeshFormatError("vertex coordinates must be finite")

    V = vertices.shape[0]
    if triangles.min() < 0 or triangles.max() >= V:
        raise MeshFormatError(
            f"triangle vertex index out of range [0, {V})")
    if pairs.min() < 0 or pairs.max() >= V:
        raise MeshFormatError(f"boundary edge index out of range [0, {V})")

    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        areas = signed_areas(vertices, triangles)
        if np.any(areas <= 0):
            raise MeshFormatError("file contains a non-counterclockwise or "
                                  "degenerate triangle")
        all_edges, owners, counts, cell_edges = edge_table(triangles)
        try:
            edges, tris, normals = _boundary_structure(
                vertices, all_edges, owners, counts, int(pairs[0, 0]))
        except MeshConstructionError as exc:
            raise MeshFormatError(str(exc)) from exc
    if not np.array_equal(edges, pairs):
        raise MeshFormatError("'boundary_edges' does not match the boundary "
                              "cycle implied by the triangles")
    if not (np.all(np.isfinite(areas)) and np.all(np.isfinite(normals))):
        raise MeshFormatError("vertex coordinates too large: triangle areas "
                              "or boundary normals overflow")

    return _freeze(Mesh(vertices=vertices, triangles=triangles,
                        boundary_edges=edges, boundary_tris=tris,
                        boundary_normals=normals, edges=all_edges,
                        cell_edges=cell_edges))

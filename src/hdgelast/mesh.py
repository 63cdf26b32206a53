"""Structured 2D meshes of the unit square, stored as arrays.

Two deterministic families are provided: a right-triangle mesh (every grid
square split along its lower-left to upper-right diagonal) and a trapezoidal
quadrilateral mesh obtained by shifting interior grid vertices vertically in
an alternating pattern. Both are conforming and counterclockwise oriented,
and both halve the mesh size exactly when the subdivision count doubles.
Every mesh, built-in or read from a file, comes from one construction that
rejects degenerate edges, edges shared by more than two elements, and
non-convex elements.

A mesh is a set of flat arrays, with no per-element or per-face objects.
Element e owns the slots ``element_offsets[e]:element_offsets[e + 1]`` of
``element_vertices`` (its vertices, counterclockwise) and of
``element_faces`` (the face of each edge; edge j joins local vertices j and
j+1 mod m), so elements of different face counts share one layout. The face
table has one row per edge, numbered by first appearance in (element, edge)
order: the end vertices in the counterclockwise order of the element on
its left, the left and right elements (right is -1 on the boundary), the
unit normal pointing out of the left element, and the length. All arrays
are read-only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError

__all__ = [
    "Mesh",
    "MeshConstructionError",
    "build_unit_square_tri",
    "build_unit_square_poly",
    "build_mesh",
    "validate",
    "write_mesh_text",
    "read_mesh_text",
]

# Vertical shift of interior grid vertices in the quadrilateral family,
# relative to the cell width 1/n. Convexity of every cell requires < 0.5.
POLY_SHIFT = 0.15


class MeshConstructionError(ConfigError):
    """Raised when a requested mesh cannot be built."""


@dataclass
class Mesh:
    """Conforming polygonal mesh of the unit square (layout: module docstring).

    Attributes
    ----------
    vertices : (nv, 2) float array
    element_offsets : (ne + 1,) int array, element e owns slots
        element_offsets[e]:element_offsets[e + 1]
    element_vertices : (slots,) vertex ids, counterclockwise per element
    element_faces : (slots,) face ids in edge order per element
    face_vertices : (nf, 2) end vertices (v0, v1), counterclockwise for
        the left element
    face_left, face_right : (nf,) element ids; face_right is -1 on the boundary
    face_normal : (nf, 2) unit normal pointing out of face_left
    face_length : (nf,)
    h : max element diameter (max pairwise vertex distance)
    """

    vertices: np.ndarray
    element_offsets: np.ndarray
    element_vertices: np.ndarray
    element_faces: np.ndarray
    face_vertices: np.ndarray
    face_left: np.ndarray
    face_right: np.ndarray
    face_normal: np.ndarray
    face_length: np.ndarray
    h: float

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_elements(self) -> int:
        return len(self.element_offsets) - 1

    @property
    def num_faces(self) -> int:
        return len(self.face_length)

    @property
    def face_counts(self) -> np.ndarray:
        """Number of faces (= vertices) of every element."""
        return np.diff(self.element_offsets)

    def element_groups(self) -> list[tuple[int, np.ndarray]]:
        """(face count m, ascending ids of the elements with m faces), by m."""
        return _groups(self.face_counts)

    def slots(self, elements) -> np.ndarray:
        """Slots of elements sharing a face count m in element_vertices /
        element_faces, shape (B, m)."""
        return _slots(self.element_offsets, np.asarray(elements))

    def polygons(self, elements) -> np.ndarray:
        """Vertex coordinates of elements sharing a face count, (B, m, 2)."""
        return self.vertices[self.element_vertices[self.slots(elements)]]

    def boundary_faces(self) -> np.ndarray:
        return np.flatnonzero(self.face_right < 0)

    def interior_faces(self) -> np.ndarray:
        return np.flatnonzero(self.face_right >= 0)


def _groups(counts: np.ndarray) -> list[tuple[int, np.ndarray]]:
    return [(int(m), np.flatnonzero(counts == m)) for m in np.unique(counts)]


def _slots(offsets: np.ndarray, elements: np.ndarray) -> np.ndarray:
    start = offsets[elements]
    m = offsets[elements + 1] - start
    if len(m) and np.any(m != m[0]):
        raise ValueError("stacked elements must share a face count")
    return start[:, None] + np.arange(m[0] if len(m) else 0)


def _cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y


def polygon_areas(pts: np.ndarray) -> np.ndarray:
    """Signed areas of polygons given as (..., m, 2) vertex arrays."""
    x, y = pts[..., 0], pts[..., 1]
    return 0.5 * np.sum(_cross(x, y), axis=-1)


def polygon_centroids(pts: np.ndarray) -> np.ndarray:
    """Centroids of polygons given as (..., m, 2) vertex arrays."""
    x, y = pts[..., 0], pts[..., 1]
    cross = _cross(x, y)
    a = 0.5 * np.sum(cross, axis=-1)
    cx = np.sum((x + np.roll(x, -1, axis=-1)) * cross, axis=-1) / (6.0 * a)
    cy = np.sum((y + np.roll(y, -1, axis=-1)) * cross, axis=-1) / (6.0 * a)
    return np.stack([cx, cy], axis=-1)


def _polygon_diameters(pts: np.ndarray) -> np.ndarray:
    """Largest vertex distance of polygons given as (..., m, 2) arrays."""
    d = pts[..., :, None, :] - pts[..., None, :, :]
    return np.sqrt((d**2).sum(-1)).max(axis=(-2, -1))


def _turns(pts: np.ndarray) -> np.ndarray:
    """Cross products of edge i and edge i+1 of polygons given as (..., m, 2)
    arrays: positive for a left turn at vertex i+1."""
    u = np.roll(pts, -1, axis=-2) - pts
    v = np.roll(u, -1, axis=-2)
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _has_reflex_vertex(pts: np.ndarray) -> np.ndarray:
    """Whether polygons given as (..., m, 2) arrays turn against their own
    orientation (the sign of their area) at some vertex, i.e. have an
    interior angle above pi. Zero turns and zero-area polygons pass: such
    degenerate elements are reported by the edge and basis checks."""
    return np.any(_turns(pts) * polygon_areas(pts)[..., None] < 0.0, axis=-1)


def _assemble(vertices: np.ndarray, elements) -> Mesh:
    """Derive the face table, normals and h from vertex/element data.

    ``elements`` is an (E, m) integer array, or a sequence of
    counterclockwise vertex-index sequences of any lengths. Raises
    MeshConstructionError naming the first element with a degenerate edge,
    an edge shared by more than two elements, or a reflex vertex; a
    clockwise element is built, and reported by ``validate``."""
    vertices = np.asarray(vertices, dtype=float)
    if isinstance(elements, np.ndarray):
        counts = np.full(len(elements), elements.shape[1])
        flat = elements.ravel()
    else:
        counts = np.array([len(p) for p in elements], dtype=int)
        flat = np.fromiter(itertools.chain.from_iterable(elements), dtype=int)
    offsets = np.concatenate([[0], np.cumsum(counts)])

    # half-edges in (element, edge) order, from each vertex to the next one
    # of its element
    owner = np.repeat(np.arange(len(counts)), counts)
    nxt = np.arange(1, len(flat) + 1)
    nxt[offsets[1:] - 1] = offsets[:-1]
    a, b = flat, flat[nxt]
    key = np.minimum(a, b) * len(vertices) + np.maximum(a, b)
    _, first, inverse, uses = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    # number faces by first appearance
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    element_faces = rank[inverse]
    first, uses = first[order], uses[order]
    # half-edges of each face in order of appearance: its k-th use is
    # by_face[start + k]
    by_face = np.argsort(element_faces, kind="stable")
    start = np.cumsum(uses) - uses

    t = vertices[b[first]] - vertices[a[first]]
    length = np.hypot(t[:, 0], t[:, 1])
    # the first offending half-edge: a degenerate edge's first use, or the
    # third use of an edge
    bad = np.concatenate([first[length == 0.0], by_face[start[uses > 2] + 2]])
    if len(bad):
        i = bad.min()
        if length[element_faces[i]] == 0.0:
            raise MeshConstructionError(f"degenerate edge in element {owner[i]}")
        edge = (int(min(a[i], b[i])), int(max(a[i], b[i])))
        raise MeshConstructionError(f"edge {edge} shared by more than two elements")
    t /= length[:, None]
    right = np.full(len(first), -1)
    shared = uses == 2
    right[shared] = owner[by_face[start[shared] + 1]]

    groups = [(ids, vertices[flat[_slots(offsets, ids)]]) for _, ids in _groups(counts)]
    reflex = np.concatenate([ids[_has_reflex_vertex(polys)] for ids, polys in groups])
    if len(reflex):
        raise MeshConstructionError(f"non-convex element {reflex.min()}")
    h = max(float(_polygon_diameters(polys).max()) for _, polys in groups)
    mesh = Mesh(
        vertices=vertices,
        element_offsets=offsets,
        element_vertices=flat,
        element_faces=element_faces,
        face_vertices=np.stack([a[first], b[first]], axis=1),
        face_left=owner[first],
        face_right=right,
        face_normal=np.stack([t[:, 1], -t[:, 0]], axis=1),
        face_length=length,
        h=h,
    )
    for f in fields(mesh):
        value = getattr(mesh, f.name)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return mesh


def _cells(n: int) -> np.ndarray:
    """Lower-left vertex id of every cell of the (n+1) x (n+1) vertex grid
    (vertex (i, j) has id j (n+1) + i), row by row."""
    return (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()


def build_unit_square_tri(n: int) -> Mesh:
    """Uniform right-triangle mesh: n x n squares, each split along the
    lower-left to upper-right diagonal. 2n^2 triangles, h = sqrt(2)/n."""
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    x, y = np.meshgrid(xs, xs)
    vertices = np.stack([x.ravel(), y.ravel()], axis=1)
    # lower triangle (a, b, c), then upper (a, c, d) of each cell a-b-c-d
    corners = np.array([[0, 1, n + 2], [0, n + 2, n + 1]])
    elements = (_cells(n)[:, None, None] + corners).reshape(-1, 3)
    return _assemble(vertices, elements)


def build_unit_square_poly(n: int) -> Mesh:
    """Trapezoidal quadrilateral mesh: n x n cells whose interior vertices
    are shifted vertically by +-POLY_SHIFT/n in a checkerboard pattern.

    Every cell is a convex quadrilateral (generically a proper trapezoid,
    so the family is not affine-equivalent to the unit square)."""
    if n < 2:
        raise ValueError(f"subdivision count must be >= 2 for the quad family, got {n}")
    w = 1.0 / n
    amp = POLY_SHIFT * w
    i = np.tile(np.arange(n + 1), n + 1)
    j = np.repeat(np.arange(n + 1), n + 1)
    x, y = i * w, j * w
    interior = (0 < i) & (i < n) & (0 < j) & (j < n)
    y[interior] += np.where((i + j) % 2 == 0, amp, -amp)[interior]
    elements = _cells(n)[:, None] + np.array([0, 1, n + 2, n + 1])
    vertices = np.stack([x, y], axis=1)
    # the check _assemble makes, ahead of it, so that the error names the
    # perturbation as the cause
    reflex = _has_reflex_vertex(vertices[elements])
    if reflex.any():
        raise MeshConstructionError(
            f"perturbation produced a non-convex element {int(np.argmax(reflex))}"
        )
    return _assemble(vertices, elements)


def build_mesh(kind: str, n: int) -> Mesh:
    if kind == "tri":
        return build_unit_square_tri(n)
    if kind == "poly":
        return build_unit_square_poly(n)
    raise ValueError(f"unknown mesh family {kind!r} (expected 'tri' or 'poly')")


def validate(mesh: Mesh) -> list[str]:
    """Check mesh invariants; returns a list of violation messages.

    Checks orientation (positive area, counterclockwise), conformity
    (each face used by one or two elements, no duplicated faces), normal
    direction and normalization, total area, and the Euler relation.
    """
    problems: list[str] = []

    areas = np.empty(mesh.num_elements)
    centroids = np.empty((mesh.num_elements, 2))
    for _, ids in mesh.element_groups():
        polys = mesh.polygons(ids)
        areas[ids] = polygon_areas(polys)
        centroids[ids] = polygon_centroids(polys)
    for e in np.flatnonzero(areas <= 0.0):
        problems.append(f"orientation: element {e} has non-positive signed area {areas[e]:.3e}")
    if abs(areas.sum() - 1.0) > 1e-12:
        problems.append(f"area: element areas sum to {areas.sum():.15f}, expected 1")

    lo, hi = np.sort(mesh.face_vertices, axis=1).T
    key = lo * mesh.num_vertices + hi
    order = np.argsort(key, kind="stable")
    repeat = np.flatnonzero(np.diff(key[order]) == 0)
    earlier, later = order[repeat], order[repeat + 1]
    for i, j in sorted(zip(later, earlier)):
        edge = (int(lo[i]), int(hi[i]))
        problems.append(f"conformity: faces {j} and {i} duplicate edge {edge}")

    use_count = np.bincount(mesh.element_faces, minlength=mesh.num_faces)
    expected = np.where(mesh.face_right >= 0, 2, 1)
    for i in np.flatnonzero(use_count != expected):
        problems.append(
            f"conformity: face {i} referenced by {use_count[i]} elements, expected {expected[i]}"
        )

    nvec = mesh.face_normal
    nlen = np.hypot(nvec[:, 0], nvec[:, 1])
    mid = 0.5 * (mesh.vertices[mesh.face_vertices[:, 0]] + mesh.vertices[mesh.face_vertices[:, 1]])
    offset = centroids[mesh.face_left] - mid
    bad_length = np.abs(nlen - 1.0) > 1e-14
    inward = offset[:, 0] * nvec[:, 0] + offset[:, 1] * nvec[:, 1] >= 0.0
    for i in np.flatnonzero(bad_length | inward):
        if bad_length[i]:
            problems.append(f"normal: face {i} normal has length {nlen[i]:.16f}")
        if inward[i]:
            problems.append(
                f"normal: face {i} normal does not point out of element {mesh.face_left[i]}"
            )

    euler = mesh.num_vertices - mesh.num_faces + mesh.num_elements
    if euler != 1:
        problems.append(f"euler: V - E + F = {euler}, expected 1")

    return problems


def write_mesh_text(mesh: Mesh, path: str) -> None:
    """Dump the mesh in a plain-text format (see README for the layout).
    Coordinates, normals and lengths are written with 17 significant
    digits, so read_mesh_text recovers them exactly."""
    lines = ["# hdgelast mesh v1", f"vertices {mesh.num_vertices}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in mesh.vertices.tolist()]
    lines.append(f"elements {mesh.num_elements}")
    polys = np.split(mesh.element_vertices, mesh.element_offsets[1:-1])
    lines += [" ".join(map(str, poly.tolist())) for poly in polys]
    lines.append(f"faces {mesh.num_faces}")
    ends = np.column_stack([mesh.face_vertices, mesh.face_left, mesh.face_right])
    lines += [
        f"{v0} {v1} {left} {right} {nx:.17g} {ny:.17g} {length:.17g}"
        for (v0, v1, left, right), (nx, ny), length in zip(
            ends.tolist(), mesh.face_normal.tolist(), mesh.face_length.tolist()
        )
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh_text(path: str) -> Mesh:
    """Read a mesh written by write_mesh_text.

    The mesh is rebuilt through the same construction as the built-in
    families from the ``vertices`` and ``elements`` sections; the stored
    ``faces`` section must equal the rebuilt face table exactly, else
    MeshConstructionError names the first disagreeing face."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# hdgelast mesh"):
        raise MeshConstructionError(f"{path}: not an hdgelast mesh file")
    sections = {}
    pos = 1
    for name in ("vertices", "elements", "faces"):
        head = lines[pos].split() if pos < len(lines) else []
        if len(head) != 2 or head[0] != name:
            raise MeshConstructionError(f"{path}: expected a '{name} N' line at line {pos + 1}")
        count = int(head[1])
        sections[name] = [line.split() for line in lines[pos + 1 : pos + 1 + count]]
        if len(sections[name]) != count:
            raise MeshConstructionError(f"{path}: {name} section ends early")
        pos += 1 + count
    vertices = np.array([[float(x) for x in row] for row in sections["vertices"]])
    elements = [[int(v) for v in row] for row in sections["elements"]]
    mesh = _assemble(vertices.reshape(-1, 2), elements)
    stored = np.array([[float(x) for x in row] for row in sections["faces"]]).reshape(-1, 7)
    rebuilt = np.column_stack(
        [mesh.face_vertices, mesh.face_left, mesh.face_right, mesh.face_normal, mesh.face_length]
    )
    if stored.shape != rebuilt.shape:
        raise MeshConstructionError(
            f"{path}: faces section holds {len(stored)} faces, the mesh has {len(rebuilt)}"
        )
    differs = np.any(stored != rebuilt, axis=1)
    if differs.any():
        raise MeshConstructionError(
            f"{path}: stored face {int(np.argmax(differs))} disagrees with the rebuilt face table"
        )
    return mesh

"""Structured 2D meshes of the unit square, stored as arrays.

Two deterministic families are provided: a right-triangle mesh (every grid
square split along its lower-left to upper-right diagonal) and a trapezoidal
quadrilateral mesh obtained by shifting interior grid vertices vertically in
an alternating pattern. Both are conforming and counterclockwise oriented,
and both halve the mesh size exactly when the subdivision count doubles.
Every mesh comes from one construction that rejects degenerate edges, edges
shared by more than two elements, and non-convex elements.

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
    "TRANSLATION_GRID",
]

# Vertical shift of interior grid vertices in the quadrilateral family,
# relative to the cell width 1/n. Convexity of every cell requires < 0.5.
POLY_SHIFT = 0.15

# Grid of the translation-class key, relative to h: vertex offsets that
# round to the same multiple of TRANSLATION_GRID * h count as equal.
TRANSLATION_GRID = 2.0**-40


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

    def translation_classes(self, elements) -> tuple[np.ndarray, np.ndarray]:
        """Translation classes of elements sharing a face count: elements
        with the same side (left or right) of each of their faces and the
        same vertex offsets from their first vertex, in multiples of
        TRANSLATION_GRID * h. Returns the positions in ``elements`` of the
        class representatives, each class's first element, in ascending
        order, and the class of every element, (B,)."""
        elements = np.asarray(elements)
        slots = self.slots(elements)
        polys = self.vertices[self.element_vertices[slots]]
        offsets = np.rint((polys[:, 1:] - polys[:, :1]) / (TRANSLATION_GRID * self.h))
        sides = self.face_left[self.element_faces[slots]] != elements[:, None]
        key = np.concatenate([sides, offsets.reshape(len(elements), -1)], axis=1)
        # a stable sort by key puts each class's lowest element first
        order = np.lexsort(key.T)
        key = key[order]
        new = np.concatenate([[True], (key[1:] != key[:-1]).any(axis=1)])
        first = order[new]
        by_first = np.argsort(first)
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(len(first))
        cls = np.empty_like(order)
        cls[order] = rank[np.cumsum(new) - 1]
        return first[by_first], cls

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
    an edge shared by more than two elements, or a reflex vertex. A
    clockwise element is not rejected; both built-in families are
    counterclockwise."""
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


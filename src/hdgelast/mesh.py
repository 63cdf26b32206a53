"""Structured 2D meshes of the unit square with oriented faces.

Two deterministic families are provided: a right-triangle mesh (every grid
square split along its lower-left to upper-right diagonal) and a trapezoidal
quadrilateral mesh obtained by shifting interior grid vertices vertically in
an alternating pattern. Both are conforming and counterclockwise oriented,
and both halve the mesh size exactly when the subdivision count doubles.

Meshes are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Face",
    "Mesh",
    "build_unit_square_tri",
    "build_unit_square_poly",
    "build_mesh",
    "validate",
    "write_mesh_text",
]

# Vertical shift of interior grid vertices in the quadrilateral family,
# relative to the cell width 1/n. Convexity of every cell requires < 0.5.
POLY_SHIFT = 0.15


class MeshConstructionError(Exception):
    """Raised when a requested mesh cannot be built."""


@dataclass(frozen=True)
class Face:
    """Oriented mesh edge.

    The stored unit normal points out of ``left``. ``right`` is None for
    boundary faces. Vertex order (v0, v1) follows the counterclockwise
    traversal of the left element.
    """

    v0: int
    v1: int
    left: int
    right: int | None
    normal: tuple[float, float]
    length: float

    @property
    def is_boundary(self) -> bool:
        return self.right is None


@dataclass
class Mesh:
    """Conforming polygonal mesh of the unit square.

    Attributes
    ----------
    vertices : (nv, 2) float array
    elements : tuple of vertex-index tuples, counterclockwise
    faces : tuple of Face
    element_faces : per element, the face indices in edge order
        (edge j joins local vertices j and j+1 mod m)
    h : max element diameter (max pairwise vertex distance)
    """

    vertices: np.ndarray
    elements: tuple[tuple[int, ...], ...]
    faces: tuple[Face, ...]
    element_faces: tuple[tuple[int, ...], ...]
    h: float
    family: str = "custom"
    n: int = 0
    _diameters: np.ndarray = field(repr=False, default=None)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_elements(self) -> int:
        return len(self.elements)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def polygon(self, e: int) -> np.ndarray:
        """Vertex coordinates of element ``e``, shape (m, 2)."""
        return self.vertices[list(self.elements[e])]

    def polygons(self, elements) -> np.ndarray:
        """Vertex coordinates of elements sharing a face count, (B, m, 2)."""
        return self.vertices[np.array([self.elements[e] for e in elements])]

    def area(self, e: int) -> float:
        return float(polygon_areas(self.polygon(e)))

    def centroid(self, e: int) -> np.ndarray:
        return polygon_centroids(self.polygon(e))

    def diameter(self, e: int) -> float:
        return float(self._diameters[e])

    def boundary_faces(self) -> list[int]:
        return [i for i, f in enumerate(self.faces) if f.is_boundary]

    def interior_faces(self) -> list[int]:
        return [i for i, f in enumerate(self.faces) if not f.is_boundary]

    def outward_normal(self, e: int, face_id: int) -> np.ndarray:
        """Unit normal of ``face_id`` pointing out of element ``e``."""
        f = self.faces[face_id]
        n = np.array(f.normal)
        return n if f.left == e else -n


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


def _polygon_diameter(pts: np.ndarray) -> float:
    d = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((d**2).sum(-1)).max())


def _polygon_is_convex(pts: np.ndarray) -> bool:
    m = len(pts)
    for i in range(m):
        a, b, c = pts[i], pts[(i + 1) % m], pts[(i + 2) % m]
        u, v = b - a, c - b
        if u[0] * v[1] - u[1] * v[0] <= 0.0:
            return False
    return True


def _assemble(vertices: np.ndarray, elements: list[tuple[int, ...]], family: str, n: int) -> Mesh:
    """Derive faces, normals and diameters from vertex/element data."""
    vertices = np.asarray(vertices, dtype=float)
    edge_of: dict[tuple[int, int], int] = {}
    faces: list[dict] = []
    element_faces: list[tuple[int, ...]] = []

    for e, poly in enumerate(elements):
        m = len(poly)
        ids = []
        for j in range(m):
            a, b = poly[j], poly[(j + 1) % m]
            key = (min(a, b), max(a, b))
            if key not in edge_of:
                t = vertices[b] - vertices[a]
                length = float(np.hypot(*t))
                if length == 0.0:
                    raise MeshConstructionError(f"degenerate edge in element {e}")
                t /= length
                normal = (float(t[1]), float(-t[0]))
                edge_of[key] = len(faces)
                faces.append(
                    {"v0": a, "v1": b, "left": e, "right": None, "normal": normal, "length": length}
                )
            else:
                rec = faces[edge_of[key]]
                if rec["right"] is not None:
                    raise MeshConstructionError(f"edge {key} shared by more than two elements")
                rec["right"] = e
            ids.append(edge_of[key])
        element_faces.append(tuple(ids))

    face_objs = tuple(Face(**rec) for rec in faces)
    diameters = np.array([_polygon_diameter(vertices[list(p)]) for p in elements])
    vertices.setflags(write=False)
    diameters.setflags(write=False)
    return Mesh(
        vertices=vertices,
        elements=tuple(tuple(p) for p in elements),
        faces=face_objs,
        element_faces=tuple(element_faces),
        h=float(diameters.max()),
        family=family,
        n=n,
        _diameters=diameters,
    )


def build_unit_square_tri(n: int) -> Mesh:
    """Uniform right-triangle mesh: n x n squares, each split along the
    lower-left to upper-right diagonal. 2n^2 triangles, h = sqrt(2)/n."""
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    vid = lambda i, j: j * (n + 1) + i
    vertices = np.array([[xs[i], xs[j]] for j in range(n + 1) for i in range(n + 1)])
    elements: list[tuple[int, ...]] = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            elements.append((a, b, c))
            elements.append((a, c, d))
    return _assemble(vertices, elements, "tri", n)


def build_unit_square_poly(n: int) -> Mesh:
    """Trapezoidal quadrilateral mesh: n x n cells whose interior vertices
    are shifted vertically by +-POLY_SHIFT/n in a checkerboard pattern.

    Every cell is a convex quadrilateral (generically a proper trapezoid,
    so the family is not affine-equivalent to the unit square)."""
    if n < 2:
        raise ValueError(f"subdivision count must be >= 2 for the quad family, got {n}")
    w = 1.0 / n
    amp = POLY_SHIFT * w
    vid = lambda i, j: j * (n + 1) + i
    vertices = np.zeros(((n + 1) ** 2, 2))
    for j in range(n + 1):
        for i in range(n + 1):
            x, y = i * w, j * w
            if 0 < i < n and 0 < j < n:
                y += amp if (i + j) % 2 == 0 else -amp
            vertices[vid(i, j)] = (x, y)
    elements = []
    for j in range(n):
        for i in range(n):
            elements.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)))
    mesh = _assemble(vertices, elements, "poly", n)
    for e in range(mesh.num_elements):
        if not _polygon_is_convex(mesh.polygon(e)):
            raise MeshConstructionError(f"perturbation produced a non-convex element {e}")
    return mesh


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

    areas = np.array([mesh.area(e) for e in range(mesh.num_elements)])
    for e, a in enumerate(areas):
        if a <= 0.0:
            problems.append(f"orientation: element {e} has non-positive signed area {a:.3e}")
    if abs(areas.sum() - 1.0) > 1e-12:
        problems.append(f"area: element areas sum to {areas.sum():.15f}, expected 1")

    seen: dict[tuple[int, int], int] = {}
    for i, f in enumerate(mesh.faces):
        key = (min(f.v0, f.v1), max(f.v0, f.v1))
        if key in seen:
            problems.append(f"conformity: faces {seen[key]} and {i} duplicate edge {key}")
        seen[key] = i

    use_count = np.zeros(mesh.num_faces, dtype=int)
    for ids in mesh.element_faces:
        for fid in ids:
            use_count[fid] += 1
    for i, f in enumerate(mesh.faces):
        expected = 1 if f.is_boundary else 2
        if use_count[i] != expected:
            problems.append(
                f"conformity: face {i} referenced by {use_count[i]} elements, expected {expected}"
            )

    for i, f in enumerate(mesh.faces):
        nvec = np.array(f.normal)
        if abs(np.hypot(*nvec) - 1.0) > 1e-14:
            problems.append(f"normal: face {i} normal has length {np.hypot(*nvec):.16f}")
        mid = 0.5 * (mesh.vertices[f.v0] + mesh.vertices[f.v1])
        if np.dot(mesh.centroid(f.left) - mid, nvec) >= 0.0:
            problems.append(f"normal: face {i} normal does not point out of element {f.left}")

    euler = mesh.num_vertices - mesh.num_faces + mesh.num_elements
    if euler != 1:
        problems.append(f"euler: V - E + F = {euler}, expected 1")

    return problems


def write_mesh_text(mesh: Mesh, path: str) -> None:
    """Dump the mesh in a plain-text format (see README for the layout)."""
    with open(path, "w") as fh:
        fh.write("# hdgelast mesh v1\n")
        fh.write(f"vertices {mesh.num_vertices}\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g}\n")
        fh.write(f"elements {mesh.num_elements}\n")
        for poly in mesh.elements:
            fh.write(" ".join(str(i) for i in poly) + "\n")
        fh.write(f"faces {mesh.num_faces}\n")
        for f in mesh.faces:
            right = -1 if f.right is None else f.right
            fh.write(
                f"{f.v0} {f.v1} {f.left} {right} "
                f"{f.normal[0]:.17g} {f.normal[1]:.17g} {f.length:.17g}\n"
            )

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdgelast import mesh as M

FACE_TABLE = ("face_vertices", "face_left", "face_right", "face_normal", "face_length")


def validate(mesh: M.Mesh) -> list[str]:
    """Check mesh invariants; returns a list of violation messages. The
    test oracle for the meshes that ``M._assemble`` builds.

    Checks orientation (positive area, counterclockwise), conformity
    (each face used by one or two elements, no duplicated faces), normal
    direction and normalization, total area, and the Euler relation.
    """
    problems: list[str] = []

    areas = np.empty(mesh.num_elements)
    centroids = np.empty((mesh.num_elements, 2))
    for _, ids in mesh.element_groups():
        polys = mesh.polygons(ids)
        areas[ids] = M.polygon_areas(polys)
        centroids[ids] = M.polygon_centroids(polys)
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


@pytest.mark.parametrize("n", range(1, 17))
def test_tri_census_and_euler(n):
    m = M.build_unit_square_tri(n)
    assert m.num_elements == 2 * n**2
    assert m.num_vertices == (n + 1) ** 2
    assert m.num_faces == 2 * n * (n + 1) + n**2
    assert m.num_vertices - m.num_faces + m.num_elements == 1


def test_tri_h_values():
    # diameter of a right triangle with legs 1/n is its hypotenuse
    assert M.build_unit_square_tri(1).h == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert M.build_unit_square_tri(4).h == pytest.approx(0.354, abs=5e-4)
    assert M.build_unit_square_tri(8).h == pytest.approx(0.177, abs=5e-4)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_tri_refinement_halves_h_exactly(n):
    # power-of-two grids have exactly representable coordinates
    assert M.build_unit_square_tri(2 * n).h == M.build_unit_square_tri(n).h / 2


def test_tri_refinement_halves_h_generic():
    assert M.build_unit_square_tri(10).h == pytest.approx(
        M.build_unit_square_tri(5).h / 2, rel=1e-14
    )


def test_tri_n1_counts():
    m = M.build_unit_square_tri(1)
    assert (m.num_elements, m.num_faces, m.num_vertices) == (2, 5, 4)


def test_invalid_subdivisions():
    with pytest.raises(ValueError):
        M.build_unit_square_tri(0)
    with pytest.raises(ValueError):
        M.build_unit_square_poly(1)


def test_poly_n2_counts_and_euler():
    m = M.build_unit_square_poly(2)
    assert (m.num_elements, m.num_faces, m.num_vertices) == (4, 12, 9)
    assert m.num_vertices - m.num_faces + m.num_elements == 1


def test_poly_convex_positive_area():
    m = M.build_unit_square_poly(4)
    polys = m.polygons(np.arange(m.num_elements))
    assert np.all(M.polygon_areas(polys) > 0)
    assert np.all(M._turns(polys) > 0.0)


def test_poly_h_regression():
    # frozen from the chosen interior-vertex shift of 0.15/n: the largest
    # diameter is the diagonal (1, 1 + 0.15)/n of a boundary cell
    m = M.build_unit_square_poly(4)
    assert 0.25 <= m.h <= 0.5
    assert m.h == pytest.approx(np.hypot(1.0, 1.15) / 4.0, abs=1e-14)
    assert m.h == pytest.approx(0.38099376635320426, abs=1e-14)


def test_poly_deterministic():
    a = M.build_unit_square_poly(5)
    b = M.build_unit_square_poly(5)
    for name in FACE_TABLE + ("vertices", "element_offsets", "element_vertices"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("build,n", [(M.build_unit_square_tri, 4), (M.build_unit_square_poly, 4)])
def test_validate_clean(build, n):
    assert validate(build(n)) == []


@pytest.mark.parametrize("family,n", [("tri", 3), ("poly", 3)])
def test_normals_unit_and_outward(family, n):
    m = M.build_mesh(family, n)
    centroids = M.polygon_centroids(m.polygons(np.arange(m.num_elements)))
    for (v0, v1), left, nvec in zip(m.face_vertices, m.face_left, m.face_normal):
        assert abs(np.hypot(*nvec) - 1.0) < 1e-14
        mid = 0.5 * (m.vertices[v0] + m.vertices[v1])
        assert np.dot(centroids[left] - mid, nvec) < 0


def test_face_sides_cover_elements():
    m = M.build_unit_square_tri(3)
    faces_of = lambda e: m.element_faces[m.slots([e])[0]]
    for i, (ends, left, right) in enumerate(zip(m.face_vertices, m.face_left, m.face_right)):
        assert i in faces_of(left)
        if right >= 0:
            assert i in faces_of(right)
        else:
            # boundary faces lie on the unit-square boundary
            for v in ends:
                x, y = m.vertices[v]
                assert min(x, y, 1 - x, 1 - y) < 1e-15


def test_validate_reports_reversed_element():
    m = M.build_unit_square_tri(2)
    elements = m.element_vertices.reshape(-1, 3).copy()
    elements[3] = elements[3, ::-1]
    broken = M._assemble(np.array(m.vertices), elements)
    problems = validate(broken)
    assert any("orientation" in p for p in problems)


def test_validate_reports_duplicated_face():
    m = M.build_unit_square_tri(2)
    import dataclasses

    broken = dataclasses.replace(
        m, **{name: np.concatenate([getattr(m, name), getattr(m, name)[:1]]) for name in FACE_TABLE}
    )
    problems = validate(broken)
    assert any("conformity" in p for p in problems)


def test_area_sum_violation_detected():
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    stretched = M._assemble(verts, [(0, 1, 2, 3)])
    problems = validate(stretched)
    assert any("area" in p for p in problems)


def test_mesh_immutable_vertices():
    m = M.build_unit_square_tri(2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 99.0


@pytest.mark.parametrize(
    "family,n,count",
    [("tri", 4, 4), ("tri", 8, 4), ("tri", 16, 4), ("tri", 32, 4), ("tri", 24, 4),
     ("poly", 8, 14), ("poly", 12, 14), ("poly", 24, 14)],
)
def test_translation_class_counts(family, n, count):
    # tri: 2 shapes, each with 2 patterns of face sides; poly: the corner,
    # edge and interior cells of the checkerboard shift
    mesh = M.build_mesh(family, n)
    elements = np.arange(mesh.num_elements)
    first, cls = mesh.translation_classes(elements)
    assert len(first) == count
    # each class is represented by its lowest element, in ascending order
    assert np.array_equal(first, [np.flatnonzero(cls == c)[0] for c in range(count)])
    assert np.all(np.diff(first) > 0)
    # and every element is a translate of its representative, with its
    # faces on the same sides
    polys = mesh.polygons(elements)
    shape = polys - polys[:, :1]
    assert np.abs(shape - shape[first[cls]]).max() <= 1e-12 * mesh.h
    slots = mesh.slots(elements)
    sides = mesh.face_left[mesh.element_faces[slots]] == elements[:, None]
    assert np.array_equal(sides, sides[first[cls]])


def perturbed_mesh(family, n):
    """A built-in mesh with every interior vertex moved randomly by up to
    0.1 h (seeded)."""
    mesh = M.build_mesh(family, n)
    vertices = mesh.vertices.copy()
    inside = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    rng = np.random.default_rng(3)
    radius = 0.1 * mesh.h * np.sqrt(rng.uniform(size=inside.sum()))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=inside.sum())
    vertices[inside] += radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    m = mesh.face_counts[0]
    return M._assemble(vertices, mesh.element_vertices.reshape(-1, m))


@pytest.mark.parametrize("family", ["tri", "poly"])
def test_perturbed_mesh_has_no_translates(family):
    moved = perturbed_mesh(family, 6)
    first, cls = moved.translation_classes(np.arange(moved.num_elements))
    assert np.array_equal(first, np.arange(moved.num_elements))
    assert np.array_equal(cls, np.arange(moved.num_elements))


def test_translation_classes_of_a_subset():
    # positions and classes refer to the elements passed
    mesh = M.build_unit_square_tri(4)
    subset = np.array([5, 8, 9, 12, 13])
    first, cls = mesh.translation_classes(subset)
    whole = mesh.translation_classes(np.arange(mesh.num_elements))[1][subset]
    assert first.tolist() == [0, 1, 2]
    assert np.array_equal(whole[first[cls]], whole)
    assert len(np.unique(whole)) == len(first)


def mixed_mesh():
    """2 x 2 cells with the centre vertex moved off the grid: the lower-left
    and upper-right cells split into triangles, the other two quadrilaterals."""
    xs = [0.0, 0.5, 1.0]
    vertices = np.array([[x, y] for y in xs for x in xs])
    vertices[4] = (0.55, 0.45)
    elements = [(0, 1, 4), (0, 4, 3), (1, 2, 5, 4), (3, 4, 7, 6), (4, 5, 8), (4, 8, 7)]
    return M._assemble(vertices, elements)


def test_mixed_face_table_pinned():
    # produced by the edge-by-edge construction the face table replaced
    m = mixed_mesh()
    assert m.element_offsets.tolist() == [0, 3, 6, 10, 14, 17, 20]
    assert m.element_faces.tolist() == [
        0, 1, 2, 2, 3, 4, 5, 6, 7, 1, 3, 8, 9, 10, 7, 11, 12, 12, 13, 8
    ]
    assert m.face_vertices.tolist() == [
        [0, 1], [1, 4], [4, 0], [4, 3], [3, 0], [1, 2], [2, 5],
        [5, 4], [4, 7], [7, 6], [6, 3], [5, 8], [8, 4], [8, 7],
    ]
    assert m.face_left.tolist() == [0, 0, 0, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5]
    assert m.face_right.tolist() == [-1, 2, 1, 3, -1, -1, -1, 4, 5, -1, -1, -1, 5, -1]
    normal = np.array([
        (0.0, -1.0), (0.9938837346736189, -0.11043152607484663),
        (-0.6332377902572626, 0.773957299203321), (0.09053574604251852, 0.995893206467704),
        (-1.0, -0.0), (0.0, -1.0), (1.0, -0.0), (-0.11043152607484652, 0.9938837346736189),
        (0.995893206467704, 0.09053574604251861), (0.0, 1.0), (-1.0, -0.0), (1.0, -0.0),
        (-0.7739572992033211, 0.6332377902572627), (0.0, 1.0),
    ])
    assert np.array_equal(m.face_normal, normal)
    assert np.array_equal(np.signbit(m.face_normal), np.signbit(normal))
    assert m.face_length.tolist() == [
        0.5, 0.45276925690687087, 0.7106335201775948, 0.552268050859363, 0.5, 0.5, 0.5,
        0.4527692569068708, 0.552268050859363, 0.5, 0.5, 0.5, 0.7106335201775947, 0.5,
    ]
    assert m.h == 0.7778174593052023
    assert validate(m) == []


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_face_table_follows_element_orientation(data):
    # any element order and any starting vertex per triangle: every half-edge
    # maps to a face with the element on the correct side and an outward
    # normal, and faces are numbered by first appearance
    base = M.build_unit_square_tri(3)
    tris = base.element_vertices.reshape(-1, 3)
    order = data.draw(st.permutations(range(len(tris))))
    shifts = data.draw(st.lists(st.integers(0, 2), min_size=len(tris), max_size=len(tris)))
    elements = np.array([np.roll(tris[e], -s) for e, s in zip(order, shifts)])
    m = M._assemble(np.array(base.vertices), elements)
    assert m.num_faces == base.num_faces
    first_use = {}
    for e, poly in enumerate(elements):
        for j in range(3):
            a, b = poly[j], poly[(j + 1) % 3]
            f = m.element_faces[3 * e + j]
            first_use.setdefault(f, 3 * e + j)
            if m.face_left[f] == e:
                assert m.face_vertices[f].tolist() == [a, b]
                side = 1.0
            else:
                assert m.face_right[f] == e
                assert m.face_vertices[f].tolist() == [b, a]
                side = -1.0
            t = m.vertices[b] - m.vertices[a]
            outward = np.array([t[1], -t[0]]) / np.hypot(*t)
            assert np.abs(side * m.face_normal[f] - outward).max() < 1e-15
    assert [first_use[f] for f in range(m.num_faces)] == sorted(first_use.values())
    assert validate(m) == []


def test_zero_length_edge_names_element():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(M.MeshConstructionError, match=r"^degenerate edge in element 1$"):
        M._assemble(verts, [(0, 1, 2), (0, 2, 3)])


def test_edge_shared_by_three_elements_named():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    with pytest.raises(
        M.MeshConstructionError, match=r"^edge \(0, 1\) shared by more than two elements$"
    ):
        M._assemble(verts, [(0, 1, 2), (1, 0, 3), (0, 1, 4)])
    # the check that meets its offending edge first reports
    with pytest.raises(M.MeshConstructionError, match=r"^degenerate edge in element 1$"):
        M._assemble(verts, [(0, 1, 2), (3, 3, 1), (1, 0, 3), (0, 1, 4)])


@pytest.mark.parametrize(
    "shift,message",
    [
        (0.6, r"^perturbation produced a non-convex element 4$"),
        # vertices (1, 1) and (1, 2) of the grid meet
        (0.5, r"^degenerate edge in element 4$"),
    ],
)
def test_poly_perturbation_errors_name_element(monkeypatch, shift, message):
    monkeypatch.setattr(M, "POLY_SHIFT", shift)
    with pytest.raises(M.MeshConstructionError, match=message):
        M.build_unit_square_poly(4)


def test_reflex_vertex_names_element():
    # the unit square as a dart (0,0)-(1,0)-(0.3,0.3)-(0,1), reflex at
    # vertex 2, and the two triangles filling its notch
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.3], [0.0, 1.0], [1.0, 1.0]])
    elements = [(0, 1, 2, 3), (1, 4, 2), (2, 4, 3)]
    with pytest.raises(M.MeshConstructionError, match=r"^non-convex element 0$"):
        M._assemble(vertices, elements)
    # the dart listed last: the error names it, not the triangles
    with pytest.raises(M.MeshConstructionError, match=r"^non-convex element 2$"):
        M._assemble(vertices, elements[1:] + elements[:1])
    # moving the notch vertex out to (0.6, 0.6) makes every element convex
    vertices[2] = (0.6, 0.6)
    assert validate(M._assemble(vertices, elements)) == []


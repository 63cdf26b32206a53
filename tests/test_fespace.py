from math import factorial

import numpy as np
import pytest

from hdgelast import fespace as F
from hdgelast import mesh as M


def reference_triangle_integral(a, b):
    # int_T x^a y^b over the unit reference triangle, closed form
    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 8, 11, 14])
def test_triangle_rule_exact_and_positive(degree):
    pts, w = F.triangle_rule(degree)
    assert np.all(w > 0)
    assert abs(w.sum() - 0.5) < 1e-15
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.sum(w * pts[:, 0] ** a * pts[:, 1] ** b)
            exact = reference_triangle_integral(a, b)
            assert abs(val - exact) <= 1e-12 * exact


def test_triangle_rule_degree_guard():
    with pytest.raises(F.QuadratureDegreeError, match=str(F.MAX_EXACTNESS)):
        F.triangle_rule(F.MAX_EXACTNESS + 1)


def test_segment_rule_cubic():
    # 2-point Gauss integrates cubics exactly: int_0^1 s^3 ds = 1/4
    t, w = F.segment_rule(3)
    assert len(t) == 2
    assert abs(np.sum(w * t**3) - 0.25) < 1e-15


def unit_square_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return M._assemble(verts, [(0, 1, 2, 3)], "custom", 0)


def reference_triangle_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return M._assemble(verts, [(0, 1, 2)], "custom", 0)


def test_element_quadrature_monomial():
    # int over the reference triangle of x^2 y = 1/60
    q = F.element_quadrature(reference_triangle_mesh(), 0, 3)
    val = np.sum(q.weights * q.points[:, 0] ** 2 * q.points[:, 1])
    assert abs(val - 1.0 / 60.0) < 1e-15


def test_element_quadrature_fan_on_square():
    q = F.element_quadrature(unit_square_mesh(), 0, 5)
    assert abs(q.weights.sum() - 1.0) < 1e-13
    assert abs(np.sum(q.weights * q.points[:, 0]) - 0.5) < 1e-13


@pytest.mark.parametrize("family,n", [("tri", 2), ("poly", 2)])
def test_element_quadrature_weight_sum(family, n):
    mesh = M.build_mesh(family, n)
    for e in range(mesh.num_elements):
        q = F.element_quadrature(mesh, e, 6)
        assert abs(q.weights.sum() - mesh.area(e)) < 1e-13
        assert np.all(q.weights > 0)


def test_face_quadrature_length_and_param():
    mesh = M.build_unit_square_tri(2)
    for fid, (v0, v1) in enumerate(mesh.face_vertices):
        fq = F.face_quadrature(mesh, fid, 4)
        assert abs(fq.weights.sum() - mesh.face_length[fid]) < 1e-13
        p_interp = mesh.vertices[v0] + fq.params[:, None] * (
            mesh.vertices[v1] - mesh.vertices[v0]
        )
        assert np.abs(p_interp - fq.points).max() < 1e-15


def test_basis_dimension_and_constant():
    mesh = M.build_unit_square_poly(2)
    basis = F.build_element_basis(mesh, 1, 2)
    assert basis.dim == 6
    area = mesh.area(1)
    vals = basis.eval(mesh.centroid(1)[None, :])
    assert abs(vals[0, 0] - 1.0 / np.sqrt(area)) < 1e-12


@pytest.mark.parametrize("family", ["tri", "poly"])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_basis_gram_identity(family, degree):
    mesh = M.build_mesh(family, 2)
    for e in range(mesh.num_elements):
        basis = F.build_element_basis(mesh, e, degree)
        q = F.element_quadrature(mesh, e, 2 * degree)
        V = basis.eval(q.points)
        gram = V.T @ (q.weights[:, None] * V)
        assert np.abs(gram - np.eye(basis.dim)).max() < 1e-10


@pytest.mark.parametrize("family", ["tri", "poly"])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_monomial_reproduction(family, degree):
    # projecting any monomial of total degree <= m onto the basis reproduces it
    mesh = M.build_mesh(family, 2)
    rng = np.random.default_rng(42)
    pts = rng.uniform(0.0, 1.0, size=(20, 2))
    for e in range(mesh.num_elements):
        basis = F.build_element_basis(mesh, e, degree)
        q = F.element_quadrature(mesh, e, 2 * degree)
        V = basis.eval(q.points)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                f = lambda p: p[:, 0] ** a * p[:, 1] ** b
                coeff = V.T @ (q.weights * f(q.points))
                err = np.abs(basis.eval(pts) @ coeff - f(pts)).max()
                assert err < 1e-10


def test_basis_gradient_matches_finite_differences():
    mesh = M.build_unit_square_poly(3)
    basis = F.build_element_basis(mesh, 4, 3)
    p0 = mesh.centroid(4)[None, :]
    h = 1e-6
    g = basis.grad(p0)[0]
    fx = (basis.eval(p0 + [[h, 0.0]]) - basis.eval(p0 - [[h, 0.0]]))[0] / (2 * h)
    fy = (basis.eval(p0 + [[0.0, h]]) - basis.eval(p0 - [[0.0, h]]))[0] / (2 * h)
    assert np.abs(g[:, 0] - fx).max() < 1e-6
    assert np.abs(g[:, 1] - fy).max() < 1e-6


@pytest.mark.parametrize("family", ["tri", "poly"])
def test_divergence_theorem_consistency(family):
    # volume integral of grad(phi) . e equals the boundary flux of phi * e
    mesh = M.build_mesh(family, 2)
    k = 2
    for e in range(mesh.num_elements):
        basis = F.build_element_basis(mesh, e, k)
        q = F.element_quadrature(mesh, e, 2 * k + 2)
        grads = basis.grad(q.points)
        for direction in (np.array([1.0, 0.0]), np.array([0.3, -1.2])):
            vol = np.einsum("q,qid,d->i", q.weights, grads, direction)
            surf = np.zeros(basis.dim)
            for fid in mesh.element_faces[mesh.slots([e])[0]]:
                fq = F.face_quadrature(mesh, fid, 2 * k + 2)
                nrm = mesh.outward_normal(e, fid)
                surf += basis.eval(fq.points).T @ fq.weights * (direction @ nrm)
            assert np.abs(vol - surf).max() < 1e-11


def test_stress_basis_symmetry_and_dimension():
    mesh = M.build_unit_square_tri(1)
    scalar = F.build_element_basis(mesh, 0, 3)
    for k in (1, 2):
        sb = F.StressBasis(scalar, k)
        assert sb.dim == 3 * (k + 1) * (k + 2) // 2
        rng = np.random.default_rng(0)
        coeffs = rng.normal(size=sb.dim)
        vals = sb.eval_field(coeffs, rng.uniform(0.2, 0.6, size=(7, 2)))
        assert np.abs(vals - np.swapaxes(vals, 1, 2)).max() == 0.0


def test_face_basis_orthonormal():
    mesh = M.build_unit_square_poly(2)
    for fid in range(mesh.num_faces):
        fb = F.build_face_basis(mesh, fid, 3)
        fq = F.face_quadrature(mesh, fid, 8)
        modes = fb.eval_param(fq.params)
        gram = modes.T @ (fq.weights[:, None] * modes)
        assert np.abs(gram - np.eye(fb.nmodes)).max() < 1e-12


def test_project_trace_reproduces_linear():
    mesh = M.build_unit_square_tri(2)
    fid = mesh.interior_faces()[0]
    fb = F.build_face_basis(mesh, fid, 1)
    fq = F.face_quadrature(mesh, fid, 6)
    fn = lambda p: np.stack([2.0 * p[:, 0] - p[:, 1], 0.5 + p[:, 1]], axis=1)
    coeffs = F.project_trace(fn, fb, fq)
    vals = fb.eval_param(fq.params) @ coeffs.reshape(-1, 2)
    assert np.abs(vals - fn(fq.points)).max() < 1e-12


def test_project_trace_mean_value_k0():
    # projecting s^2 onto constants over a unit-length face gives 1/3
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = M._assemble(verts, [(0, 1, 2)], "custom", 0)
    fid = np.flatnonzero((mesh.face_length == 1.0) & (mesh.face_vertices[:, 0] == 0))[0]
    fb = F.build_face_basis(mesh, fid, 0)
    fq = F.face_quadrature(mesh, fid, 6)
    fn = lambda p: np.stack([fq.params**2, np.zeros(len(p))], axis=1)
    coeffs = F.project_trace(fn, fb, fq)
    value = fb.eval_param(np.array([0.5])) @ coeffs.reshape(-1, 2)
    assert abs(value[0, 0] - 1.0 / 3.0) < 1e-14


def test_project_trace_orthogonality_and_idempotence():
    mesh = M.build_unit_square_poly(3)
    fid = mesh.interior_faces()[3]
    fb = F.build_face_basis(mesh, fid, 2)
    fq = F.face_quadrature(mesh, fid, 12)
    rng = np.random.default_rng(11)
    c = rng.normal(size=6)
    fn = lambda p: np.stack(
        [np.sin(3.0 * p[:, 0]) + c[0] * p[:, 1] ** 3, np.cos(2.0 * p[:, 1]) + c[1]], axis=1
    )
    coeffs = F.project_trace(fn, fb, fq)
    modes = fb.eval_param(fq.params)
    residual = fn(fq.points) - modes @ coeffs.reshape(-1, 2)
    # residual orthogonal to every trace function
    orth = modes.T @ (fq.weights[:, None] * residual)
    assert np.abs(orth).max() < 1e-11
    # projecting the projection changes nothing
    proj_fn = lambda p: fb.eval_param(fq.params) @ coeffs.reshape(-1, 2)
    again = F.project_trace(proj_fn, fb, fq)
    assert np.abs(again - coeffs).max() < 1e-14


def test_trace_dof_map_counts_and_ranges():
    mesh = M.build_unit_square_tri(1)
    dm = F.build_trace_dof_map(mesh, 1)
    assert dm.n_interior == 4  # one interior face, 2 components x 2 modes
    assert dm.total == mesh.num_faces * 4

    mesh2 = M.build_unit_square_tri(2)
    dm2 = F.build_trace_dof_map(mesh2, 1)
    assert len(mesh2.interior_faces()) == 8
    assert dm2.n_interior == 32
    dm2b = F.build_trace_dof_map(mesh2, 2)
    assert dm2b.ndof_face == 6
    assert dm2b.n_interior == 48

    # ranges are disjoint and contiguous, interior indices are a permutation
    seen = set()
    for fid in range(mesh2.num_faces):
        dofs = dm2.face_dofs(fid)
        assert list(dofs) == list(range(dofs[0], dofs[0] + 4))
        assert not seen & set(dofs)
        seen |= set(dofs)
    inner = dm2.interior_index[dm2.interior_index >= 0]
    assert sorted(inner) == list(range(dm2.n_interior))


def test_degenerate_element_conditioning_error():
    # a zero-area (collinear) triangle cannot support an orthonormal basis
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    degenerate = M._assemble(verts, [(0, 1, 2)], "custom", 0)
    with pytest.raises(F.ElementConditioningError):
        F.build_element_basis(degenerate, 0, 2)


def _stacked_powers(x, deg):
    # the formulation the monomial kernel replaced: powers along a last
    # axis by np.multiply.accumulate, monomials assembled by np.stack
    out = np.empty(x.shape + (deg + 1,))
    out[..., 0] = 1.0
    if deg > 0:
        out[..., 1:] = x[..., None]
        np.multiply.accumulate(out[..., 1:], axis=-1, out=out[..., 1:])
    return out


def _stacked_monomials(X, Y, exponents):
    deg = max(a + b for a, b in exponents)
    Xp, Yp = _stacked_powers(X, deg), _stacked_powers(Y, deg)
    values = np.stack([Xp[..., a] * Yp[..., b] for a, b in exponents], axis=-1)
    gx = np.stack(
        [a * Xp[..., a - 1] * Yp[..., b] if a > 0 else np.zeros_like(X) for a, b in exponents],
        axis=-1,
    )
    gy = np.stack(
        [b * Xp[..., a] * Yp[..., b - 1] if b > 0 else np.zeros_like(X) for a, b in exponents],
        axis=-1,
    )
    return values, gx, gy


@pytest.mark.parametrize("degree", range(6))
@pytest.mark.parametrize("shape", [(5, 13), (4, 3, 7)], ids=["B,npts", "B,m,npts"])
def test_monomial_kernel_bitwise(degree, shape):
    rng = np.random.default_rng(degree)
    X, Y = rng.uniform(-1.0, 1.0, size=(2,) + shape)
    X[..., 0] = 0.0  # exact zeros in the power tables
    expected = _stacked_monomials(X, Y, F._graded_exponents(degree))
    assert np.array_equal(F._monomials(X, Y, degree).values, expected[0])
    got = F._monomials(X, Y, degree, grads=True)
    for a, b in zip(got, expected):
        assert a.flags.c_contiguous and a.shape == shape + (F.scalar_dim(degree),)
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_solve_lower_bitwise_against_solve_triangular():
    import scipy.linalg

    rng = np.random.default_rng(3)
    L = np.tril(rng.normal(size=(6, 10, 10))) + 4.0 * np.eye(10)
    rhs = rng.normal(size=(6, 10, 10))
    for b in (rhs, np.eye(10)):
        got = F._solve_lower(L, b)
        for i in range(len(L)):
            bi = b if b.ndim == 2 else b[i]
            assert np.array_equal(got[i], scipy.linalg.solve_triangular(L[i], bi, lower=True))

import numpy as np
import pytest

from hdgelast import fespace as F
from hdgelast import hdg_global as G
from hdgelast import hdg_local as L
from hdgelast import manufactured as MF
from hdgelast import mesh as M
from hdgelast.material import ComplianceTensor


def one_element(mesh, e, k):
    """Element ``e`` as a one-element batch."""
    disc = G.build_discretization(mesh, k)
    return L.element_batch(mesh, k, np.array([e]), disc.face_quad, disc.face_modes)


def trace_coefficients(batch, fn):
    """Face-space projection of a smooth vector field on the boundary of the
    element of a one-element batch."""
    fids = batch.face_ids[0]
    fq = F.face_quadratures(batch.mesh, fids, 2 * batch.k + 8)
    modes = F.face_modes(fq.params, batch.k, batch.mesh.face_length[fids])
    vals = fn(fq.points.reshape(-1, 2)).reshape(fq.points.shape)
    return F.trace_moments(modes, fq.weights, vals).ravel()


PLANE_STRESS = ComplianceTensor.plane_stress(1.0, 0.3)


def test_block_dimensions():
    mesh = M.build_unit_square_poly(2)
    for k in (1, 2):
        blocks = L.batch_blocks(one_element(mesh, 0, k), PLANE_STRESS, 4.0)
        p_s = (k + 1) * (k + 2) // 2
        p_u = (k + 2) * (k + 3) // 2
        assert blocks.stress_mass.shape == (3 * p_s, 3 * p_s)
        assert blocks.div_coupling.shape == (1, 3 * p_s, 2 * p_u)
        assert blocks.trace_coupling.shape == (1, 3 * p_s, 4 * 2 * (k + 1))
        assert blocks.stab_lamlam.shape[0] == 4 * 2 * (k + 1)


def test_stress_mass_spd_and_unit_entry():
    # constant stress e11 paired with itself under the identity material on a
    # unit-area element integrates to exactly 1
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = M._assemble(verts, [(0, 1, 2, 3)])
    identity_material = ComplianceTensor.plane_stress(1.0, 0.0)
    blocks = L.batch_blocks(one_element(mesh, 0, 1), identity_material, 1.0)
    p_s = 3
    # coefficients of the constant function e11: first scalar mode is
    # 1/sqrt(area), so the coefficient is sqrt(area) = 1
    c = np.zeros(3 * p_s)
    c[0] = np.sqrt(M.polygon_areas(mesh.polygons([0]))[0])
    assert c @ blocks.stress_mass @ c == pytest.approx(1.0, abs=1e-13)
    w = np.linalg.eigvalsh(blocks.stress_mass)
    assert w.min() > 0


def test_divergence_coupling_integration_by_parts():
    # (u, div v) = <u, v n> - (grad u : v) for polynomial u, v
    mesh = M.build_unit_square_poly(2)
    k = 2
    batch = one_element(mesh, 1, k)
    blocks = L.batch_blocks(batch, PLANE_STRESS, 2.0)
    p_s = F.scalar_dim(k)
    p_u = F.scalar_dim(k + 1)
    rng = np.random.default_rng(8)
    s = rng.normal(size=3 * p_s)
    w = rng.normal(size=2 * p_u)
    lhs = s @ blocks.div_coupling[0] @ w

    quad = F.polygon_quadrature(mesh.polygons([1]), 2 * k + 4)
    dirs = F.StressBasis.DIRECTIONS
    phi = batch.basis.eval(quad.points, p_s)[0]
    sig = np.einsum("qi,ci,cab->qab", phi, s.reshape(3, p_s), dirs)
    gphi = batch.basis.grad(quad.points)[0]
    grad_u = np.einsum("qjd,mj->qmd", gphi, w.reshape(2, p_u))
    volume = np.einsum("q,qab,qab->", quad.weights[0], grad_u, sig)
    surface = 0.0
    fq = F.face_quadratures(mesh, batch.face_ids[0], 2 * k + 4)
    for j, nrm in enumerate(batch.normals[0]):
        phif = batch.basis.eval(fq.points[j][None])[0]
        uf = np.einsum("qj,mj->qm", phif, w.reshape(2, p_u))
        sigf = np.einsum("qi,ci,cab->qab", phif[:, :p_s], s.reshape(3, p_s), dirs)
        surface += np.einsum("q,qm,qm->", fq.weights[j], uf, sigf @ nrm)
    assert lhs == pytest.approx(surface - volume, abs=1e-12 * max(1.0, abs(lhs)))


def test_trace_mass_is_scaled_identity():
    mesh = M.build_unit_square_tri(2)
    batch = one_element(mesh, 0, 1)
    tau = 2.5
    blocks = L.batch_blocks(batch, PLANE_STRESS, tau)
    assert np.abs(blocks.stab_lamlam - tau * np.eye(batch.n_trace)).max() == 0.0


def test_stabilization_scales_linearly_with_tau():
    mesh = M.build_unit_square_poly(2)
    batch = one_element(mesh, 2, 1)
    b1 = L.batch_blocks(batch, PLANE_STRESS, 1.0)
    b2 = L.batch_blocks(batch, PLANE_STRESS, 2.0)
    assert np.abs(b2.stab_uu - 2.0 * b1.stab_uu).max() < 1e-14
    assert np.abs(b2.stab_ulam - 2.0 * b1.stab_ulam).max() < 1e-14
    assert np.abs(b2.stab_lamlam - 2.0 * b1.stab_lamlam).max() < 1e-14
    # the trace coupling carries no tau
    assert np.abs(b2.trace_coupling - b1.trace_coupling).max() == 0.0


def test_local_solver_zero_data():
    mesh = M.build_unit_square_tri(1)
    batch = one_element(mesh, 0, 1)
    blocks = L.batch_blocks(batch, PLANE_STRESS, 3.0)
    ops = L._factor(blocks)
    lam = np.zeros(batch.n_trace)
    assert np.abs(ops.stress_map[0] @ lam).max() == 0.0
    qs, us = L._source_parts(ops, np.zeros((1, batch.n_disp)))
    assert np.abs(qs).max() == 0.0 and np.abs(us).max() == 0.0


@pytest.mark.parametrize("family", ["tri", "poly"])
def test_rigid_motion_is_local_kernel(family):
    # trace of a rigid motion: zero stress, displacement reproduced exactly
    mesh = M.build_mesh(family, 2)
    k = 1
    sol = MF.rigid_motion_solution(0.9, (0.2, -0.4))
    for e in (0, mesh.num_elements - 1):
        batch = one_element(mesh, e, k)
        blocks = L.batch_blocks(batch, PLANE_STRESS, 1.0 / mesh.h)
        ops = L._factor(blocks)
        lam = trace_coefficients(batch, sol.u)
        q = ops.stress_map[0] @ lam
        u = ops.disp_map[0] @ lam
        assert np.abs(q).max() < 1e-11
        pts = F.polygon_quadrature(mesh.polygons([e]), 6).points
        p_u = F.scalar_dim(k + 1)
        uh = batch.basis.eval(pts)[0] @ u.reshape(2, p_u).T
        assert np.abs(uh - sol.u(pts[0])).max() < 1e-11


def test_linear_displacement_constant_stress():
    # u = (x, 0): the eliminated stress is the constant C eps(u)
    mesh = M.build_unit_square_poly(2)
    k = 1
    sol = MF.polynomial_solution([[0.0], [1.0]], [[0.0]], name="stretch")
    expected_sigma = MF.stress(sol, PLANE_STRESS, np.array([[0.5, 0.5]]))[0]
    for e in range(mesh.num_elements):
        batch = one_element(mesh, e, k)
        blocks = L.batch_blocks(batch, PLANE_STRESS, 2.0 / mesh.h)
        ops = L._factor(blocks)
        lam = trace_coefficients(batch, sol.u)
        q = ops.stress_map[0] @ lam
        u = ops.disp_map[0] @ lam
        pts = F.polygon_quadrature(mesh.polygons([e]), 4).points
        p_s, p_u = F.scalar_dim(k), F.scalar_dim(k + 1)
        sb = F.StressBasis(batch.basis, k)
        sig = sb.eval_field(q, pts)[0]
        assert np.abs(sig - expected_sigma).max() < 1e-10
        uh = batch.basis.eval(pts)[0] @ u.reshape(2, p_u).T
        assert np.abs(uh - sol.u(pts[0])).max() < 1e-10


@pytest.mark.parametrize("family", ["tri", "poly"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_condensed_kernel_and_psd(family, k):
    mesh = M.build_mesh(family, 2)
    material = ComplianceTensor.plane_strain(3.0, 0.49)
    for e in (0, mesh.num_elements // 2):
        batch = one_element(mesh, e, k)
        blocks = L.batch_blocks(batch, material, 1.0 / mesh.h)
        ops = L._factor(blocks)
        A = L._condense(ops, blocks)[0]
        w = np.linalg.eigvalsh(A)
        assert w[0] >= -1e-10 * w[-1]
        assert int(np.sum(w < 1e-10 * w[-1])) == 3
        # the rigid motion traces span the kernel
        for rigid in (
            MF.rigid_motion_solution(1.0, (0.0, 0.0)),
            MF.rigid_motion_solution(0.0, (1.0, 0.0)),
            MF.rigid_motion_solution(0.0, (0.0, 1.0)),
        ):
            lam = trace_coefficients(batch, rigid.u)
            assert np.abs(A @ lam).max() < 1e-10 * np.abs(A).max() * max(
                1.0, np.abs(lam).max()
            )


@pytest.mark.parametrize("k", [1, 2])
def test_flux_and_quadratic_forms_agree(k):
    # the two expressions for the condensed bilinear form coincide
    mesh = M.build_unit_square_tri(2)
    material = PLANE_STRESS
    rng = np.random.default_rng(123)
    for e in range(mesh.num_elements):
        batch = one_element(mesh, e, k)
        blocks = L.batch_blocks(batch, material, 1.0 / mesh.h)
        ops = L._factor(blocks)
        A_quad = L._condense(ops, blocks)[0]
        A_flux = L._flux_form(ops, blocks)[0]
        scale = np.abs(A_quad).max()
        assert np.abs(A_quad - A_flux).max() < 1e-10 * scale
        for _ in range(20):
            lam = rng.normal(size=batch.n_trace)
            mu = rng.normal(size=batch.n_trace)
            a1 = lam @ A_quad @ mu
            a2 = lam @ A_flux @ mu
            assert abs(a1 - a2) < 1e-10 * scale * np.linalg.norm(lam) * np.linalg.norm(mu)


@pytest.mark.parametrize("family,elems", [("tri", (0, 3, 7)), ("poly", (0, 2))])
@pytest.mark.parametrize("k", [1, 2])
def test_condensed_matches_dense_schur_complement(family, elems, k):
    # oracle: eliminate stress and displacement numerically from the full
    # symmetric element saddle matrix
    mesh = M.build_mesh(family, 2)
    material = ComplianceTensor.plane_strain(3.0, 0.3)
    for e in elems:
        batch = one_element(mesh, e, k)
        blocks = L.batch_blocks(batch, material, 2.0 / mesh.h)
        ops = L._factor(blocks)
        A = L._condense(ops, blocks)[0]

        D = blocks.div_coupling[0]
        MM = np.block([[-blocks.stress_mass, -D], [-D.T, blocks.stab_uu[0]]])
        N = np.vstack([blocks.trace_coupling[0], -blocks.stab_ulam[0]])
        schur = blocks.stab_lamlam - N.T @ np.linalg.solve(MM, N)
        assert np.abs(A - schur).max() < 1e-10 * np.abs(schur).max()


def test_condensed_rhs_zero_for_zero_force():
    mesh = M.build_unit_square_tri(1)
    batch = one_element(mesh, 0, 1)
    blocks = L.batch_blocks(batch, PLANE_STRESS, 1.0)
    ops = L._factor(blocks)
    qs, us = L._source_parts(ops, np.zeros((1, batch.n_disp)))
    assert np.abs(L._rhs(blocks, qs, us)).max() == 0.0


def test_local_equations_satisfied_by_solvers():
    # residual substitution: the eliminated fields satisfy both local
    # equations for every trace basis vector and for a source load
    mesh = M.build_unit_square_poly(2)
    k = 2
    batch = one_element(mesh, 0, k)
    material = ComplianceTensor.plane_strain(3.0, 0.49)
    tau = 1.0 / mesh.h
    blocks = L.batch_blocks(batch, material, tau)
    ops = L._factor(blocks)
    A, D, C = blocks.stress_mass, blocks.div_coupling[0], blocks.trace_coupling[0]
    S_uu, S_ulam = blocks.stab_uu[0], blocks.stab_ulam[0]
    Q, U = ops.stress_map[0], ops.disp_map[0]
    eye = np.eye(batch.n_trace)
    r1 = A @ Q + D @ U - C
    r2 = -D.T @ Q + S_uu @ U - S_ulam @ eye
    assert np.abs(r1).max() < 1e-11
    assert np.abs(r2).max() < 1e-11
    f_mom = L.batch_moments(batch, lambda p: np.stack([p[:, 0], -p[:, 1]], axis=1))
    qs, us = (x[0] for x in L._source_parts(ops, f_mom))
    assert np.abs(A @ qs + D @ us).max() < 1e-11
    assert np.abs(-D.T @ qs + S_uu @ us + f_mom[0]).max() < 1e-11


def test_invalid_inputs():
    mesh = M.build_unit_square_tri(1)
    batch = one_element(mesh, 0, 1)
    with pytest.raises(ValueError):
        L.batch_blocks(batch, PLANE_STRESS, 0.0)


def test_singular_local_system_reports_element(monkeypatch):
    import dataclasses

    mesh = M.build_unit_square_tri(1)
    blocks = L.batch_blocks(one_element(mesh, 0, 1), PLANE_STRESS, 1.0)
    broken = dataclasses.replace(
        blocks,
        stress_mass=np.zeros_like(blocks.stress_mass),
        div_coupling=np.zeros_like(blocks.div_coupling),
    )
    import warnings

    with pytest.raises(L.LocalSolverError, match="element 0"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            L._factor(broken)

    # in a batch, the check names the bad element: a zero pivot in the
    # middle of the batch, and a factorization that is not finite
    disc = G.build_discretization(M.build_unit_square_tri(2), 1)
    batch = next(disc.element_batches())
    assert len(batch.elements) == 8
    good = L.batch_blocks(batch, PLANE_STRESS, 1.0)
    zero_pivot = dataclasses.replace(
        good, div_coupling=good.div_coupling.copy(), stab_uu=good.stab_uu.copy()
    )
    zero_pivot.div_coupling[3] = 0.0
    zero_pivot.stab_uu[3] = 0.0
    not_finite = dataclasses.replace(good, div_coupling=good.div_coupling.copy())
    not_finite.div_coupling[5, 0, 0] = np.nan
    for bad, e in ((zero_pivot, 3), (not_finite, 5)):
        monkeypatch.setattr(L, "batch_blocks", lambda *args, bad=bad: bad)
        with pytest.raises(L.LocalSolverError, match=rf"^element {e}: singular local system$"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                L.condense_batch(batch, PLANE_STRESS, 1.0)


@pytest.mark.parametrize("family", ["tri", "poly"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_blocks_insensitive_to_richer_quadrature(monkeypatch, family, k):
    # the default rule integrates every block exactly: a rule four degrees
    # richer on elements and faces changes none beyond roundoff
    mesh = M.build_mesh(family, 2)
    tau = 1.0 / mesh.h
    default_rule = L.default_quadrature_exactness
    blocks, points = [], []
    for extra in (0, 4):
        monkeypatch.setattr(L, "default_quadrature_exactness", lambda k: default_rule(k) + extra)
        disc = G.build_discretization(mesh, k)
        systems = G.build_element_systems(disc, PLANE_STRESS, tau)
        blocks.append(
            [L.batch_blocks(cb.batch, PLANE_STRESS, tau) for cb in systems.batches]
        )
        points.append([disc.face_quad.weights.shape[1],
                       systems.batches[0].batch.quad.weights.shape[1]])
    # the richer rule reached the faces and the elements
    assert all(rich > default for default, rich in zip(*points))
    for default, rich in zip(*blocks):
        for name in ("div_coupling", "trace_coupling", "stab_uu", "stab_ulam"):
            a, b = getattr(default, name), getattr(rich, name)
            err = np.abs(a - b).max(axis=(1, 2)) / np.maximum(np.abs(b).max(axis=(1, 2)), 1e-300)
            assert err.max() <= 1e-9, (name, err.max())


@pytest.mark.parametrize("family,k", [("tri", 1), ("poly", 2)])
def test_factor_and_source_parts_bitwise_against_scipy_lu(family, k):
    # the in-place LAPACK calls of _factor and _source_parts give exactly
    # the per-element lu_factor/lu_solve results
    import scipy.linalg

    mesh = M.build_mesh(family, 4)
    disc = G.build_discretization(mesh, k)
    batch = next(disc.element_batches())
    blocks = L.batch_blocks(batch, PLANE_STRESS, 1.0 / mesh.h)
    ops = L._factor(blocks)
    f_mom = np.random.default_rng(k).normal(size=(len(batch.elements), batch.n_disp))
    qs, us = L._source_parts(ops, f_mom)
    n_s = batch.n_stress
    for i in range(len(batch.elements)):
        D = blocks.div_coupling[i]
        saddle = np.block([[-blocks.stress_mass, -D], [-D.T, blocks.stab_uu[i]]])
        lu, piv = scipy.linalg.lu_factor(saddle)
        assert np.array_equal(ops.lu[i], lu)
        assert np.array_equal(ops.piv[i], piv)
        rhs = -np.concatenate([blocks.trace_coupling[i], -blocks.stab_ulam[i]])
        sol = scipy.linalg.lu_solve((lu, piv), rhs)
        assert np.array_equal(ops.stress_map[i], sol[:n_s])
        assert np.array_equal(ops.disp_map[i], sol[n_s:])
        src = scipy.linalg.lu_solve((lu, piv), np.concatenate([np.zeros(n_s), -f_mom[i]]))
        assert np.array_equal(qs[i], src[:n_s])
        assert np.array_equal(us[i], src[n_s:])

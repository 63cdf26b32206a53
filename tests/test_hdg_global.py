from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

from hdgelast import hdg_global as G
from hdgelast import hdg_local as L
from hdgelast import manufactured as MF
from hdgelast import mesh as M
from hdgelast import postproc as P
from hdgelast.harness import RunConfig, run_solve
from hdgelast.material import ComplianceTensor

PLANE_STRESS = ComplianceTensor.plane_stress(1.0, 0.3)


def solve_manufactured(family, n, k, sol, material, tau_c=3.0, variant="projected",
                       solver="cholesky", tol=1e-12):
    mesh = M.build_mesh(family, n)
    tau = tau_c / mesh.h
    disc = G.build_discretization(mesh, k)
    f_fn = lambda pts: MF.body_force(sol, material, pts)
    g_fn = lambda pts: MF.boundary_data(sol, pts)
    systems = G.build_element_systems(disc, material, tau, f_fn, variant=variant)
    bvals = G.boundary_trace_values(disc, g_fn, exactness=P.error_quadrature_exactness(k))
    glob = G.assemble_global(disc, systems, bvals)
    trace, stats = G.solve_condensed(glob, solver, tol)
    dsol = G.recover_fields(disc, systems, trace)
    return mesh, tau, disc, systems, glob, dsol, stats


@pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan")])
@pytest.mark.parametrize("method", ["cholesky", "cg"])
def test_solve_condensed_rejects_nonpositive_tol(method, tol):
    disc = G.build_discretization(M.build_unit_square_tri(2), 1)
    glob = G.assemble_global(disc, G.build_element_systems(disc, PLANE_STRESS, tau=2.0))
    with pytest.raises(ValueError, match="tolerance must be positive"):
        G.solve_condensed(glob, method, tol)


def test_system_size_single_interior_face():
    mesh = M.build_unit_square_tri(1)
    disc = G.build_discretization(mesh, 1)
    systems = G.build_element_systems(disc, PLANE_STRESS, tau=2.0)
    glob = G.assemble_global(disc, systems)
    assert glob.matrix.shape == (4, 4)


def test_zero_data_zero_solution():
    mesh = M.build_unit_square_tri(2)
    disc = G.build_discretization(mesh, 1)
    systems = G.build_element_systems(disc, PLANE_STRESS, tau=2.0)
    glob = G.assemble_global(disc, systems)
    assert np.abs(glob.rhs).max() == 0.0
    trace, stats = G.solve_condensed(glob)
    assert np.abs(trace).max() == 0.0
    sol = G.recover_fields(disc, systems, trace)
    assert max(np.abs(s).max() for s in sol.stress_coeffs) == 0.0
    assert max(np.abs(w).max() for w in sol.disp_coeffs) == 0.0


@pytest.mark.parametrize("family,k", [("tri", 1), ("tri", 2), ("poly", 2)])
def test_global_matrix_symmetric_and_spd(family, k):
    mesh = M.build_mesh(family, 4)
    disc = G.build_discretization(mesh, k)
    systems = G.build_element_systems(disc, PLANE_STRESS, tau=1.0 / mesh.h)
    glob = G.assemble_global(disc, systems)
    A = glob.matrix
    asym = abs(A - A.T).max()
    assert asym <= 1e-11 * abs(A).max()
    dense = A.toarray()
    np.linalg.cholesky(0.5 * (dense + dense.T))  # raises if not SPD


def test_cholesky_positive_pivots_reported():
    _, _, _, _, glob, _, stats = solve_manufactured(
        "tri", 8, 1, MF.test1_solution(), PLANE_STRESS
    )
    assert stats.method == "cholesky"
    assert stats.min_pivot > 0
    assert stats.residual < 1e-10


def test_cg_and_cholesky_agree_on_random_spd():
    # cross-solver oracle on assembled tri and poly systems with a random load
    rng = np.random.default_rng(9)
    for family, k in (("tri", 1), ("poly", 2)):
        mesh = M.build_mesh(family, 4)
        disc = G.build_discretization(mesh, k)
        systems = G.build_element_systems(disc, PLANE_STRESS, tau=3.0 / mesh.h)
        glob = G.assemble_global(disc, systems)
        system = replace(glob, rhs=rng.normal(size=glob.matrix.shape[0]))
        x_chol, _ = G.solve_condensed(system, "cholesky")
        x_cg, stats = G.solve_condensed(system, "cg", tol=1e-13)
        assert stats.iterations > 0
        assert np.abs(x_chol - x_cg).max() < 1e-10 * max(1.0, np.abs(x_chol).max())


def test_cg_needs_discretization():
    rng = np.random.default_rng(9)
    n = 8
    B = rng.normal(size=(n, n))
    from hdgelast.fespace import TraceDofMap

    dm = TraceDofMap(k=1, face_offset=np.arange(2) * 4, ndof_face=4, total=n,
                     interior_index=np.arange(n), n_interior=n, boundary_face_ids=())
    system = G.CondensedSystem(scipy.sparse.csr_matrix(B @ B.T + n * np.eye(n)),
                               np.ones(n), np.zeros(n), dm)
    with pytest.raises(ValueError, match="Discretization"):
        G.solve_condensed(system, "cg")


@pytest.mark.parametrize("family,n,coarse_dim", [("tri", 1, 0), ("tri", 2, 2), ("poly", 2, 2)])
def test_cg_matches_cholesky_on_smallest_meshes(family, n, coarse_dim):
    # tri n=1 has no interior vertex, so the coarse space is empty
    sol = MF.test1_solution()
    _, _, disc, _, glob, dsol, stats = solve_manufactured(family, n, 2, sol, PLANE_STRESS,
                                                          solver="cg")
    assert G._coarse_prolongation(disc).shape == (glob.matrix.shape[0], coarse_dim)
    trace, _ = G.solve_condensed(glob, "cholesky")
    assert stats.iterations > 0
    assert np.abs(dsol.trace - trace).max() < 1e-10 * np.abs(trace).max()


@pytest.mark.parametrize("family,k,sol,material", [
    ("tri", 1, MF.test1_solution(), PLANE_STRESS),
    ("poly", 2, MF.test2_solution(), ComplianceTensor.plane_strain(3.0, 0.49999)),
], ids=["tri-k1-nu0.3", "poly-k2-nu0.49999"])
def test_cg_iterations_flat_under_refinement(family, k, sol, material):
    # the two-level Schwarz preconditioner keeps CG counts from growing by
    # 1.5x per refinement, near incompressibility too
    counts = []
    for n in (8, 16, 32):
        *_, glob, dsol, stats = solve_manufactured(family, n, k, sol, material, solver="cg")
        interior = glob.dofmap.interior_index >= 0
        x = dsol.trace[interior]
        res = np.linalg.norm(glob.matrix @ x - glob.rhs) / np.linalg.norm(glob.rhs)
        assert res <= 1e-8, (n, res)
        direct, _ = G.solve_condensed(glob, "cholesky")
        diff = np.linalg.norm(x - direct[interior]) / np.linalg.norm(direct[interior])
        assert diff <= 1e-8, (n, diff)
        counts.append(stats.iterations)
    print(f"CG iterations {family} k={k} n=8,16,32: {counts}")
    for coarse, fine in zip(counts, counts[1:]):
        assert fine < 1.5 * coarse, counts


def test_cg_on_actual_problem_matches_direct():
    sol = MF.test1_solution()
    *_, dsol_direct, _ = solve_manufactured("tri", 4, 1, sol, PLANE_STRESS, solver="cholesky")
    *_, dsol_cg, stats = solve_manufactured("tri", 4, 1, sol, PLANE_STRESS, solver="cg", tol=1e-14)
    assert np.abs(dsol_direct.trace - dsol_cg.trace).max() < 1e-9
    assert stats.iterations > 0


def test_non_spd_detected():
    rng = np.random.default_rng(2)
    n = 12
    B = rng.normal(size=(n, n))
    A = B @ B.T + n * np.eye(n)
    A[0, 0] = -5.0  # break positive definiteness
    from hdgelast.fespace import TraceDofMap

    dm = TraceDofMap(
        k=1,
        face_offset=np.arange(3) * 4,
        ndof_face=4,
        total=n,
        interior_index=np.arange(n),
        n_interior=n,
        boundary_face_ids=(),
    )
    system = G.CondensedSystem(scipy.sparse.csr_matrix(A), np.ones(n), np.zeros(n), dm)
    with pytest.raises(G.SolverError):
        G.solve_condensed(system, "cholesky")


def test_unknown_solver_rejected():
    mesh = M.build_unit_square_tri(1)
    disc = G.build_discretization(mesh, 1)
    systems = G.build_element_systems(disc, PLANE_STRESS, tau=1.0)
    glob = G.assemble_global(disc, systems)
    with pytest.raises(ValueError):
        G.solve_condensed(glob, "qr")


def test_rigid_motion_dirichlet_reproduced():
    sol = MF.rigid_motion_solution(0.8, (0.1, 0.6))
    mesh, tau, disc, systems, glob, dsol, _ = solve_manufactured(
        "poly", 3, 1, sol, PLANE_STRESS
    )
    rep = P.error_norms(disc, dsol, sol, PLANE_STRESS, tau)
    assert rep.err_sigma < 1e-10
    assert rep.err_u < 1e-10
    assert rep.trace_diag < 1e-10


@pytest.mark.parametrize("family", ["tri", "poly"])
@pytest.mark.parametrize("k", [1, 2])
def test_polynomial_exactness(family, k):
    # any displacement of total degree k+1 with matching force and boundary
    # data lies in the discrete space and is reproduced to roundoff
    rng = np.random.default_rng(31 + k)
    deg = k + 1
    c1 = np.zeros((deg + 1, deg + 1))
    c2 = np.zeros((deg + 1, deg + 1))
    for a in range(deg + 1):
        for b in range(deg + 1 - a):
            c1[a, b] = rng.uniform(-1, 1)
            c2[a, b] = rng.uniform(-1, 1)
    sol = MF.polynomial_solution(c1, c2, name=f"poly-deg{deg}")
    material = ComplianceTensor.plane_strain(3.0, 0.3)
    mesh, tau, disc, systems, glob, dsol, _ = solve_manufactured(family, 2, k, sol, material)
    rep = P.error_norms(disc, dsol, sol, material, tau)
    assert rep.err_sigma_proj < 1e-9
    assert rep.err_u_proj < 1e-9
    assert rep.err_sigma < 1e-9
    assert rep.err_u < 1e-9
    assert rep.trace_diag < 1e-9


def test_discrete_equations_residuals():
    sol = MF.test1_solution()
    mesh, tau, disc, systems, glob, dsol, _ = solve_manufactured("tri", 4, 2, sol, PLANE_STRESS)
    f_fn = lambda pts: MF.body_force(sol, PLANE_STRESS, pts)
    g_fn = lambda pts: MF.boundary_data(sol, pts)
    res = G.scheme_residuals(disc, systems, dsol, f_fn, g_fn)
    for key, val in res.items():
        assert val < 1e-9, (key, val)


@pytest.mark.parametrize("family", ["tri", "poly"])
def test_flux_single_valued_projected(family):
    sol = MF.test1_solution()
    mesh, tau, disc, systems, glob, dsol, _ = solve_manufactured(family, 4, 1, sol, PLANE_STRESS)
    jump, scale = G.flux_jump_norm(disc, systems, dsol, tau, variant="projected")
    assert jump <= 1e-9 * scale


def test_flux_jump_visible_in_plain_variant():
    sol = MF.test1_solution()
    mesh, tau, disc, systems, glob, dsol, _ = solve_manufactured(
        "tri", 4, 1, sol, PLANE_STRESS, variant="plain"
    )
    jump, scale = G.flux_jump_norm(disc, systems, dsol, tau, variant="plain")
    assert jump > 1e-6 * scale


def test_boundary_lifting_values_applied():
    sol = MF.rigid_motion_solution(0.5, (0.0, 0.0))
    mesh, tau, disc, systems, glob, dsol, _ = solve_manufactured("tri", 2, 1, sol, PLANE_STRESS)
    g_fn = lambda pts: MF.boundary_data(sol, pts)
    expected = G.boundary_trace_values(disc, g_fn)
    boundary = disc.dofmap.interior_index < 0
    assert np.abs(dsol.trace[boundary] - expected[boundary]).max() < 1e-14


def test_assembly_deterministic():
    sol = MF.test1_solution()
    runs = []
    for _ in range(2):
        mesh, tau, disc, _, glob, dsol, _ = solve_manufactured("poly", 3, 1, sol, PLANE_STRESS)
        rep = P.error_norms(disc, dsol, sol, PLANE_STRESS, tau)
        runs.append((glob, dsol, rep))
    (glob1, dsol1, rep1), (glob2, dsol2, rep2) = runs
    assert np.array_equal(glob1.matrix.toarray(), glob2.matrix.toarray())
    assert np.array_equal(glob1.rhs, glob2.rhs)
    assert np.array_equal(dsol1.trace, dsol2.trace)
    assert np.array_equal(dsol1.stress_coeffs, dsol2.stress_coeffs)
    assert np.array_equal(dsol1.disp_coeffs, dsol2.disp_coeffs)
    assert rep1 == rep2


def test_auto_solver_policy(monkeypatch):
    sol = MF.test1_solution()
    *_, stats_small = solve_manufactured("tri", 4, 1, sol, PLANE_STRESS, solver="auto")
    assert stats_small.method == "cholesky"
    monkeypatch.setattr(G, "DIRECT_SOLVER_DOF_LIMIT", 10)
    *_, stats_big = solve_manufactured("tri", 4, 1, sol, PLANE_STRESS, solver="auto")
    assert stats_big.method == "cg"
    assert stats_big.iterations > 0


def test_near_incompressible_errors_pinned():
    # At nu=0.49999 the condensed element matrices reach ~1e6 through
    # cancellation, and reassociating the element arithmetic moves these
    # norms by up to 1e-5 relative. The values are those of the
    # element-by-element computation, which the batched one reproduces
    # bitwise.
    cfg = RunConfig(mesh="poly", k=2, n=12, solution="test2", material="plane_strain",
                    E=3.0, nu=0.49999, solver="cholesky")
    rep = run_solve(cfg).errors
    expected = {
        "err_sigma_proj": 7.93916021965785e-05,
        "err_u_proj": 1.1752969081421038e-06,
        "err_sigma": 0.00011942146590033606,
        "err_u": 1.2309487109660392e-06,
        "trace_diag": 7.632226558126548e-05,
    }
    for key, value in expected.items():
        assert getattr(rep, key) == pytest.approx(value, rel=1e-9, abs=0.0), key


def mixed_mesh(n):
    """Unit square with n x n cells, alternately two triangles and one
    square, so that elements with 3 and 4 faces interleave."""
    xs = np.linspace(0.0, 1.0, n + 1)
    vid = lambda i, j: j * (n + 1) + i
    vertices = np.array([[xs[i], xs[j]] for j in range(n + 1) for i in range(n + 1)])
    elements = []
    for j in range(n):
        for i in range(n):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            if (i + j) % 2 == 0:
                elements += [(a, b, c), (a, c, d)]
            else:
                elements.append((a, b, c, d))
    return M._assemble(vertices, elements, "custom", n)


ELEMENT_RESULTS = ("matrix", "rhs", "stress_map", "disp_map", "source_stress", "source_disp")


def mixed_solve(monkeypatch, chunk, mesh, k, sol, material):
    """Element results in element order, and the global solve, with batches
    of at most ``chunk`` elements."""
    monkeypatch.setattr(L, "CHUNK_SIZE", chunk)
    tau = 3.0 / mesh.h
    disc = G.build_discretization(mesh, k)
    f_fn = lambda pts: MF.body_force(sol, material, pts)
    systems = G.build_element_systems(disc, material, tau, f_fn)
    per_element = {}
    for cb in systems.batches:
        for i, e in enumerate(cb.batch.elements):
            per_element[int(e)] = [getattr(cb, name)[i] for name in ELEMENT_RESULTS]
    bvals = G.boundary_trace_values(disc, lambda pts: MF.boundary_data(sol, pts))
    glob = G.assemble_global(disc, systems, bvals)
    trace, _ = G.solve_condensed(glob, "cholesky")
    dsol = G.recover_fields(disc, systems, trace)
    rep = P.error_norms(disc, dsol, sol, material, tau)
    elements = [per_element[e] for e in range(mesh.num_elements)]
    return disc, systems, elements, (glob.matrix.toarray(), glob.rhs, trace,
                                     dsol.stress_coeffs, dsol.disp_coeffs), rep


def test_mixed_face_counts_batched_like_single_elements(monkeypatch):
    mesh = mixed_mesh(3)
    k = 2
    material = ComplianceTensor.plane_strain(3.0, 0.49)
    sol = MF.test1_solution()
    disc, systems, elements, glob, rep = mixed_solve(
        monkeypatch, mesh.num_elements, mesh, k, sol, material
    )
    assert sorted(cb.batch.face_ids.shape[1] for cb in systems.batches) == [3, 4]

    # every element's batched results equal its one-element-batch results
    tau = 3.0 / mesh.h
    f_fn = lambda pts: MF.body_force(sol, material, pts)
    for e, batched in enumerate(elements):
        batch = L.element_batch(mesh, k, np.array([e]), disc.face_quad, disc.face_modes)
        cb = L.condense_batch(batch, material, tau, f_fn=f_fn)
        single = [getattr(cb, name)[0] for name in ELEMENT_RESULTS]
        for name, a, b in zip(ELEMENT_RESULTS, batched, single):
            assert np.array_equal(a, b), (e, name)

    # and nothing depends on the batch size
    _, _, elements_1, glob_1, rep_1 = mixed_solve(monkeypatch, 1, mesh, k, sol, material)
    for a, b in zip(elements, elements_1):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert all(np.array_equal(x, y) for x, y in zip(glob, glob_1))
    assert rep == rep_1


def test_mixed_face_counts_kernel_and_rigid_motion(monkeypatch):
    mesh = mixed_mesh(3)
    material = ComplianceTensor.plane_strain(3.0, 0.3)
    sol = MF.rigid_motion_solution(0.7, (0.3, -0.2))
    _, systems, elements, _, rep = mixed_solve(monkeypatch, 5, mesh, 1, sol, material)
    for e, (A, *_) in enumerate(elements):
        w = np.linalg.eigvalsh(A)
        assert int(np.sum(w < 1e-10 * w[-1])) == 3, e
        assert w[0] >= -1e-10 * w[-1], e
    assert max(rep.err_sigma, rep.err_u, rep.trace_diag) < 1e-10

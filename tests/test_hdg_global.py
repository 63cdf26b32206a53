import tracemalloc
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


def solve_manufactured(family, n, k, sol, material, tau_c=3.0, solver="cholesky", tol=1e-12):
    mesh = M.build_mesh(family, n)
    tau = tau_c / mesh.h
    disc = G.build_discretization(mesh, k)
    f_fn = lambda pts: MF.body_force(sol, material, pts)
    g_fn = lambda pts: MF.boundary_data(sol, pts)
    systems = G.build_element_systems(disc, material, tau, f_fn)
    bvals = G.boundary_trace_values(disc, g_fn)
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


def ordered(keys, *parts):
    """Concatenate per-batch pieces, ordered by ascending key and stable
    within a key: the sequence an element-by-element loop would produce."""
    order = np.argsort(np.concatenate(keys), kind="stable")
    return [np.concatenate(p)[order] for p in parts]


def coo_oracle(disc, systems, boundary_values):
    """The interior trace system from one triplet per element-matrix entry,
    scattered in element order and summed by the COO -> CSR conversion."""
    dofmap = disc.dofmap
    rhs_keys, rhs_idx, rhs_vals = [], [], []
    mat_keys, rows, cols, vals = [], [], [], []
    for cb in systems.batches:
        elems = cb.batch.elements
        gdofs = disc.element_dofs(cb.batch.face_ids)
        red = dofmap.interior_index[gdofs]
        inside = red >= 0
        rhs_keys.append(np.broadcast_to(2 * elems[:, None], red.shape)[inside])
        rhs_idx.append(red[inside])
        rhs_vals.append(cb.rhs[inside])
        pair = inside[:, :, None] & inside[:, None, :]
        mat_keys.append(np.broadcast_to(elems[:, None, None], pair.shape)[pair])
        rows.append(np.broadcast_to(red[:, :, None], pair.shape)[pair])
        cols.append(np.broadcast_to(red[:, None, :], pair.shape)[pair])
        vals.append(cb.matrix[pair])
        n_bdry = (~inside).sum(axis=1)
        for count in np.unique(n_bdry[n_bdry > 0]):
            sel = np.flatnonzero(n_bdry == count)
            ii = np.nonzero(inside[sel])[1].reshape(len(sel), -1)
            bb = np.nonzero(~inside[sel])[1].reshape(len(sel), -1)
            sub = cb.matrix[sel[:, None, None], ii[:, :, None], bb[:, None, :]]
            g = boundary_values[np.take_along_axis(gdofs[sel], bb, axis=1)]
            lift = (sub @ g[..., None])[..., 0]
            rhs_keys.append(np.broadcast_to(2 * elems[sel, None] + 1, ii.shape).ravel())
            rhs_idx.append(np.take_along_axis(red[sel], ii, axis=1).ravel())
            rhs_vals.append(-lift.ravel())
    n = dofmap.n_interior
    rhs = np.zeros(n)
    np.add.at(rhs, *ordered(rhs_keys, rhs_idx, rhs_vals))
    rows, cols, vals = ordered(mat_keys, rows, cols, vals)
    matrix = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    matrix.sum_duplicates()
    return matrix, rhs


FACE_BLOCK_CASES = [("tri", 1), ("tri", 2), ("tri", 3), ("poly", 1), ("poly", 2)]


def cubic_solution():
    a, b = np.indices((4, 4))
    c1, c2 = np.random.default_rng(5).uniform(-1, 1, (2, 4, 4)) * (a + b <= 3)
    return MF.polynomial_solution(c1, c2, name="cubic")


def assembled_with_data(family, k, n=4, sol=None):
    sol = MF.test2_solution() if sol is None else sol
    material = ComplianceTensor.plane_strain(3.0, 0.49)
    mesh = M.build_mesh(family, n)
    disc = G.build_discretization(mesh, k)
    systems = G.build_element_systems(disc, material, 3.0 / mesh.h,
                                      lambda pts: MF.body_force(sol, material, pts))
    bvals = G.boundary_trace_values(disc, lambda pts: MF.boundary_data(sol, pts))
    return disc, systems, bvals, G.assemble_global(disc, systems, bvals)


@pytest.mark.parametrize("family,k", FACE_BLOCK_CASES)
def test_face_block_assembly_matches_triplet_oracle(family, k):
    # test2 vanishes on the boundary; the other two lift nonzero boundary
    # data to the right-hand side
    for sol in (MF.test2_solution(), MF.rigid_motion_solution(), cubic_solution()):
        disc, systems, bvals, glob = assembled_with_data(family, k, sol=sol)
        matrix, rhs = coo_oracle(disc, systems, bvals)
        A = glob.matrix
        assert A.indptr.dtype == matrix.indptr.dtype and A.indices.dtype == matrix.indices.dtype
        assert np.array_equal(A.indptr, matrix.indptr)
        assert np.array_equal(A.indices, matrix.indices)
        assert A.data.tobytes() == matrix.data.tobytes()
        assert glob.rhs.tobytes() == rhs.tobytes()
        if sol.name != "test2":
            unlifted = G.assemble_global(disc, systems).rhs
            assert np.abs(glob.rhs - unlifted).max() > 1e-3 * np.abs(glob.rhs).max()


@pytest.mark.parametrize("family,k", FACE_BLOCK_CASES)
def test_global_matrix_bitwise_symmetric(family, k):
    A = assembled_with_data(family, k)[-1].matrix
    assert (A != A.T).nnz == 0


def test_face_block_summing_more_than_two_element_blocks_rejected():
    disc, systems, bvals, _ = assembled_with_data("tri", 1, n=2)
    systems.batches.append(systems.batches[0])  # every element counted twice
    with pytest.raises(L.AssemblyError, match="more than two element blocks"):
        G.assemble_global(disc, systems, bvals)


def test_assembly_peak_memory_bounded_by_matrix():
    # the triplet assembly peaked at ~6.8x the bytes of the matrix it
    # returned; face blocks need one block array besides the matrix
    disc, systems, bvals, _ = assembled_with_data("poly", 2, n=24)
    tracemalloc.start()
    try:
        A = G.assemble_global(disc, systems, bvals).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


@pytest.mark.parametrize("family,k", [("tri", 1), ("tri", 3), ("poly", 2)])
def test_patch_blocks_equal_sampled_matrix(family, k):
    glob = assembled_with_data(family, k)[-1]
    patches = G._patch_blocks(glob)
    assert sum(len(dofs) for dofs, _ in patches) == len(np.unique(
        glob.disc.mesh.face_vertices[glob.disc.mesh.interior_faces()]))
    for dofs, blocks in patches:
        rows = np.broadcast_to(dofs[:, :, None], blocks.shape)
        cols = np.broadcast_to(dofs[:, None, :], blocks.shape)
        sampled = np.asarray(glob.matrix[rows.ravel(), cols.ravel()]).reshape(blocks.shape)
        assert sampled.tobytes() == blocks.tobytes()


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
    disc = G.build_discretization(M.build_unit_square_tri(2), 1)
    glob = G.assemble_global(disc, G.build_element_systems(disc, PLANE_STRESS, tau=2.0))
    A = glob.matrix.copy()
    A[0, 0] = -A[0, 0]  # break positive definiteness, keep the symmetry
    with pytest.raises(G.SolverError, match="not positive definite"):
        G.solve_condensed(replace(glob, matrix=A), "cholesky")


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
    rep = P.error_norms(disc, dsol, sol)
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
    rep = P.error_norms(disc, dsol, sol)
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
    res = G.scheme_residuals(disc, dsol, f_fn, g_fn)
    for key, val in res.items():
        assert val < 1e-9, (key, val)


@pytest.mark.parametrize("family", ["tri", "poly"])
def test_flux_single_valued_projected(family):
    sol = MF.test1_solution()
    mesh, tau, disc, systems, glob, dsol, _ = solve_manufactured(family, 4, 1, sol, PLANE_STRESS)
    jump, scale = G.flux_jump_norm(disc, dsol)
    assert jump <= 1e-9 * scale


def test_flux_jump_visible_with_perturbed_trace():
    """Negative control: a trace that is not the solved one leaves the
    numerical traction double-valued, and flux_jump_norm reports it."""
    sol = MF.test1_solution()
    mesh, tau, disc, systems, glob, dsol, _ = solve_manufactured("tri", 4, 1, sol, PLANE_STRESS)
    noise = 1e-3 * np.random.default_rng(3).standard_normal(dsol.trace.shape)
    jump, scale = G.flux_jump_norm(disc, replace(dsol, trace=dsol.trace + noise))
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
        rep = P.error_norms(disc, dsol, sol)
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
    return M._assemble(vertices, elements)


ELEMENT_RESULTS = ("matrix", "rhs", "stress_map", "disp_map", "source_stress", "source_disp")


def mixed_solve(monkeypatch, tmp_path, chunk, mesh, k, sol, material):
    """Element results in element order, the global solve, and the outputs
    derived from it (error report, scheme residuals, traction jump, VTK
    bytes), with batches of at most ``chunk`` elements."""
    monkeypatch.setattr(L, "CHUNK_SIZE", chunk)
    tau = 3.0 / mesh.h
    disc = G.build_discretization(mesh, k)
    f_fn = lambda pts: MF.body_force(sol, material, pts)
    g_fn = lambda pts: MF.boundary_data(sol, pts)
    systems = G.build_element_systems(disc, material, tau, f_fn)
    per_element = {}
    for cb in systems.batches:
        for i, e in enumerate(cb.batch.elements):
            per_element[int(e)] = [getattr(cb, name)[i] for name in ELEMENT_RESULTS]
    bvals = G.boundary_trace_values(disc, g_fn)
    glob = G.assemble_global(disc, systems, bvals)
    trace, _ = G.solve_condensed(glob, "cholesky")
    dsol = G.recover_fields(disc, systems, trace)
    vtk = tmp_path / f"chunk{chunk}.vtk"
    P.write_vtk(mesh, dsol, str(vtk))
    derived = (P.error_norms(disc, dsol, sol),
               G.scheme_residuals(disc, dsol, f_fn, g_fn),
               G.flux_jump_norm(disc, dsol), vtk.read_bytes())
    elements = [per_element[e] for e in range(mesh.num_elements)]
    return disc, systems, elements, (glob.matrix.toarray(), glob.rhs, trace,
                                     dsol.stress_coeffs, dsol.disp_coeffs), derived


def assert_same_solve(a, b):
    """Two mixed_solve results agree bit for bit past the element stage."""
    assert all(np.array_equal(x, y) for x, y in zip(a[3], b[3]))
    assert a[4] == b[4]


def test_mixed_face_counts_batched_like_single_elements(monkeypatch, tmp_path):
    mesh = mixed_mesh(3)
    k = 2
    material = ComplianceTensor.plane_strain(3.0, 0.49)
    sol = MF.test1_solution()
    full = mixed_solve(monkeypatch, tmp_path, mesh.num_elements, mesh, k, sol, material)
    disc, systems, elements = full[:3]
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
    single = mixed_solve(monkeypatch, tmp_path, 1, mesh, k, sol, material)
    for a, b in zip(elements, single[2]):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert_same_solve(full, single)


def test_mixed_face_counts_kernel_and_rigid_motion(monkeypatch, tmp_path):
    mesh = mixed_mesh(3)
    material = ComplianceTensor.plane_strain(3.0, 0.3)
    sol = MF.rigid_motion_solution(0.7, (0.3, -0.2))
    runs = [mixed_solve(monkeypatch, tmp_path, chunk, mesh, 1, sol, material)
            for chunk in (5, mesh.num_elements, 1)]
    for e, (A, *_) in enumerate(runs[0][2]):
        w = np.linalg.eigvalsh(A)
        assert int(np.sum(w < 1e-10 * w[-1])) == 3, e
        assert w[0] >= -1e-10 * w[-1], e
    rep = runs[0][4][0]
    assert max(rep.err_sigma, rep.err_u, rep.trace_diag) < 1e-10
    # nonzero boundary data: the lifted rhs, residuals, jump and VTK agree
    # whatever the batch size
    assert np.abs(runs[0][3][1]).max() > 0
    assert_same_solve(runs[1], runs[2])
    assert_same_solve(runs[0], runs[2])

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from hdgelast import hdg_global as G
from hdgelast import hdg_local as L
from hdgelast import manufactured as MF
from hdgelast import mesh as M
from hdgelast import postproc as P
from hdgelast.harness import RunConfig, run_solve
from hdgelast.material import ComplianceTensor

from oracles import polynomial_solution, symmetric_lu

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
        elems = cb.elements
        A = cb.matrix[cb.rows]  # the elements' class matrices
        gdofs = disc.element_dofs(cb.face_ids)
        red = dofmap.interior_index[gdofs]
        inside = red >= 0
        rhs_keys.append(np.broadcast_to(2 * elems[:, None], red.shape)[inside])
        rhs_idx.append(red[inside])
        rhs_vals.append(cb.rhs[inside])
        pair = inside[:, :, None] & inside[:, None, :]
        mat_keys.append(np.broadcast_to(elems[:, None, None], pair.shape)[pair])
        rows.append(np.broadcast_to(red[:, :, None], pair.shape)[pair])
        cols.append(np.broadcast_to(red[:, None, :], pair.shape)[pair])
        vals.append(A[pair])
        n_bdry = (~inside).sum(axis=1)
        for count in np.unique(n_bdry[n_bdry > 0]):
            sel = np.flatnonzero(n_bdry == count)
            ii = np.nonzero(inside[sel])[1].reshape(len(sel), -1)
            bb = np.nonzero(~inside[sel])[1].reshape(len(sel), -1)
            sub = A[sel[:, None, None], ii[:, :, None], bb[:, None, :]]
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
    return polynomial_solution(c1, c2, name="cubic")


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
        A = glob.matrix.tocsr()
        assert A.indptr.dtype == matrix.indptr.dtype and A.indices.dtype == matrix.indices.dtype
        assert np.array_equal(A.indptr, matrix.indptr)
        assert np.array_equal(A.indices, matrix.indices)
        assert A.data.tobytes() == matrix.data.tobytes()
        assert glob.rhs.tobytes() == rhs.tobytes()
        if sol.name != "test2":
            unlifted = G.assemble_global(disc, systems).rhs
            assert np.abs(glob.rhs - unlifted).max() > 1e-3 * np.abs(glob.rhs).max()


@pytest.mark.parametrize("family,k,n", [("tri", 1, 16), ("poly", 2, 12)])
def test_assembly_bitwise_against_per_element_copies(family, k, n):
    # several batches read one chunk's class matrices through their rows;
    # the same assembly with every element holding a copy of its class
    # matrix has the same bits, boundary lift included
    disc, systems, bvals, glob = assembled_with_data(family, k, n, sol=cubic_solution())
    assert len(systems.batches) > 1 and np.abs(bvals).max() > 0
    copies = replace(systems, batches=[
        replace(cb, matrix=cb.matrix[cb.rows], rows=np.arange(len(cb.rows)))
        for cb in systems.batches
    ])
    ref = G.assemble_global(disc, copies, bvals)
    for name in ("data", "indices", "indptr"):
        assert getattr(glob.matrix, name).tobytes() == getattr(ref.matrix, name).tobytes()
    assert glob.rhs.tobytes() == ref.rhs.tobytes()


@pytest.mark.parametrize("family,k", FACE_BLOCK_CASES)
def test_global_matrix_bitwise_symmetric(family, k):
    A = assembled_with_data(family, k)[-1].matrix
    assert (A != A.T).nnz == 0


def test_matrix_kept_as_face_blocks():
    # one stored block per pair of interior faces that share an element: a
    # face with itself, and each ordered pair of distinct interior faces of
    # an element; the stored entries are those of the flattened matrix
    mesh = M.build_unit_square_tri(32)
    disc = G.build_discretization(mesh, 1)
    glob = G.assemble_global(disc, G.build_element_systems(disc, PLANE_STRESS, tau=2.0))
    A = glob.matrix
    assert A.format == "bsr" and A.blocksize == (4, 4)
    fids = mesh.interior_faces()
    per_element = np.bincount(np.concatenate([mesh.face_left[fids], mesh.face_right[fids]]))
    assert A.indices.size == len(fids) + np.sum(per_element * (per_element - 1))
    _, stats = G.solve_condensed(glob, "cholesky")
    assert stats.nnz == A.data.size == A.tocsr().nnz == 236_608


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


@pytest.mark.parametrize("family,n", [("tri", 1), ("tri", 2), ("poly", 2)],
                         ids=["tri-1-0", "tri-2-2", "poly-2-2"])
def test_cg_matches_cholesky_on_smallest_meshes(family, n):
    sol = MF.test1_solution()
    *_, glob, dsol, stats = solve_manufactured(family, n, 2, sol, PLANE_STRESS, solver="cg")
    trace, _ = G.solve_condensed(glob, "cholesky")
    assert stats.iterations > 0
    assert np.abs(dsol.trace - trace).max() < 1e-10 * np.abs(trace).max()


@pytest.mark.parametrize("family,k,sol,material", [
    ("tri", 1, MF.test1_solution(), PLANE_STRESS),
    ("poly", 2, MF.test2_solution(), ComplianceTensor.plane_strain(3.0, 0.49999)),
], ids=["tri-k1-nu0.3", "poly-k2-nu0.49999"])
def test_cg_iterations_flat_under_refinement(family, k, sol, material):
    # preconditioned by the factorization of the direct solve, CG refines
    # that solve's result, so its counts do not grow by 1.5x per
    # refinement, near incompressibility too
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


@pytest.mark.parametrize("family,k,n", [("tri", 1, 16), ("poly", 2, 12), ("poly", 2, 24)])
def test_cg_refines_direct_solve(family, k, n):
    # CG preconditioned by the direct solve's factors reaches the tolerance
    # in a few steps at nu=0.49999, where the trace matrix is worst
    # conditioned, and leaves a true residual no larger than the direct one
    sol, material = MF.test2_solution(), ComplianceTensor.plane_strain(3.0, 0.49999)
    *_, glob, _, stats = solve_manufactured(family, n, k, sol, material, solver="cg")
    _, direct = G.solve_condensed(glob, "cholesky")
    assert 0 < stats.iterations <= 3
    assert stats.min_pivot == direct.min_pivot > 0
    assert stats.residual <= direct.residual, (stats.residual, direct.residual)


def test_cg_on_actual_problem_matches_direct():
    sol = MF.test1_solution()
    *_, dsol_direct, _ = solve_manufactured("tri", 4, 1, sol, PLANE_STRESS, solver="cholesky")
    *_, dsol_cg, stats = solve_manufactured("tri", 4, 1, sol, PLANE_STRESS, solver="cg", tol=1e-14)
    assert np.abs(dsol_direct.trace - dsol_cg.trace).max() < 1e-9
    assert stats.iterations > 0


def test_cg_zero_rhs_takes_no_step():
    # the direct solution of a zero load is exactly zero, so CG has no
    # residual to refine, and the reported residual divides by no zero
    # (a warning would fail the test)
    disc = G.build_discretization(M.build_unit_square_tri(2), 1)
    glob = G.assemble_global(disc, G.build_element_systems(disc, PLANE_STRESS, tau=2.0))
    assert not glob.rhs.any()
    trace, stats = G.solve_condensed(glob, "cg")
    assert stats.iterations == 0 and stats.residual == 0.0
    assert not trace[glob.dofmap.interior_index >= 0].any()


def with_preconditioner(monkeypatch, precondition):
    """Make solve_condensed refine the direct solution with
    ``precondition`` in place of the factors."""
    direct = G._substructured_solve

    def substructured_solve(system):
        x, min_pivot, _ = direct(system)
        return x, min_pivot, precondition

    monkeypatch.setattr(G, "_substructured_solve", substructured_solve)


def test_cg_indefinite_preconditioner_breaks_down(monkeypatch):
    *_, glob, _, _ = solve_manufactured("tri", 2, 1, MF.test1_solution(), PLANE_STRESS)
    with_preconditioner(monkeypatch, lambda r: -r)
    with pytest.raises(G.SolverError, match=r"^cg failed \(illegal input or breakdown\)$"):
        G.solve_condensed(glob, "cg")


def test_cg_stops_at_ten_n_iterations(monkeypatch):
    # unpreconditioned CG on 32 dofs at nu=0.49999 brings its updated
    # residual to about 1e-66 ||b|| in 320 steps, far from 1e-300 ||b||
    material = ComplianceTensor.plane_strain(3.0, 0.49999)
    *_, glob, _, _ = solve_manufactured("tri", 2, 1, MF.test2_solution(), material)
    assert glob.matrix.shape == (32, 32)
    with_preconditioner(monkeypatch, lambda r: r.copy())
    with pytest.raises(G.SolverError, match=r"^cg did not converge in 320 iterations$"):
        G.solve_condensed(glob, "cg", tol=1e-300)


def non_spd_dof(glob, where):
    """An interior dof of ``glob``'s trace matrix: its first dof on the
    one-block mesh, the first dof of a front above the subdomains, the first
    inner dof of the second front of a class shared by several (subdomains,
    or fronts above them), or the last dof of the top front."""
    if where == "one-block":
        return 0
    stacks = G._substructure(glob)
    if where == "interface":
        return next(st for st in stacks if st.level == 1).inner[0, 0, 0]
    if where == "top":
        return stacks[-1].inner[0, 0, -1]
    upper = where == "upper-shared"
    return next(st for st in stacks if st.inner.shape[1] > 1 and (st.level > 0) == upper
                ).inner[0, 1, 0]


@pytest.mark.parametrize("n,where", [(2, "one-block"), (16, "interface"), (16, "inner-shared"),
                                     (16, "top"), (32, "upper-shared")],
                         ids=["one-block", "interface", "inner-shared", "top", "upper-shared"])
def test_non_spd_detected(n, where):
    # a negated diagonal entry keeps the symmetry; in the inner rows of a
    # front that shares its class, at level 0 or above, it must split the
    # class, or the front would be eliminated with its class's positive
    # definite factor; on the faces of the top front it breaks the last
    # factorization
    disc = G.build_discretization(M.build_unit_square_tri(n), 1)
    glob = G.assemble_global(disc, G.build_element_systems(disc, PLANE_STRESS, tau=2.0))
    dof = non_spd_dof(glob, where)
    A = glob.matrix.copy()
    face, a = divmod(dof, A.blocksize[0])
    row = np.arange(A.indptr[face], A.indptr[face + 1])
    A.data[row[A.indices[row] == face], a, a] *= -1.0
    with pytest.raises(G.SolverError, match="not positive definite"):
        G.solve_condensed(replace(glob, matrix=A), "cholesky")


def direct_case(case):
    """Assembled trace system of a named case: test2 at nu=0.3 with its body
    force on the mesh the name gives."""
    from test_mesh import perturbed_mesh

    family, k, n = case.split("-")
    k, n = int(k[1:]), int(n[1:])
    if family == "mixed":
        mesh = mixed_mesh(n)
    elif family == "dented":
        mesh = dented_mesh(n)
    elif family == "perturbed":
        mesh = perturbed_mesh("tri", n)
    else:
        mesh = M.build_mesh(family, n)
    sol, material = MF.test2_solution(), ComplianceTensor.plane_strain(3.0, 0.3)
    disc = G.build_discretization(mesh, k)
    systems = G.build_element_systems(disc, material, 3.0 / mesh.h,
                                      lambda pts: MF.body_force(sol, material, pts))
    return G.assemble_global(disc, systems)


def dented_mesh(n):
    """The tri mesh with the vertex nearest (5/16, 5/16) moved by h/10: at
    n=32 it lies inside one subdomain, away from its interface faces, so
    only that subdomain's rows change, and with them the Schur complement
    it passes up to a front whose own rows equal those of three others."""
    mesh = M.build_mesh("tri", n)
    vertices = mesh.vertices.copy()
    vertices[np.argmin(np.linalg.norm(vertices - 5 / 16, axis=1))] += 0.1 * mesh.h
    return M._assemble(vertices, mesh.element_vertices.reshape(-1, 3))


def subdomain_grid(glob):
    """The direct solve's subdomain grid: subdomains per side, whether some
    hold fewer elements than others (partial subdomains at the top and
    right), and the levels at which a group of the nested dissection holds
    one child group (whose update it passes up unchanged)."""
    ij = G._element_blocks(glob.disc.mesh, glob.dofmap.ndof_face)
    counts = np.unique(ij, axis=0, return_counts=True)[1]
    one_child = []
    for lv in range(1, int(ij.max()).bit_length() + 1):
        children = np.unique(ij >> (lv - 1), axis=0)
        if (np.unique(children >> 1, axis=0, return_counts=True)[1] == 1).any():
            one_child.append(lv)
    return int(ij.max()) + 1, bool(counts.min() < counts.max()), one_child


# what the cases are there for, as subdomain_grid gives it. tri k=1 picks
# subdomains of 4 x 4 cells, tri k=2 and k=3 of 2 x 2 (test_subdomain_width).
# n=1 and 2 are one subdomain with no interface; n=5, tri k=1 n=10 and
# n=21 leave partial subdomains at the top and right; a group with one
# child shows at one level on odd grids (3 x 3, 7 x 7), at two adjacent
# levels on 5 x 5 and 10 x 10, and at two levels with one between them on
# 11 x 11; the dented mesh has a front that must not share its class for its
# rows alone
DIRECT_GRIDS = {
    "tri-k1-n1": (1, False, []),
    "tri-k3-n2": (1, False, []),
    "tri-k1-n5": (2, True, []),
    "tri-k2-n5": (3, True, [1]),
    "tri-k1-n10": (3, True, [1]),
    "tri-k2-n10": (5, False, [1, 2]),
    "tri-k2-n14": (7, False, [1]),
    "tri-k2-n20": (10, False, [2, 3]),
    "tri-k1-n40": (10, False, [2, 3]),
    "tri-k2-n21": (11, True, [1, 3]),
    "tri-k3-n21": (11, True, [1, 3]),
    "tri-k3-n32": (16, False, []),
}
DIRECT_CASES = [f"tri-k{k}-n{n}" for k in (1, 2, 3) for n in (1, 2, 5, 10, 32)] + [
    "tri-k2-n20", "tri-k1-n40", "poly-k2-n12", "mixed-k2-n6", "perturbed-k1-n16", "dented-k1-n32",
    "tri-k2-n14", "tri-k2-n21", "tri-k3-n21"]


def assert_matches_whole_factorization(glob):
    expected = symmetric_lu(glob.matrix.tocsc()).solve(glob.rhs)
    trace, stats = G.solve_condensed(glob, "cholesky")
    x = trace[glob.dofmap.interior_index >= 0]
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()
    assert stats.min_pivot > 0


@pytest.mark.parametrize("case", DIRECT_CASES)
def test_substructured_solve_matches_whole_factorization(case):
    glob = direct_case(case)
    if case in DIRECT_GRIDS:
        assert subdomain_grid(glob) == DIRECT_GRIDS[case]
    assert_matches_whole_factorization(glob)


def test_single_element_subdomains(monkeypatch):
    # with no inner-dof target each subdomain is one cell: on quadrilaterals
    # one element with no inner face, so level 0 of the dissection is empty
    monkeypatch.setattr(G, "SUBDOMAIN_INNER_DOFS", 0)
    glob = direct_case("poly-k2-n12")
    assert subdomain_grid(glob) == (12, False, [3])
    assert min(st.level for st in G._substructure(glob)) == 1
    assert_matches_whole_factorization(glob)


@pytest.mark.parametrize("family,k,n,s", [
    ("tri", 1, 16, 4), ("tri", 1, 32, 4), ("tri", 2, 8, 2), ("tri", 2, 16, 2), ("tri", 3, 8, 2),
    ("tri", 4, 8, 2), ("poly", 1, 12, 4), ("poly", 2, 12, 4), ("poly", 3, 12, 4)])
def test_subdomain_width(family, k, n, s):
    # the widths are powers of two, so these meshes (2^j cells per side, or
    # 12 = 3 x 4) split into whole subdomains of s x s cells, 2 s^2 triangles
    # or s^2 quadrilaterals each. poly k=2 n=12 is the cell of
    # test_near_incompressible_errors_pinned, whose norms s=2 would move past
    # their check
    ij = G._element_blocks(M.build_mesh(family, n), 2 * (k + 1))
    counts = np.unique(ij, axis=0, return_counts=True)[1]
    assert list(np.unique(counts)) == [(2 if family == "tri" else 1) * s * s]


def test_power_of_two_grid_stacks():
    # tri k=2 n=16 is 8 x 8 whole subdomains of 2 x 2 cells, so the fronts
    # of a level differ only as corner, edge or interior ones: 3 stacks at
    # levels 0 and 1, 1 at level 2, and the top, 8 in all. At s=3 the ragged
    # last row and column of subdomains gave fronts of other shapes: 15.
    assert len(G._substructure(direct_case("tri-k2-n16"))) == 8


@pytest.mark.parametrize("case,classes,blocks,fronts,shared", [
    ("tri-k1-n32", 9, 64, [16, 4, 1], [9, 4, 1]),
    ("perturbed-k1-n16", 16, 16, [4, 1], [4, 1]),
], ids=["tri-k1-n32-9-64", "perturbed-k1-n16-16-16"])
def test_subdomain_classes(monkeypatch, case, classes, blocks, fronts, shared):
    # the 8 x 8 subdomains of tri n=32 fall into 9 classes: interior, four
    # edges and four corners; on a mesh without translates each of the
    # 4 x 4 subdomains is its own class (the unperturbed mesh has 9). Each
    # level above has a quarter of the fronts of the one below; on tri n=32
    # the 16 fronts of level 1 fall into 9 classes, as the subdomains do.
    # The classes do not depend on how many keys _distinct compares at a
    # time: COMPARE_BYTES of 1 compares one at a time.
    glob = direct_case(case)
    for compare_bytes in (G.COMPARE_BYTES, 1):
        monkeypatch.setattr(G, "COMPARE_BYTES", compare_bytes)
        stacks = G._substructure(glob)
        per_level = np.zeros((stacks[-1].level + 1, 2), dtype=int)  # classes, fronts
        for st in stacks:
            C, m, _ = st.inner.shape
            per_level[st.level] += C, C * m
        assert list(per_level[0]) == [classes, blocks]
        assert list(per_level[1:, 1]) == fronts
        assert list(per_level[1:, 0]) == shared


@pytest.mark.parametrize("compare_bytes", [G.COMPARE_BYTES, 8], ids=["default", "one-word"])
def test_distinct_rows(monkeypatch, compare_bytes):
    # equal rows share the first as representative; a row one ulp off in
    # one word is its own. Rows 4 and 5 differ in two words, by amounts
    # chosen so that their fingerprints agree: only the word-by-word
    # comparison (in chunks of one row at 8 bytes) tells them apart.
    monkeypatch.setattr(G, "COMPARE_BYTES", compare_bytes)
    rows = np.random.default_rng(4).normal(size=(6, 5))
    rows[[1, 3]] = rows[0]
    rows[2, 3] = np.nextafter(rows[0, 3], np.inf)
    words = rows.view(np.uint64)
    words[4:] = words[0]
    probe = (2 * np.arange(5, dtype=np.uint64) + 1) * np.uint64(0x9E3779B97F4A7C15)
    words[5, 1:2] += probe[2:3]  # slices, as array arithmetic wraps silently
    words[5, 2:3] -= probe[1:2]
    assert (words[4] @ probe) == (words[5] @ probe)
    assert list(G._distinct(rows)) == [0, 0, 2, 0, 0, 5]


@pytest.mark.parametrize("case", ["tri-k1-n32", "poly-k2-n12", "mixed-k2-n6", "perturbed-k1-n16"])
def test_direct_solve_without_superlu(case, monkeypatch):
    # both methods factor every front with a dense Cholesky, and nothing in
    # the program calls SuperLU, which is only the tests' whole-matrix
    # oracle. Two solves give the same bits.
    def refuse(*args, **kwargs):
        raise AssertionError("splu called by the trace solve")

    glob = direct_case(case)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
    for method in ("cholesky", "cg"):
        first, stats = G.solve_condensed(glob, method)
        second, _ = G.solve_condensed(glob, method)
        assert first.tobytes() == second.tobytes()
        assert stats.min_pivot > 0 and stats.residual < 1e-10


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
    sol = polynomial_solution(c1, c2, name=f"poly-deg{deg}")
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


@pytest.mark.parametrize("family,k", [("tri", 2), ("poly", 2)])
def test_scheme_residuals_catch_perturbed_solutions(family, k):
    """Negative controls: a trace that is not the solved one breaks the
    transmission condition, and stress coefficients that are not the
    solved ones break the constitutive equation; scheme_residuals reports
    both."""
    sol = MF.test1_solution()
    mesh, tau, disc, systems, glob, dsol, _ = solve_manufactured(family, 4, k, sol, PLANE_STRESS)
    f_fn = lambda pts: MF.body_force(sol, PLANE_STRESS, pts)
    g_fn = lambda pts: MF.boundary_data(sol, pts)
    assert max(G.scheme_residuals(disc, dsol, f_fn, g_fn).values()) < 1e-9
    rng = np.random.default_rng(5)
    trace = dsol.trace + 1e-3 * rng.standard_normal(dsol.trace.shape)
    res = G.scheme_residuals(disc, replace(dsol, trace=trace), f_fn, g_fn)
    assert res["transmission"] > 1e-6, res
    stress = dsol.stress_coeffs + 1e-3 * rng.standard_normal(dsol.stress_coeffs.shape)
    res = G.scheme_residuals(disc, replace(dsol, stress_coeffs=stress), f_fn, g_fn)
    assert res["constitutive"] > 1e-6, res


@pytest.mark.parametrize("family,n,k", [("tri", 32, 1), ("poly", 24, 2)])
def test_element_systems_hold_only_per_element_loads(family, n, k):
    # after the element stage an element needs its class's operators and its
    # own load and body-force responses: the bytes build_element_systems
    # leaves held are at most 2.5x those of the per-element loads and
    # responses (with a translated geometry per element it held 6.0x / 6.8x)
    mesh = M.build_mesh(family, n)
    disc = G.build_discretization(mesh, k)
    sol = MF.test1_solution()
    f_fn = lambda pts: MF.body_force(sol, PLANE_STRESS, pts)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        systems = G.build_element_systems(disc, PLANE_STRESS, 3.0 / mesh.h, f_fn)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    loads = sum(cb.rhs.nbytes + cb.source_stress.nbytes + cb.source_disp.nbytes
                for cb in systems.batches)
    assert held <= 2.5 * loads, held / loads


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


def test_near_incompressible_errors_pinned():
    # At nu=0.49999 the condensed element matrices reach ~1e6 through
    # cancellation, and reassociating the element arithmetic moves these
    # norms by up to 1e-5 relative. The values are those of the
    # element-by-element computation with a centroid-fan quadrature on the
    # quadrilaterals. Five changes moved the cell since, each by rounding:
    # the tensor Gauss rule on quadrilaterals (3.2e-10 in err_u_proj), the
    # element stage run once per translation class, the error norms
    # tabulated once per class (at most 4.1e-13), the direct solve by
    # static condensation of subdomains in place of one sparse LU (up to
    # 4.2e-10, in err_u_proj), and the nested dissection of their interface
    # by dense Cholesky fronts (up to 3.3e-11, in err_u_proj). The norms now
    # lie 2.05e-11 (err_sigma_proj), 6.60e-10 (err_u_proj), 9.1e-12
    # (err_sigma), 6.01e-10 (err_u) and 8.7e-12 (trace_diag) from these
    # values.
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
OPERATORS = ("matrix", "stress_map", "disp_map")


def element_results(cb, i):
    """The ELEMENT_RESULTS of element i of a CondensedBatch: its class
    operators through its class row, its own loads and responses."""
    return [getattr(cb, name)[cb.rows[i] if name in OPERATORS else i] for name in ELEMENT_RESULTS]


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
        for i, e in enumerate(cb.elements):
            per_element[int(e)] = element_results(cb, i)
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


# Largest departure of an element's operators and loads from its own
# one-element batch, relative to the largest entry, allowed where the
# element takes its translation class representative's operators. Measured:
# at most 7.5e-15 on tri n=6 and poly n=12 (k=2, nu=0.3), 5.1e-15 on the
# mixed mesh (k=2, nu=0.49).
TRANSLATE_RTOL = 2e-14


def alone(mesh, disc, k, e, material, tau, f_fn):
    """Element results of element ``e`` as a one-element batch."""
    batch = L.element_batch(mesh, k, np.array([e]), disc.face_quad, disc.face_modes)
    (cb,) = L.condense_classes(batch, material, tau, f_fn, [(np.arange(1), batch.elements)])
    return element_results(cb, 0)


def assert_class_results(mesh, disc, k, elements, material, tau, f_fn):
    """``elements`` (results in element order) hold their class
    representative's one-element operators bit for bit, a representative's
    loads and responses bit for bit too, and match each element's own
    one-element results to TRANSLATE_RTOL."""
    for _, ids in mesh.element_groups():
        first, cls = mesh.translation_classes(ids)
        reps = {int(ids[i]): alone(mesh, disc, k, ids[i], material, tau, f_fn) for i in first}
        for e, c in zip(ids, cls):
            rep = int(ids[first[c]])
            own = reps[rep] if e == rep else alone(mesh, disc, k, e, material, tau, f_fn)
            for name, a, r, o in zip(ELEMENT_RESULTS, elements[e], reps[rep], own):
                if name in OPERATORS or e == rep:
                    assert np.array_equal(a, r), (e, name)
                assert np.abs(a - o).max() <= TRANSLATE_RTOL * np.abs(o).max(), (e, name)


@pytest.mark.parametrize("family,n", [("tri", 6), ("poly", 12)])
def test_elements_take_their_class_operators(family, n):
    mesh = M.build_mesh(family, n)
    k, sol = 2, MF.test1_solution()
    disc = G.build_discretization(mesh, k)
    tau = 3.0 / mesh.h
    f_fn = lambda pts: MF.body_force(sol, PLANE_STRESS, pts)
    systems = G.build_element_systems(disc, PLANE_STRESS, tau, f_fn)
    elements = {}
    for cb in systems.batches:
        for i, e in enumerate(cb.elements):
            elements[int(e)] = element_results(cb, i)
    assert len(elements) == mesh.num_elements
    assert_class_results(mesh, disc, k, elements, PLANE_STRESS, tau, f_fn)


def test_class_operators_stored_once():
    # tri k=1 has 4 translation classes at n=8 and at n=16: the condensed
    # matrices and solution operators held are those of the 4 classes, not
    # of the 128 or 512 elements
    held = []
    for n in (8, 16):
        mesh = M.build_mesh("tri", n)
        disc = G.build_discretization(mesh, 1)
        systems = G.build_element_systems(disc, PLANE_STRESS, 3.0 / mesh.h)
        arrays = {id(a): a for cb in systems.batches for a in (cb.matrix, cb.stress_map, cb.disp_map)}
        held.append(sum(a.nbytes for a in arrays.values()))
        (_, ids), = mesh.element_groups()
        first, cls = mesh.translation_classes(ids)
        assert len(first) == 4
        rep_of = ids[first[cls]]
        seen = []
        for cb in systems.batches:
            assert all(len(a) == 4 for a in (cb.matrix, cb.stress_map, cb.disp_map))
            assert np.array_equal(cb.reps.elements[cb.rows], rep_of[cb.elements])
            seen += cb.elements.tolist()
        assert sorted(seen) == list(range(mesh.num_elements))
    assert held[0] == held[1]


def test_mixed_face_counts_batched_like_single_elements(monkeypatch, tmp_path):
    mesh = mixed_mesh(3)
    k = 2
    material = ComplianceTensor.plane_strain(3.0, 0.49)
    sol = MF.test1_solution()
    full = mixed_solve(monkeypatch, tmp_path, mesh.num_elements, mesh, k, sol, material)
    disc, systems, elements = full[:3]
    assert sorted(cb.face_ids.shape[1] for cb in systems.batches) == [3, 4]

    # every element's batched results are its class representative's
    # one-element-batch results, and close to its own
    f_fn = lambda pts: MF.body_force(sol, material, pts)
    assert_class_results(mesh, disc, k, elements, material, 3.0 / mesh.h, f_fn)

    # and nothing depends on the batch size
    single = mixed_solve(monkeypatch, tmp_path, 1, mesh, k, sol, material)
    for a, b in zip(elements, single[2]):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert_same_solve(full, single)


def test_element_classes_bounded_by_chunk_size(monkeypatch):
    # CHUNK_SIZE bounds the representatives run together as well as the
    # element batches: 2 classes per chunk splits the 4 triangle classes,
    # whose elements interleave
    monkeypatch.setattr(L, "CHUNK_SIZE", 2)
    mesh = mixed_mesh(3)
    disc = G.build_discretization(mesh, 1)
    rep_of = np.empty(mesh.num_elements, dtype=int)
    for _, ids in mesh.element_groups():
        first, cls = mesh.translation_classes(ids)
        rep_of[ids] = ids[first[cls]]
    seen = []
    for reps, targets in disc.element_classes():
        assert 1 <= len(reps.elements) <= 2
        for rows, elements in targets:
            assert len(elements) <= 2 and np.all(np.diff(elements) > 0)
            assert np.array_equal(reps.elements[rows], rep_of[elements])
            seen += elements.tolist()
    assert sorted(seen) == list(range(mesh.num_elements))


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

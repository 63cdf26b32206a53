import numpy as np
import pytest

from hdgelast import fespace as F
from hdgelast import hdg_global as G
from hdgelast import manufactured as MF
from hdgelast import mesh as M
from hdgelast import postproc as P
from hdgelast.material import ComplianceTensor

PLANE_STRESS = ComplianceTensor.plane_stress(1.0, 0.3)


def small_solve(family="tri", n=2, k=1, sol=None, material=PLANE_STRESS, tau_c=3.0):
    sol = sol if sol is not None else MF.test1_solution()
    mesh = M.build_mesh(family, n)
    tau = tau_c / mesh.h
    disc = G.build_discretization(mesh, k)
    systems = G.build_element_systems(
        disc, material, tau, lambda p: MF.body_force(sol, material, p)
    )
    bvals = G.boundary_trace_values(disc, lambda p: MF.boundary_data(sol, p), exactness=12)
    glob = G.assemble_global(disc, systems, bvals)
    trace, _ = G.solve_condensed(glob)
    dsol = G.recover_fields(disc, systems, trace)
    return mesh, tau, disc, dsol


def error_quadratures(disc, batches):
    """Each batch with its error quadrature."""
    qe = P.error_quadrature_exactness(disc.k)
    for batch in batches:
        yield batch, F.polygon_quadrature(disc.mesh.polygons(batch.elements), qe)


def test_projection_reproduces_discrete_stress():
    mesh, tau, disc, dsol = small_solve()
    batch, quad = next(error_quadratures(disc, dsol.batches))
    p_s = F.scalar_dim(1)
    sb = F.StressBasis(batch.basis, 1)
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=(len(batch.elements), sb.dim))
    sig = sb.eval_field(coeffs, quad.points)
    proj = P._stress_projection(batch.basis.eval(quad.points, p_s), quad.weights, sig)
    assert np.abs(proj - coeffs).max() < 1e-11


def test_projection_orthogonality_displacement():
    mesh, tau, disc, dsol = small_solve()
    batch, quad = next(error_quadratures(disc, dsol.batches))
    exact = MF.test1_solution()
    u_ex = exact.u(quad.points.reshape(-1, 2)).reshape(quad.points.shape)
    phi = batch.basis.eval(quad.points)
    coeffs = F.basis_moments(phi, quad.weights, u_ex)
    p_u = F.scalar_dim(2)
    residual = u_ex - phi @ coeffs.reshape(-1, 2, p_u).swapaxes(-1, -2)
    orth = phi.swapaxes(-1, -2) @ (quad.weights[..., None] * residual)
    assert np.abs(orth).max() < 1e-11


def test_displacement_projection_error_order():
    # best-approximation decay of the degree-(k+1) projection is k+2
    k = 1
    errs = []
    for n in (2, 4, 8, 16):
        mesh = M.build_unit_square_tri(n)
        disc = G.build_discretization(mesh, k)
        exact = MF.test1_solution()
        total = 0.0
        for batch, quad in error_quadratures(disc, disc.element_batches()):
            u_ex = exact.u(quad.points.reshape(-1, 2)).reshape(quad.points.shape)
            phi = batch.basis.eval(quad.points)
            coeffs = F.basis_moments(phi, quad.weights, u_ex)
            p_u = F.scalar_dim(k + 1)
            diff = u_ex - phi @ coeffs.reshape(-1, 2, p_u).swapaxes(-1, -2)
            total += float(np.sum(quad.weights * (diff**2).sum(axis=-1)))
        errs.append(np.sqrt(total))
    orders = P.rates(errs)
    assert orders[-1] == pytest.approx(k + 2, abs=0.2)


def test_error_zero_when_solution_is_projection():
    mesh, tau, disc, dsol = small_solve()
    exact = MF.test1_solution()
    p_s = F.scalar_dim(1)
    for batch, quad in error_quadratures(disc, dsol.batches):
        sig = MF.stress(exact, PLANE_STRESS, quad.points.reshape(-1, 2))
        sig = sig.reshape(quad.points.shape[:-1] + (2, 2))
        phi_s = batch.basis.eval(quad.points, p_s)
        dsol.stress_coeffs[batch.elements] = P._stress_projection(phi_s, quad.weights, sig)
    rep = P.error_norms(disc, dsol, exact, PLANE_STRESS, tau)
    assert rep.err_sigma_proj < 1e-13


def test_triangle_inequality():
    mesh, tau, disc, dsol = small_solve(n=4)
    exact = MF.test1_solution()
    rep = P.error_norms(disc, dsol, exact, PLANE_STRESS, tau)
    # projection distance of the stress
    dist_sq = 0.0
    p_s = F.scalar_dim(1)
    for batch, quad in error_quadratures(disc, dsol.batches):
        sig = MF.stress(exact, PLANE_STRESS, quad.points.reshape(-1, 2))
        sig = sig.reshape(quad.points.shape[:-1] + (2, 2))
        proj = P._stress_projection(batch.basis.eval(quad.points, p_s), quad.weights, sig)
        sb = F.StressBasis(batch.basis, 1)
        diff = sb.eval_field(proj, quad.points) - sig
        dist_sq += float(np.sum(quad.weights * (diff**2).sum(axis=(-2, -1))))
    assert rep.err_sigma <= np.sqrt(dist_sq) + rep.err_sigma_proj + 1e-12
    assert rep.err_u <= rep.err_u_proj + rep.err_u + 1e-12  # sanity: norms nonnegative
    assert min(rep.err_sigma_proj, rep.err_u_proj, rep.err_sigma, rep.err_u, rep.trace_diag) >= 0


def test_rates_basic():
    assert P.rates([1e-2, 2.5e-3]) == [None, pytest.approx(2.0)]
    assert P.rates([1.0, 1.0]) == [None, pytest.approx(0.0)]
    assert P.rates([1.0, 0.0]) == [None, None]


def test_table_requires_decreasing_h():
    t = P.ConvergenceTable()
    t.add_row({"h": 0.5, "k": 1, "mesh": "tri-n2", "err_sigma_proj": 1.0,
               "err_u_proj": 1.0, "err_sigma": 1.0, "err_u": 1.0, "trace_diag": 1.0})
    with pytest.raises(ValueError):
        t.add_row({"h": 0.5, "k": 1, "mesh": "tri-n2", "err_sigma_proj": 1.0,
                   "err_u_proj": 1.0, "err_sigma": 1.0, "err_u": 1.0, "trace_diag": 1.0})


def test_csv_golden_format(tmp_path):
    t = P.ConvergenceTable()
    vals = [(0.354, 9.81e-2, 3.74e-3, 1.1e-1, 4.0e-3, 2.0e-1),
            (0.177, 2.26e-2, 3.57e-4, 2.5e-2, 4.0e-4, 4.9e-2)]
    for h, es, eu, ts, tu, td in vals:
        t.add_row({"k": 1, "mesh": "tri-nX", "h": h, "err_sigma_proj": es,
                   "err_u_proj": eu, "err_sigma": ts, "err_u": tu, "trace_diag": td})
    path = tmp_path / "table.csv"
    P.write_csv(t, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "k,mesh,h,err_sigma_proj,order,err_u_proj,order,err_sigma,err_u,trace_diag,order"
    assert lines[1] == "1,tri-nX,0.3540,9.81E-02,-,3.74E-03,-,1.10E-01,4.00E-03,2.00E-01,-"
    assert lines[2] == "1,tri-nX,0.1770,2.26E-02,2.12,3.57E-04,3.39,2.50E-02,4.00E-04,4.90E-02,2.03"


def test_csv_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    P.write_csv(P.ConvergenceTable(), str(path))
    assert path.read_text() == (
        "k,mesh,h,err_sigma_proj,order,err_u_proj,order,err_sigma,err_u,trace_diag,order\n"
    )


def test_csv_unwritable_path():
    t = P.ConvergenceTable()
    with pytest.raises(OSError):
        P.write_csv(t, "/nonexistent-dir/table.csv")


def golden_solution():
    mesh = M.build_unit_square_tri(1)
    mat = PLANE_STRESS
    sol_exact = MF.polynomial_solution([[0.0], [1.0]], [[0.0]], name="stretch")
    disc = G.build_discretization(mesh, 1)
    systems = G.build_element_systems(disc, mat, tau=2.0)
    bvals = G.boundary_trace_values(
        disc, lambda p: MF.boundary_data(sol_exact, p), exactness=10
    )
    glob = G.assemble_global(disc, systems, bvals)
    trace, _ = G.solve_condensed(glob)
    return mesh, G.recover_fields(disc, systems, trace)


def test_vtk_deterministic_and_matches_golden(tmp_path):
    import pathlib

    mesh, dsol = golden_solution()
    p1, p2 = tmp_path / "a.vtk", tmp_path / "b.vtk"
    P.write_vtk(mesh, dsol, str(p1), title="golden")
    P.write_vtk(mesh, dsol, str(p2), title="golden")
    assert p1.read_bytes() == p2.read_bytes()

    golden = pathlib.Path(__file__).parent / "data" / "golden_tri1.vtk"
    got = p1.read_text().splitlines()
    want = golden.read_text().splitlines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        gt, wt = g.split(), w.split()
        assert len(gt) == len(wt)
        for a, b in zip(gt, wt):
            try:
                assert float(a) == pytest.approx(float(b), abs=1e-12)
            except ValueError:
                assert a == b


def test_vtk_polygon_fan(tmp_path):
    # quadrilaterals are split around their centroid: extra points, 4 cells each
    mesh, tau, disc, dsol = small_solve(family="poly", n=2, k=1)
    path = tmp_path / "poly.vtk"
    P.write_vtk(mesh, dsol, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "# vtk DataFile Version 2.0"
    npts = int(next(l for l in text if l.startswith("POINTS")).split()[1])
    ncells = int(next(l for l in text if l.startswith("CELLS")).split()[1])
    assert npts == mesh.num_vertices + mesh.num_elements  # one centroid per quad
    assert ncells == 4 * mesh.num_elements
    assert any(l.startswith("VECTORS displacement") for l in text)
    assert sum(1 for l in text if l.startswith("SCALARS stress_")) == 3

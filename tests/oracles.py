"""Reference implementations that only the tests use.

Each one states a definition directly (a polynomial field and its
derivatives, test1 factor by factor, a stress field on a basis, the
compliance and stiffness laws as maps on 2x2 matrices, a sparse LU of a
whole matrix, a VTK file written line by line), so that the tests can check
the program's faster, specialised forms of them.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from numpy.polynomial import polynomial as npoly

from hdgelast.fespace import StressBasis, scalar_dim
from hdgelast.manufactured import ExactSolution
from hdgelast.material import ComplianceTensor
from hdgelast.mesh import polygon_areas, polygon_centroids


def polynomial_solution(c1: np.ndarray, c2: np.ndarray, name: str = "poly") -> ExactSolution:
    """Displacement with polynomial components u_i = sum c_i[a, b] x^a y^b."""
    comps = [np.asarray(c1, dtype=float), np.asarray(c2, dtype=float)]
    gradc = [[npoly.polyder(c, axis=ax) for ax in (0, 1)] for c in comps]
    hessc = [
        [[npoly.polyder(gradc[i][a], axis=b) for b in (0, 1)] for a in (0, 1)]
        for i in range(2)
    ]

    def _val(c, pts):
        return npoly.polyval2d(pts[:, 0], pts[:, 1], c) if c.size else np.zeros(len(pts))

    def u(pts):
        pts = np.atleast_2d(pts)
        return np.stack([_val(comps[0], pts), _val(comps[1], pts)], axis=1)

    def grad(pts):
        pts = np.atleast_2d(pts)
        out = np.empty((len(pts), 2, 2))
        for i in range(2):
            for a in range(2):
                out[:, i, a] = _val(gradc[i][a], pts)
        return out

    def hess(pts):
        pts = np.atleast_2d(pts)
        out = np.empty((len(pts), 2, 2, 2))
        for i in range(2):
            for a in range(2):
                for b in range(2):
                    out[:, i, a, b] = _val(hessc[i][a][b], pts)
        return out

    return ExactSolution(name, u, grad, hess)


def closed_form_test1() -> ExactSolution:
    """test1 from its closed-form factors, each factor function evaluating
    its own sin(pi x), cos(pi x) and y-polynomial: u1 = p(x) q(y) with
    p = 10 sin(pi x)(1-x), q = y - 1.5 y^2 + 0.5 y^3."""

    def split(pts):
        pts = np.atleast_2d(pts)
        return pts[:, 0], pts[:, 1]

    def p(x):
        return 10.0 * np.sin(np.pi * x) * (1.0 - x)

    def dp(x):
        return 10.0 * (np.pi * np.cos(np.pi * x) * (1.0 - x) - np.sin(np.pi * x))

    def ddp(x):
        return 10.0 * (-np.pi**2 * np.sin(np.pi * x) * (1.0 - x) - 2.0 * np.pi * np.cos(np.pi * x))

    def q(y):
        return y - 1.5 * y**2 + 0.5 * y**3

    def dq(y):
        return 1.0 - 3.0 * y + 1.5 * y**2

    def ddq(y):
        return -3.0 + 3.0 * y

    def u(pts):
        x, y = split(pts)
        out = np.zeros((len(x), 2))
        out[:, 0] = p(x) * q(y)
        return out

    def grad(pts):
        x, y = split(pts)
        out = np.zeros((len(x), 2, 2))
        out[:, 0, 0] = dp(x) * q(y)
        out[:, 0, 1] = p(x) * dq(y)
        return out

    def hess(pts):
        x, y = split(pts)
        out = np.zeros((len(x), 2, 2, 2))
        out[:, 0, 0, 0] = ddp(x) * q(y)
        out[:, 0, 0, 1] = out[:, 0, 1, 0] = dp(x) * dq(y)
        out[:, 0, 1, 1] = p(x) * ddq(y)
        return out

    return ExactSolution("test1", u, grad, hess)


def stress_field(sb: StressBasis, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The stress field with coefficients (..., dim) in the basis ``sb`` at
    points (..., npts, 2) on its scalar basis' elements, (..., npts, 2, 2)."""
    phi = sb.scalar.eval(pts, sb.nscalar)
    comp = phi @ coeffs.reshape(coeffs.shape[:-1] + (3, sb.nscalar)).swapaxes(-1, -2)
    return np.einsum("...c,cij->...ij", comp, sb.DIRECTIONS)


def apply_compliance(material: ComplianceTensor, tau: np.ndarray) -> np.ndarray:
    """A tau = a tau + b tr(tau) I for one or a batch of symmetric 2x2
    matrices."""
    tau = np.asarray(tau, dtype=float)
    tr = tau[..., 0, 0] + tau[..., 1, 1]
    return material.a * tau + material.b * tr[..., None, None] * np.eye(2)


def apply_stiffness(material: ComplianceTensor, eps: np.ndarray) -> np.ndarray:
    """C eps = A^{-1} eps = a' eps + b' tr(eps) I for one or a batch of
    symmetric 2x2 matrices."""
    ap, bp = material.stiffness_coefficients()
    eps = np.asarray(eps, dtype=float)
    tr = eps[..., 0, 0] + eps[..., 1, 1]
    return ap * eps + bp * tr[..., None, None] * np.eye(2)


def strain(sol: ExactSolution, pts: np.ndarray) -> np.ndarray:
    """The symmetric gradient of the exact displacement, (n, 2, 2)."""
    g = sol.grad(np.atleast_2d(pts))
    return 0.5 * (g + np.swapaxes(g, 1, 2))


def symmetric_lu(A: scipy.sparse.csc_matrix):
    """Sparse LU of a whole CSC matrix in symmetric mode with zero pivot
    threshold: pivots on the diagonal in a minimum-degree order of A + A^T.
    The oracle of the nested-dissection solve."""
    return scipy.sparse.linalg.splu(
        A,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def write_vtk_by_line(mesh, sol, path: str, title: str = "hdgelast") -> None:
    """postproc.write_vtk's file, built one f-string per line: the same
    points, fan cells, averaged vertex displacements and element-mean
    stresses, each number formatted on its own."""
    k = sol.k
    p_s, p_u = scalar_dim(k), scalar_dim(k + 1)
    nv, ne = mesh.num_vertices, mesh.num_elements
    is_fan = mesh.face_counts > 3
    centroid_id = nv + np.cumsum(is_fan) - 1
    area = np.empty(ne)
    ns = len(mesh.element_vertices)
    slot_u, (fan_pts, fan_u) = np.empty((ns, 2)), np.empty((2, ne, 2))
    cells, keep = np.empty((ns, 3), dtype=int), np.ones(ns, dtype=bool)
    for cb in sol.batches:
        elems = cb.elements
        slots = mesh.slots(elems)
        polys = mesh.element_vertices[slots]
        corners = mesh.vertices[polys]
        area[elems] = polygon_areas(corners)
        w = sol.disp_coeffs[elems].reshape(len(elems), 2, p_u).swapaxes(-1, -2)
        basis = cb.basis()
        slot_u[slots] = basis.eval(corners) @ w
        if polys.shape[1] == 3:
            cells[slots[:, 0]] = polys
            keep[slots[:, 1:]] = False
        else:
            c = polygon_centroids(corners)
            fan_pts[elems] = c
            fan_u[elems] = (basis.eval(c[:, None, :]) @ w)[:, 0]
            cid = np.broadcast_to(centroid_id[elems, None], polys.shape)
            cells[slots] = np.stack([cid, polys, np.roll(polys, -1, axis=1)], axis=-1)
    u_sum = np.zeros((nv, 2))
    np.add.at(u_sum, mesh.element_vertices, slot_u)
    u_pts = u_sum / np.maximum(np.bincount(mesh.element_vertices, minlength=nv), 1)[:, None]
    all_pts = np.vstack([mesh.vertices, fan_pts[is_fan]])
    u_pts = np.vstack([u_pts, fan_u[is_fan]])
    cells = cells[keep]
    cell_elem = np.repeat(np.arange(ne), mesh.face_counts)[keep]
    mean_sigma = sol.stress_coeffs.reshape(-1, 3, p_s)[:, :, 0] / np.sqrt(area)[:, None]

    nc = len(cells)
    lines = ["# vtk DataFile Version 2.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID"]
    lines.append(f"POINTS {len(all_pts)} double")
    lines += [f"{x:.9E} {y:.9E} 0.0" for x, y in all_pts.tolist()]
    lines.append(f"CELLS {nc} {4 * nc}")
    lines += [f"3 {a} {b} {c}" for a, b, c in cells.tolist()]
    lines.append(f"CELL_TYPES {nc}")
    lines += ["5"] * nc
    lines.append(f"POINT_DATA {len(all_pts)}")
    lines.append("VECTORS displacement double")
    lines += [f"{x:.9E} {y:.9E} 0.0" for x, y in u_pts.tolist()]
    lines.append(f"CELL_DATA {nc}")
    for name, col in (("stress_xx", 0), ("stress_yy", 1), ("stress_xy", 2)):
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        lines += [f"{v:.9E}" for v in mean_sigma[cell_elem, col].tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

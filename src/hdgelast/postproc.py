"""Error measurement, convergence tables, and CSV/VTK export.

Errors are reported both against the exact fields and against their
elementwise L2 projections onto the discrete spaces; the projection errors
are the quantities tracked by the convergence studies. A trace mismatch
norm, sqrt(tau) times the face-projected displacement error minus the trace
error, is measured over all element boundaries; with tau = 1/h it converges
one order faster than the displacement gradient, which is the
superconvergence effect the solver relies on.

The errors of a solution are measured with the material and tau it was
solved with (DiscreteSolution), in hdg_local's error rule: a higher
exactness than assembly, so that measured rates are not polluted by
under-integration of the smooth exact solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .fespace import StressBasis, basis_moments, polygon_quadrature, scalar_dim
from .hdg_global import Discretization, DiscreteSolution, error_face_rule, running_sum
from .hdg_local import error_quadrature_exactness
from .manufactured import ExactSolution, stress
from .mesh import Mesh, polygon_areas, polygon_centroids

__all__ = [
    "ErrorReport",
    "ConvergenceTable",
    "error_norms",
    "rates",
    "write_csv",
    "write_vtk",
    "CSV_COLUMNS",
]


def _stress_projection(phi_s: np.ndarray, weights: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """Projection coefficients, direction-major, of (..., nq, 2, 2) values
    on degree-k basis values phi_s (..., nq, p_s)."""
    comp = np.stack([sig[..., 0, 0], sig[..., 1, 1], sig[..., 0, 1] + sig[..., 1, 0]], axis=-1)
    # pairing with direction c of a symmetric matrix: e12 direction picks up
    # both off-diagonal entries; dividing by the direction norm squared turns
    # moments into coefficients.
    mom = basis_moments(phi_s, weights, comp)
    shape = mom.shape
    return (mom.reshape(shape[:-1] + (3, -1)) / StressBasis.DIR_NORMSQ[:, None]).reshape(shape)


@dataclass
class ErrorReport:
    h: float
    k: int
    n_trace_dofs: int
    err_sigma_proj: float
    err_u_proj: float
    err_sigma: float
    err_u: float
    trace_diag: float

    def as_row(self, mesh_label: str = "") -> dict:
        return {
            "k": self.k,
            "mesh": mesh_label,
            "h": self.h,
            "err_sigma_proj": self.err_sigma_proj,
            "err_u_proj": self.err_u_proj,
            "err_sigma": self.err_sigma,
            "err_u": self.err_u,
            "trace_diag": self.trace_diag,
        }


def error_norms(disc: Discretization, sol: DiscreteSolution, exact: ExactSolution) -> ErrorReport:
    """All error norms of a recovered solution against an exact one, with
    the solve's material and tau, evaluated batch by batch and summed in
    element order."""
    mesh, k = disc.mesh, disc.k
    material, tau = sol.material, sol.tau
    p_s, p_u = scalar_dim(k), scalar_dim(k + 1)
    qe = error_quadrature_exactness(k)
    fq, modes = error_face_rule(disc)

    # squared errors by element (sigma_proj, u_proj, sigma, u), and the
    # trace term by slot
    parts = np.empty((4, mesh.num_elements))
    trace = np.empty(len(mesh.element_faces))
    for batch in sol.batches:
        elems = batch.elements
        B, m = batch.face_ids.shape
        quad = polygon_quadrature(mesh.polygons(elems), qe)
        pts, w = quad.points, quad.weights
        sig_ex = stress(exact, material, pts.reshape(-1, 2)).reshape(pts.shape[:-1] + (2, 2))
        u_ex = exact.u(pts.reshape(-1, 2)).reshape(pts.shape)
        s_h = sol.stress_coeffs[elems]
        w_h = sol.disp_coeffs[elems]

        mono = batch.basis.monomials(pts)
        phi = batch.basis.eval(mono)  # (B, nq, p_u)
        s_pi = _stress_projection(batch.basis.eval(mono, p_s), w, sig_ex)
        w_pi = basis_moments(phi, w, u_ex)
        ds = (s_pi - s_h).reshape(B, 3, p_s)
        parts[0, elems] = np.sum((ds**2 * StressBasis.DIR_NORMSQ[:, None]).reshape(B, -1), axis=-1)
        parts[1, elems] = np.sum((w_pi - w_h) ** 2, axis=-1)

        du = phi @ w_h.reshape(B, 2, p_u).swapaxes(-1, -2) - u_ex
        parts[3, elems] = np.sum(w * (du**2).sum(axis=-1), axis=-1)
        comp = phi[..., :p_s] @ s_h.reshape(B, 3, p_s).swapaxes(-1, -2)  # (B, nq, 3)
        sig_h = np.empty(comp.shape[:-1] + (2, 2))
        sig_h[..., 0, 0] = comp[..., 0]
        sig_h[..., 1, 1] = comp[..., 1]
        sig_h[..., 0, 1] = sig_h[..., 1, 0] = comp[..., 2]
        dsig = sig_h - sig_ex
        parts[2, elems] = np.sum(w * (dsig**2).sum(axis=(-2, -1)), axis=-1)

        # trace mismatch sqrt(tau) * (face-projected displacement error
        # minus trace error) over the element boundary, face by face
        fpts = fq.points[batch.face_ids]  # (B, m, nq, 2)
        u_face = exact.u(fpts.reshape(-1, 2)).reshape(fpts.shape)
        dw = (w_pi - w_h).reshape(B, 2, p_u).swapaxes(-1, -2)
        slots = mesh.slots(elems)
        for j in range(m):
            fid = batch.face_ids[:, j]
            fw, md = fq.weights[fid][..., None], modes[fid]
            du_face = batch.basis.eval(fpts[:, j]) @ dw  # (B, nq, 2)
            pm_du = md.swapaxes(-1, -2) @ (fw * du_face)  # (B, k+1, 2)
            pm_u = md.swapaxes(-1, -2) @ (fw * u_face[:, j])
            uhat = sol.trace[disc.face_dofs(fid)].reshape(B, -1, 2)
            mismatch = pm_du - (pm_u - uhat)
            trace[slots[:, j]] = tau * np.sum(mismatch.reshape(B, -1) ** 2, axis=-1)

    sigma_proj, u_proj, sigma, u = (running_sum(p) for p in parts)
    return ErrorReport(
        h=mesh.h,
        k=k,
        n_trace_dofs=disc.dofmap.n_interior,
        err_sigma_proj=float(np.sqrt(sigma_proj)),
        err_u_proj=float(np.sqrt(u_proj)),
        err_sigma=float(np.sqrt(sigma)),
        err_u=float(np.sqrt(u)),
        trace_diag=float(np.sqrt(running_sum(trace))),
    )


def rates(errors: list[float]) -> list[float | None]:
    """Observed orders between successive rows of a halving sequence:
    entry i is log2(e[i-1] / e[i]), None for the first row or when either
    error is not positive."""
    out: list[float | None] = [None]
    for prev, cur in zip(errors, errors[1:]):
        if prev > 0 and cur > 0:
            out.append(float(np.log2(prev / cur)))
        else:
            out.append(None)
    return out


CSV_COLUMNS = [
    "k",
    "mesh",
    "h",
    "err_sigma_proj",
    "order",
    "err_u_proj",
    "order",
    "err_sigma",
    "err_u",
    "trace_diag",
    "order",
]

_RATE_SOURCES = {4: "err_sigma_proj", 6: "err_u_proj", 10: "trace_diag"}


@dataclass
class ConvergenceTable:
    """Rows of a refinement study (h halving downwards) plus derived orders."""

    rows: list[dict] = field(default_factory=list)

    def add_row(self, row: dict) -> None:
        if self.rows and not row["h"] < self.rows[-1]["h"]:
            raise ValueError("rows must be added with strictly decreasing h")
        self.rows.append(row)

    def column(self, key: str) -> list:
        return [row[key] for row in self.rows]

    def orders(self, key: str) -> list[float | None]:
        return rates(self.column(key))

    def final_order(self, key: str) -> float | None:
        return self.orders(key)[-1] if len(self.rows) >= 2 else None


def _fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.2E}"


def write_csv(table: ConvergenceTable, dest: str | TextIO) -> None:
    """Write the study in the fixed column layout (errors in scientific
    notation, orders with two decimals, '-' where undefined) to a file path
    or a text stream."""
    if isinstance(dest, str):
        with open(dest, "w") as fh:
            write_csv(table, fh)
        return
    order_cols = {idx: table.orders(src) for idx, src in _RATE_SOURCES.items()}
    dest.write(",".join(CSV_COLUMNS) + "\n")
    for i, row in enumerate(table.rows):
        cells = []
        for idx, name in enumerate(CSV_COLUMNS):
            if name == "order":
                val = order_cols[idx][i]
                cells.append("-" if val is None else f"{val:.2f}")
            elif name == "h":
                cells.append(f"{row['h']:.4f}")
            elif name in ("k",):
                cells.append(str(row["k"]))
            elif name == "mesh":
                cells.append(str(row["mesh"]))
            else:
                cells.append(_fmt(row[name]))
        dest.write(",".join(cells) + "\n")


def write_vtk(mesh: Mesh, sol: DiscreteSolution, path: str, title: str = "hdgelast") -> None:
    """Legacy ASCII unstructured-grid export.

    Elements are fan-triangulated (polygons gain their centroid as an extra
    point). The displacement is point-sampled, averaging over the elements
    sharing a vertex; stress components are exported as cell data holding
    the element mean."""
    k = sol.k
    p_s, p_u = scalar_dim(k), scalar_dim(k + 1)
    nv, ne = mesh.num_vertices, mesh.num_elements
    # point id of each polygon's centroid, appended in element order
    is_fan = mesh.face_counts > 3
    centroid_id = nv + np.cumsum(is_fan) - 1
    area = np.empty(ne)
    # displacement at each slot's vertex; centroid and its displacement by
    # element; a cell per slot: a triangle in its first slot as itself, any
    # other polygon as the fans (centroid, vertex i, vertex i+1)
    ns = len(mesh.element_vertices)
    slot_u, (fan_pts, fan_u) = np.empty((ns, 2)), np.empty((2, ne, 2))
    cells, keep = np.empty((ns, 3), dtype=int), np.ones(ns, dtype=bool)
    for batch in sol.batches:
        elems = batch.elements
        slots = mesh.slots(elems)
        polys = mesh.element_vertices[slots]  # (B, m)
        m = polys.shape[1]
        corners = mesh.vertices[polys]
        area[elems] = polygon_areas(corners)
        w = sol.disp_coeffs[elems].reshape(len(elems), 2, p_u).swapaxes(-1, -2)
        slot_u[slots] = batch.basis.eval(corners) @ w
        if m == 3:
            cells[slots[:, 0]] = polys
            keep[slots[:, 1:]] = False
        else:
            c = polygon_centroids(corners)
            fan_pts[elems] = c
            fan_u[elems] = (batch.basis.eval(c[:, None, :]) @ w)[:, 0]
            cid = np.broadcast_to(centroid_id[elems, None], polys.shape)
            cells[slots] = np.stack([cid, polys, np.roll(polys, -1, axis=1)], axis=-1)
    u_sum = np.zeros((nv, 2))
    np.add.at(u_sum, mesh.element_vertices, slot_u)
    u_pts = u_sum / np.maximum(np.bincount(mesh.element_vertices, minlength=nv), 1)[:, None]
    all_pts = np.vstack([mesh.vertices, fan_pts[is_fan]])
    u_pts = np.vstack([u_pts, fan_u[is_fan]])
    cells = cells[keep]
    cell_elem = np.repeat(np.arange(ne), mesh.face_counts)[keep]

    s = sol.stress_coeffs.reshape(-1, 3, p_s)
    mean_sigma = s[:, :, 0] / np.sqrt(area)[:, None]  # constant mode is 1/sqrt(area)

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

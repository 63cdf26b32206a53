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

The norms share the translation classes of the element stage: the
solution's batches (DiscreteSolution.batches) carry each chunk's class
representatives, and the class row and shift of every element. The
error-rule quadrature and the face moments of the basis are tabulated once
per class, on its representative, and every element of the class takes
them with its points shifted. The basis values at the element points are
evaluated per element, in the basis CondensedBatch.basis forms (see
error_norms); so are the point values of write_vtk. The exact displacement
and its face-mode projection are evaluated once per face, in the error
face rule that the Discretization builds once (Discretization.error_rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .fespace import StressBasis, basis_moments, polygon_quadrature, scalar_dim, trace_moments
from .hdg_global import Discretization, DiscreteSolution, running_sum
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
    element order.

    The error rule and the face moments of the basis are tabulated once per
    translation class, on its representative. Every element of the class
    takes them, with the points shifted by its shift from the
    representative (CondensedBatch.shift). The basis values at the element
    points are evaluated per element at the shifted points, in its basis
    (CondensedBatch.basis): the stress projection error is a difference of
    two terms of the size of the stress, and the representative's values,
    which differ from an element's own by the rounding of the shifted
    coordinates, moved it by up to 1.2e-12 relative. The exact displacement
    and its face-mode projection are evaluated once per face."""
    mesh, k = disc.mesh, disc.k
    material, tau = sol.material, sol.tau
    p_s, p_u = scalar_dim(k), scalar_dim(k + 1)
    qe = error_quadrature_exactness(k)
    fq, modes = disc.error_rule
    # face-mode projection of the exact displacement minus the trace, by face
    u_face = exact.u(fq.points.reshape(-1, 2)).reshape(fq.points.shape)
    face_err = trace_moments(modes, fq.weights, u_face) - sol.trace.reshape(mesh.num_faces, -1)

    # squared errors by element (sigma_proj, u_proj, sigma, u), and the
    # trace term by slot
    parts = np.empty((4, mesh.num_elements))
    trace = np.empty(len(mesh.element_faces))
    reps = None
    for cb in sol.batches:
        if cb.reps is not reps:
            # the first batch of a chunk of classes: tabulate on its
            # representatives
            reps = cb.reps
            R, m = reps.face_ids.shape
            quad = polygon_quadrature(mesh.polygons(reps.elements), qe)
            # moments of the basis on each face against its face modes,
            # (R, m, k+1, p_u)
            fid = reps.face_ids
            phi_face = reps.basis.eval(fq.points[fid].reshape(R, -1, 2)).reshape(R, m, -1, p_u)
            face_proj = modes[fid].swapaxes(-1, -2) @ (fq.weights[fid][..., None] * phi_face)
        rows, elems = cb.rows, cb.elements
        B = len(elems)
        pts = quad.points[rows] + cb.shift[:, None]
        w, phi = quad.weights[rows], cb.basis().eval(pts)  # (B, nq, p_u)
        sig_ex = stress(exact, material, pts.reshape(-1, 2)).reshape(pts.shape[:-1] + (2, 2))
        u_ex = exact.u(pts.reshape(-1, 2)).reshape(pts.shape)
        s_h = sol.stress_coeffs[elems]
        w_h = sol.disp_coeffs[elems]

        s_pi = _stress_projection(phi[..., :p_s], w, sig_ex)
        w_pi = basis_moments(phi, w, u_ex)
        ds = (s_pi - s_h).reshape(B, 3, p_s)
        parts[0, elems] = np.sum((ds**2 * StressBasis.DIR_NORMSQ[:, None]).reshape(B, -1), axis=-1)
        parts[1, elems] = np.sum((w_pi - w_h) ** 2, axis=-1)

        du = phi @ w_h.reshape(B, 2, p_u).swapaxes(-1, -2) - u_ex
        parts[3, elems] = np.sum(w * (du[..., 0] ** 2 + du[..., 1] ** 2), axis=-1)
        # squared Frobenius norm of sigma_h - sigma, entries in the
        # order 11, 12, 21, 22
        comp = phi[..., :p_s] @ s_h.reshape(B, 3, p_s).swapaxes(-1, -2)  # (B, nq, 3)
        d11, d22 = comp[..., 0] - sig_ex[..., 0, 0], comp[..., 1] - sig_ex[..., 1, 1]
        d12sq = (comp[..., 2] - sig_ex[..., 0, 1]) ** 2
        parts[2, elems] = np.sum(w * (((d11**2 + d12sq) + d12sq) + d22**2), axis=-1)

        # trace mismatch sqrt(tau) * (face-projected displacement error
        # minus trace error) over the element boundary, face by face
        dw = (w_pi - w_h).reshape(B, 2, p_u).swapaxes(-1, -2)
        pm_du = (face_proj[rows] @ dw[:, None]).reshape(B, m, -1)
        mismatch = pm_du - face_err[cb.face_ids]
        trace[mesh.slots(elems)] = tau * np.sum(mismatch**2, axis=-1)

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
    the element mean.

    Each section is formatted in one pass, one ``%`` over its flattened
    values with ``%.9E`` for floats (the conversion of ``f"{x:.9E}"``), and
    the file is written once from the joined sections."""
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
    for cb in sol.batches:
        elems = cb.elements
        slots = mesh.slots(elems)
        polys = mesh.element_vertices[slots]  # (B, m)
        m = polys.shape[1]
        corners = mesh.vertices[polys]
        area[elems] = polygon_areas(corners)
        w = sol.disp_coeffs[elems].reshape(len(elems), 2, p_u).swapaxes(-1, -2)
        basis = cb.basis()
        slot_u[slots] = basis.eval(corners) @ w
        if m == 3:
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

    s = sol.stress_coeffs.reshape(-1, 3, p_s)
    mean_sigma = s[:, :, 0] / np.sqrt(area)[:, None]  # constant mode is 1/sqrt(area)

    npt, nc = len(all_pts), len(cells)
    vector = "%.9E %.9E 0.0\n"
    sections = [
        f"# vtk DataFile Version 2.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\nPOINTS {npt} double\n",
        (vector * npt) % tuple(all_pts.ravel().tolist()),
        f"CELLS {nc} {4 * nc}\n",
        ("3 %d %d %d\n" * nc) % tuple(cells.ravel().tolist()),
        f"CELL_TYPES {nc}\n" + "5\n" * nc,
        f"POINT_DATA {npt}\nVECTORS displacement double\n",
        (vector * npt) % tuple(u_pts.ravel().tolist()),
        f"CELL_DATA {nc}\n",
    ]
    for name, col in (("stress_xx", 0), ("stress_yy", 1), ("stress_xy", 2)):
        sections += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n",
                     ("%.9E\n" * nc) % tuple(mean_sigma[cell_elem, col].tolist())]
    with open(path, "w") as fh:
        fh.write("".join(sections))

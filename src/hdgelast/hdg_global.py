"""Global trace system: assembly, boundary lifting, solve, and recovery.

Only the displacement trace unknowns on interior faces are globally
coupled. Boundary faces carry prescribed trace coefficients (the face
projection of the boundary displacement); their coupling is moved to the
right-hand side during assembly, which keeps the solved matrix symmetric
positive definite. After the solve, stress and displacement are recovered
from the local solution operators.

Each solve parameter is given once. build_element_systems takes the
material and tau; recover_fields copies them onto the DiscreteSolution, and
the traction jump, the scheme residuals and the error norms read them from
there. The traction is the paper's numerical trace of the stress,
sigma n - tau (P_M u - u_hat), with the displacement trace projected onto
the degree-k face modes (see _face_flux_values). The quadrature rules are
hdg_local's two policies: the assembly rule for the element stage, and the
error rule (error_face_rule) for boundary data, the traction jump and the
error norms.

The trace system is solved by a sparse symmetric factorization or by
conjugate gradients with a two-level additive Schwarz preconditioner: exact
solves on the vertex patches (the interior faces around each mesh vertex)
plus a coarse correction in the traces of continuous P1 fields, after
Cockburn, Dubois, Gopalakrishnan & Tan (multigrid for HDG) and Schoberl
(vertex-patch smoothers robust as nu -> 1/2). Its iteration counts stay
nearly flat under refinement; see solve_condensed.

Stacked layout: the element stage runs on batches of elements that share a
face count, at most ``hdg_local.CHUNK_SIZE`` elements each, and assembly,
recovery, the traction jump and the scheme residuals work on the same
batches, with each batch's global trace dofs gathered as one index array.
Each batch writes its per-element results into arrays indexed by element,
by slot (one (element, edge) pair of the mesh layout, element-major) or by
face and side, so the layout, not the batching, fixes the order of every
sum: sums over elements or slots run in index order, and a face adds its
left element's terms before its right's, the left one having the lower
index. The trace matrix and the right-hand side are both assembled face by
face (see assemble_global). So repeated runs with the same configuration
produce bit-identical results whatever the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import hdg_local
from .errors import SolverError
from .fespace import (
    FaceQuadrature,
    TraceDofMap,
    build_trace_dof_map,
    face_modes,
    face_quadratures,
    scalar_dim,
    trace_moments,
)
from .hdg_local import (
    AssemblyError,
    CondensedBatch,
    ElementBatch,
    batch_blocks,
    batch_moments,
    condense_batch,
    element_batch,
)
from .material import ComplianceTensor
from .mesh import Mesh

__all__ = [
    "ElementSystems",
    "CondensedSystem",
    "SolverStats",
    "DiscreteSolution",
    "SolverError",
    "Discretization",
    "build_discretization",
    "build_element_systems",
    "assemble_global",
    "boundary_trace_values",
    "solve_condensed",
    "recover_fields",
    "error_face_rule",
    "flux_jump_norm",
    "scheme_residuals",
]


# size above which the "auto" solver policy switches from the direct
# factorization to preconditioned conjugate gradients. Measured on tri k=1
# test2 (one BLAS thread): at n=32 (12,032 dofs) direct 0.06 s, CG 0.10 s;
# at n=128 (195,584 dofs), nu=0.49, direct 3.5 s and +686 MB, CG 2.5 s, 82
# iterations and no extra memory; but at nu=0.49999 the P1 coarse space
# locks on triangles and CG needs 881 iterations, 20 s. The direct cost does
# not depend on nu, so it is kept up to just above n=128.
DIRECT_SOLVER_DOF_LIMIT = 200_000


@dataclass
class Discretization:
    """Mesh-level discretization data shared by all elements: the trace dof
    map, and the assembly quadrature and face-mode values of every face,
    stacked by face."""

    mesh: Mesh
    k: int
    dofmap: TraceDofMap
    face_quad: FaceQuadrature  # points (nfaces, nq, 2), weights (nfaces, nq)
    face_modes: np.ndarray  # (nfaces, nq, k+1)

    def face_dofs(self, face_id) -> np.ndarray:
        """Trace dofs of a face, or (..., ndof_face) for an array of faces."""
        nd = self.dofmap.ndof_face
        return np.asarray(face_id)[..., None] * nd + np.arange(nd)

    def element_dofs(self, face_ids: np.ndarray) -> np.ndarray:
        """Trace dofs of elements with faces ``face_ids`` (B, m): (B, m * ndof_face)."""
        return self.face_dofs(face_ids).reshape(len(face_ids), -1)

    def element_batches(self):
        """ElementBatch per face count, in chunks of at most CHUNK_SIZE
        elements, ascending element order within each."""
        for _, ids in self.mesh.element_groups():
            for start in range(0, len(ids), hdg_local.CHUNK_SIZE):
                yield element_batch(
                    self.mesh,
                    self.k,
                    ids[start : start + hdg_local.CHUNK_SIZE],
                    self.face_quad,
                    self.face_modes,
                )


def _face_rule(mesh: Mesh, k: int, exactness: int) -> tuple[FaceQuadrature, np.ndarray]:
    fq = face_quadratures(mesh, np.arange(mesh.num_faces), exactness)
    return fq, face_modes(fq.params, k, mesh.face_length)


def build_discretization(mesh: Mesh, k: int) -> Discretization:
    fq, modes = _face_rule(mesh, k, hdg_local.default_quadrature_exactness(k))
    return Discretization(mesh, k, build_trace_dof_map(mesh, k), fq, modes)


def error_face_rule(disc: Discretization) -> tuple[FaceQuadrature, np.ndarray]:
    """Quadrature and face-mode values on every face in the rule of
    hdg_local.error_quadrature_exactness, for boundary data, error norms and
    the traction jump."""
    return _face_rule(disc.mesh, disc.k, hdg_local.error_quadrature_exactness(disc.k))


@dataclass
class ElementSystems:
    """Condensed element systems of a mesh, one CondensedBatch per element
    batch, with the parameters they were built with."""

    batches: list[CondensedBatch]
    material: ComplianceTensor
    tau: float


def build_element_systems(
    disc: Discretization,
    material: ComplianceTensor,
    tau: float,
    f_fn=None,
) -> ElementSystems:
    """Build, eliminate and condense every element, batch by batch."""
    batches = [condense_batch(batch, material, tau, f_fn) for batch in disc.element_batches()]
    return ElementSystems(batches, material, tau)


def running_sum(values: np.ndarray) -> float:
    """Sum of the values added one at a time, in order."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


@dataclass
class CondensedSystem:
    """Reduced SPD system over interior trace dofs plus boundary data."""

    matrix: scipy.sparse.csr_matrix
    rhs: np.ndarray
    boundary_values: np.ndarray  # full trace vector, nonzero on boundary dofs
    # the mesh-level data the system was assembled from; cg builds its
    # preconditioner from it
    disc: Discretization = field(repr=False)

    @property
    def dofmap(self) -> TraceDofMap:
        return self.disc.dofmap


def boundary_trace_values(disc: Discretization, g_fn) -> np.ndarray:
    """Full trace vector holding the face projection of the boundary data,
    in the error rule (see error_face_rule)."""
    values = np.zeros(disc.dofmap.total)
    fids = disc.mesh.boundary_faces()
    if g_fn is None or not len(fids):
        return values
    fq, modes = error_face_rule(disc)
    pts = fq.points[fids]
    vals = np.asarray(g_fn(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape)
    values[disc.face_dofs(fids)] = trace_moments(modes[fids], fq.weights[fids], vals)
    return values


def _interior_rank(dofmap: TraceDofMap) -> np.ndarray:
    """Rank of each face among the interior faces, -1 on the boundary."""
    return dofmap.interior_index[:: dofmap.ndof_face] // dofmap.ndof_face


def assemble_global(
    disc: Discretization,
    systems: ElementSystems,
    boundary_values: np.ndarray | None = None,
) -> CondensedSystem:
    """Assemble the interior trace system face block by face block, lifting
    prescribed boundary coefficients to the right-hand side.

    A face block couples two interior faces that share an element. It sums
    the element blocks of at most two elements, and a two-term sum does not
    depend on the order, so the matrix does not depend on the batching and
    is exactly symmetric, as every element matrix is. An interior dof of
    the right-hand side sums, per face, the load and the lifted boundary
    coupling of the left element, then those of the right one."""
    dofmap = disc.dofmap
    if boundary_values is None:
        boundary_values = np.zeros(dofmap.total)
    n, nd = dofmap.n_interior, dofmap.ndof_face
    nf = n // nd
    # each element's pairs of interior faces (ranks r, c), keyed r * nf + c
    rank = _interior_rank(dofmap)
    ranks = [rank[cb.batch.face_ids] for cb in systems.batches]
    pair_masks = [(r[:, :, None] >= 0) & (r[:, None, :] >= 0) for r in ranks]
    keys = np.concatenate([(r[:, :, None] * nf + r[:, None, :])[pair]
                           for r, pair in zip(ranks, pair_masks)])
    pairs, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    if counts.max(initial=0) > 2:
        r, c = np.divmod(pairs[np.argmax(counts)], nf)
        f, g = disc.mesh.interior_faces()[[r, c]]
        raise AssemblyError(f"faces {f} and {g}: more than two element blocks to sum")
    is_first = np.zeros(len(keys), dtype=bool)
    is_first[first] = True
    blocks = np.empty((len(pairs), nd, nd))
    # rhs terms by face and side (0: left element, 1: right): the element's
    # load on the face, then its lifted boundary coupling as 0 - lift, which
    # is never -0.0, so no rhs entry is -0.0, as in a sum started from zero
    terms = np.zeros((disc.mesh.num_faces, 2, 2, nd))
    done = 0
    for cb, pair in zip(systems.batches, pair_masks):
        B, m = pair.shape[:2]
        blk, new = inverse[done : done + pair.sum()], is_first[done : done + pair.sum()]
        done += len(blk)
        vals = cb.matrix.reshape(B, m, nd, m, nd).swapaxes(2, 3)[pair]
        # the first element block of a face block is copied, the second added
        blocks[blk[new]] = vals[new]
        blocks[blk[~new]] += vals[~new]
        fids = cb.batch.face_ids
        side = (disc.mesh.face_left[fids] != cb.batch.elements[:, None]).astype(int)
        terms[fids, side, 0] = cb.rhs.reshape(B, m, nd)
        gdofs = disc.element_dofs(fids)
        inside = dofmap.interior_index[gdofs] >= 0
        n_bdry = (~inside).sum(axis=1)
        for count in np.unique(n_bdry[n_bdry > 0]):
            sel = np.flatnonzero(n_bdry == count)
            ii = np.nonzero(inside[sel])[1].reshape(len(sel), -1)
            bb = np.nonzero(~inside[sel])[1].reshape(len(sel), -1)
            sub = cb.matrix[sel[:, None, None], ii[:, :, None], bb[:, None, :]]
            g = boundary_values[np.take_along_axis(gdofs[sel], bb, axis=1)]
            lift = (sub @ g[..., None])[..., 0]
            j = ii // nd
            terms[fids[sel[:, None], j], side[sel[:, None], j], 1, ii % nd] = 0.0 - lift
    # each interior dof sums its left element's terms, then its right's: the
    # element order
    t = terms[disc.mesh.face_right >= 0]
    rhs = (((t[:, 0, 0] + t[:, 0, 1]) + t[:, 1, 0]) + t[:, 1, 1]).ravel()
    bptr = np.searchsorted(pairs, np.arange(nf + 1) * nf)
    matrix = scipy.sparse.bsr_matrix((blocks, pairs % nf, bptr), shape=(n, n)).tocsr()
    return CondensedSystem(matrix, rhs, boundary_values, disc)


@dataclass
class SolverStats:
    method: str
    n: int
    nnz: int
    iterations: int = 0
    min_pivot: float = np.nan
    residual: float = np.nan


def _symmetric_lu(A: scipy.sparse.csc_matrix):
    """Sparse LU of a CSC matrix in symmetric mode with zero pivot
    threshold: pivots on the diagonal in a minimum-degree order of A + A^T."""
    return scipy.sparse.linalg.splu(
        A,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _patch_blocks(system: CondensedSystem) -> list[tuple[np.ndarray, np.ndarray]]:
    """Condensed dofs (patches, d) of the vertex patches (the interior faces
    touching a mesh vertex), and the dense blocks (patches, d, d) of the
    matrix on them, one pair per patch size.

    The blocks are looked up among the face blocks of the matrix (see
    assemble_global): row a of face block j of face row r is the chunk of
    ndof_face entries j + a * (blocks in row r) after the row's first."""
    A, nd = system.matrix, system.dofmap.ndof_face
    nf = A.shape[0] // nd
    chunks = np.diff(A.indptr) // nd
    row = np.repeat(np.arange(A.shape[0]), chunks)
    # the first chunk of each face block and its key r * nf + c, ascending
    lead = np.flatnonzero(row % nd == 0)
    keys = row[lead] // nd * nf + A.indices[lead * nd] // nd
    fids = system.disc.mesh.interior_faces()
    verts = system.disc.mesh.face_vertices[fids].T.ravel()
    order = np.argsort(verts, kind="stable")
    faces = _interior_rank(system.dofmap)[np.tile(fids, 2)[order]]
    _, start, sizes = np.unique(verts[order], return_index=True, return_counts=True)
    out = []
    for size in np.unique(sizes):
        patch = faces[start[sizes == size, None] + np.arange(size)]
        want = patch[:, :, None] * nf + patch[:, None, :]
        blk = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        stride = chunks[patch * nd][:, :, None, None] * np.arange(nd)[:, None]
        blocks = A.data.reshape(-1, nd)[lead[blk][:, :, None, :] + stride]
        blocks.swapaxes(2, 3)[keys[blk] != want] = 0.0
        dofs = (patch[..., None] * nd + np.arange(nd)).reshape(len(patch), -1)
        out.append((dofs, blocks.reshape(dofs.shape + dofs.shape[1:])))
    return out


def _coarse_prolongation(disc: Discretization) -> scipy.sparse.csr_matrix:
    """Face traces of the continuous P1 vector fields that vanish on the
    boundary, one column per component and interior vertex. A P1 field is
    linear on each face, so its moments against the face modes are exact."""
    mesh, dofmap = disc.mesh, disc.dofmap
    on_boundary = np.zeros(mesh.num_vertices, dtype=bool)
    on_boundary[mesh.face_vertices[mesh.boundary_faces()]] = True
    coarse_index = np.cumsum(~on_boundary) - 1
    # moments of the hat functions of the face ends, 1 - t at v0 and t at
    # v1: (faces, 2, k+1)
    t = disc.face_quad.params
    moments = (np.stack([1.0 - t, t]) * disc.face_quad.weights[:, None, :]) @ disc.face_modes
    fids = mesh.interior_faces()
    ends = mesh.face_vertices[fids]
    rows, cols, vals = [], [], []
    for end in range(2):
        keep = ~on_boundary[ends[:, end]]
        f, v = fids[keep], ends[keep, end]
        dofs = dofmap.interior_index[disc.face_dofs(f)].reshape(len(f), disc.k + 1, 2)
        for comp in range(2):
            rows.append(dofs[..., comp].ravel())
            cols.append(np.repeat(2 * coarse_index[v] + comp, disc.k + 1))
            vals.append(moments[f, end].ravel())
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    shape = (dofmap.n_interior, 2 * int(np.sum(~on_boundary)))
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def _schwarz_preconditioner(system: CondensedSystem) -> scipy.sparse.linalg.LinearOperator:
    """Two-level additive Schwarz preconditioner

        M^-1 r = sum_v R_v^T A_v^-1 R_v r + P (P^T A P)^-1 P^T r

    with R_v the dofs of vertex patch v, A_v the dense block of A on them,
    and P the trace of continuous P1 fields (see _coarse_prolongation).
    The patch inverses are applied matrix-free, one stacked product per
    patch size; assembling them into one sparse matrix costs more memory."""
    A, n = system.matrix, system.matrix.shape[0]
    patches = [(idx, np.linalg.inv(block)) for idx, block in _patch_blocks(system)]
    P = _coarse_prolongation(system.disc)
    PT = P.T.tocsr()
    coarse = _symmetric_lu((PT @ A @ P).tocsc()) if P.shape[1] else None

    def apply(r):
        z = np.zeros(n)
        for idx, inv in patches:
            local = inv @ r[idx][..., None]
            z += np.bincount(idx.ravel(), weights=local.ravel(), minlength=n)
        if coarse is not None:
            z += P @ coarse.solve(PT @ r)
        return z

    return scipy.sparse.linalg.LinearOperator((n, n), matvec=apply, dtype=float)


def solve_condensed(
    system: CondensedSystem, method: str = "auto", tol: float = 1e-12
) -> tuple[np.ndarray, SolverStats]:
    """Solve for the interior trace coefficients.

    ``cholesky``: sparse symmetric factorization with zero pivot threshold;
    all elimination pivots must come out positive, anything else means the
    matrix is not SPD and is reported as a hard error. ``cg``: conjugate
    gradients with the two-level vertex-patch Schwarz preconditioner of
    _schwarz_preconditioner, built from ``system.disc``. ``auto`` picks the
    factorization up to DIRECT_SOLVER_DOF_LIMIT unknowns, cg above.

    Returns the full trace vector (boundary values filled in) and stats."""
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    A, b = system.matrix, system.rhs
    n = A.shape[0]
    if method == "auto":
        method = "cholesky" if n <= DIRECT_SOLVER_DOF_LIMIT else "cg"
    stats = SolverStats(method=method, n=n, nnz=A.nnz)
    if n == 0:
        full = system.boundary_values.copy()
        return full, stats

    if method == "cholesky":
        try:
            # A is exactly symmetric, so its CSR arrays are its CSC arrays
            lu = _symmetric_lu(A.T)
        except RuntimeError as exc:
            raise SolverError(f"symmetric factorization failed: {exc}") from exc
        pivots = lu.U.diagonal()
        stats.min_pivot = float(pivots.min())
        if stats.min_pivot <= 0.0 or not np.all(np.isfinite(pivots)):
            raise SolverError(
                f"matrix is not positive definite (min pivot {stats.min_pivot:.3e})"
            )
        x = lu.solve(b)
    elif method == "cg":
        M = _schwarz_preconditioner(system)
        count = {"it": 0}

        def cb(_xk):
            count["it"] += 1

        x, info = scipy.sparse.linalg.cg(A, b, rtol=tol, atol=0.0, M=M, callback=cb)
        stats.iterations = count["it"]
        if info > 0:
            raise SolverError(f"cg did not converge in {info} iterations")
        if info < 0:
            raise SolverError("cg failed (illegal input or breakdown)")
    else:
        raise ValueError(f"unknown solver {method!r} (expected 'cholesky' or 'cg')")

    bnorm = np.linalg.norm(b)
    stats.residual = float(np.linalg.norm(A @ x - b) / bnorm) if bnorm > 0 else 0.0
    full = system.boundary_values.copy()
    full[system.dofmap.interior_index >= 0] = x
    return full, stats


@dataclass
class DiscreteSolution:
    """Recovered fields plus the trace vector, and the parameters of the
    element systems they were recovered from. Row e of stress_coeffs /
    disp_coeffs holds element e's coefficients in the basis of its
    ElementBatch in ``batches``."""

    k: int
    stress_coeffs: np.ndarray  # (nelements, n_s)
    disp_coeffs: np.ndarray  # (nelements, n_u)
    trace: np.ndarray
    batches: list[ElementBatch] = field(repr=False)
    material: ComplianceTensor
    tau: float


def recover_fields(
    disc: Discretization, systems: ElementSystems, trace: np.ndarray
) -> DiscreteSolution:
    """Apply the local solution operators to the solved trace, adding the
    body-force response."""
    k, ne = disc.k, disc.mesh.num_elements
    stress = np.empty((ne, 3 * scalar_dim(k)))
    disp = np.empty((ne, 2 * scalar_dim(k + 1)))
    for cb in systems.batches:
        lam = trace[disc.element_dofs(cb.batch.face_ids)][..., None]
        stress[cb.batch.elements] = (cb.stress_map @ lam)[..., 0] + cb.source_stress
        disp[cb.batch.elements] = (cb.disp_map @ lam)[..., 0] + cb.source_disp
    return DiscreteSolution(
        k, stress, disp, trace, [cb.batch for cb in systems.batches], systems.material, systems.tau
    )


def _face_flux_values(
    disc: Discretization,
    batch: ElementBatch,
    sol: DiscreteSolution,
    local_face: int,
    fq: FaceQuadrature,
    modes: np.ndarray,
) -> np.ndarray:
    """Numerical traction sigma n - tau (P_M u - u_hat), P_M the projection
    onto the face modes, of each element of the batch on its local face
    ``local_face``, at the quadrature points of ``fq`` (stacked by face, with
    face-mode values ``modes``), shape (B, nq, 2)."""
    k = disc.k
    p_s, p_u = scalar_dim(k), scalar_dim(k + 1)
    B = len(batch.elements)
    fid = batch.face_ids[:, local_face]
    pts, w, md = fq.points[fid], fq.weights[fid], modes[fid]
    n0 = batch.normals[:, local_face, 0, None]
    n1 = batch.normals[:, local_face, 1, None]
    s = sol.stress_coeffs[batch.elements].reshape(B, 3, p_s)
    mono = batch.basis.monomials(pts)
    comp = batch.basis.eval(mono, p_s) @ s.swapaxes(-1, -2)  # (B, nq, 3): s11, s22, s12
    sig_n = np.stack(
        [comp[..., 0] * n0 + comp[..., 2] * n1, comp[..., 2] * n0 + comp[..., 1] * n1],
        axis=-1,
    )
    uhat = sol.trace[disc.face_dofs(fid)].reshape(B, -1, 2)  # (B, k+1, 2)
    uhat_vals = md @ uhat
    wd = sol.disp_coeffs[batch.elements].reshape(B, 2, p_u)
    u_face = batch.basis.eval(mono) @ wd.swapaxes(-1, -2)  # raw displacement trace
    mom = md.swapaxes(-1, -2) @ (w[..., None] * u_face)  # (B, k+1, 2)
    return sig_n - sol.tau * (md @ mom - uhat_vals)


def flux_jump_norm(disc: Discretization, sol: DiscreteSolution) -> tuple[float, float]:
    """(L2 norm of the traction jump over interior faces, L2 norm of the
    one-sided tractions) for relative single-valuedness checks, with the
    traction of the solve's tau, in the error rule."""
    mesh = disc.mesh
    fq, modes = error_face_rule(disc)
    left = mesh.face_left
    interior = mesh.face_right >= 0
    # one-sided tractions by face and side (0: left element, 1: right)
    flux = np.zeros((mesh.num_faces, 2) + fq.points.shape[1:])
    for batch in sol.batches:
        for j in range(batch.face_ids.shape[1]):
            fid = batch.face_ids[:, j]
            side = (left[fid] != batch.elements).astype(int)
            flux[fid, side] = _face_flux_values(disc, batch, sol, j, fq, modes)
    one_sided = np.sum(fq.weights[:, None] * (flux**2).sum(axis=-1), axis=-1)
    present = np.stack([np.ones_like(interior), interior], axis=1)
    jump = flux[interior, 0] + flux[interior, 1]
    jump_sq = np.sum(fq.weights[interior] * (jump**2).sum(axis=-1), axis=-1)
    return np.sqrt(running_sum(jump_sq)), np.sqrt(running_sum(one_sided[present]))


def scheme_residuals(
    disc: Discretization, sol: DiscreteSolution, f_fn=None, g_fn=None
) -> dict[str, float]:
    """Residual norms of the discrete equations for the recovered solution,
    with the solve's material and tau, relative to the size of the
    terms entering each equation.

    Keys: constitutive (stress equation), balance (momentum equation),
    transmission (interior traction moments), boundary (trace data)."""
    # squared norms by element: con_res, con_scale, bal_res, bal_scale, trans_scale
    parts = np.empty((5, disc.mesh.num_elements))
    trans = np.zeros(disc.dofmap.total)

    def mv(A, x):
        return (A @ x[..., None])[..., 0]

    def sq(x):
        return np.sum(x**2, axis=-1)

    for batch in sol.batches:
        table = batch.tabulate()
        b = batch_blocks(batch, sol.material, sol.tau, table)
        gdofs = disc.element_dofs(batch.face_ids)
        lam = sol.trace[gdofs]
        s, w = sol.stress_coeffs[batch.elements], sol.disp_coeffs[batch.elements]
        fm = batch_moments(batch, f_fn, table[0]) if f_fn is not None else np.zeros_like(w)
        Ms = mv(b.stress_mass, s)
        Tl = mv(b.trace_coupling, lam)
        Dts = mv(b.div_coupling.swapaxes(-1, -2), s)
        r1 = Ms + mv(b.div_coupling, w) - Tl
        r2 = -Dts + mv(b.stab_uu, w) - mv(b.stab_ulam, lam) + fm
        tmom = (
            mv(b.trace_coupling.swapaxes(-1, -2), s)
            - mv(b.stab_ulam.swapaxes(-1, -2), w)
            + mv(b.stab_lamlam, lam)
        )
        parts[:, batch.elements] = [sq(r1), sq(Ms) + sq(Tl), sq(r2), sq(Dts) + sq(fm), sq(tmom)]
        # a dof gets one term per element of its face, at most two, so the
        # order of the scatter does not matter
        np.add.at(trans, gdofs, tmom)
    con_res, con_scale, bal_res, bal_scale, trans_scale = (running_sum(p) for p in parts)
    interior = disc.dofmap.interior_index >= 0
    g_vals = boundary_trace_values(disc, g_fn)
    diff = sol.trace[~interior] - g_vals[~interior]
    res = {
        "constitutive": con_res,
        "balance": bal_res,
        "transmission": float(np.sum(trans[interior] ** 2)),
        "boundary": float(diff @ diff),
    }
    scale = {
        "constitutive": con_scale,
        "balance": bal_scale,
        "transmission": trans_scale,
        "boundary": float(np.sum(g_vals[~interior] ** 2)),
    }
    out = {}
    for key in res:
        denom = np.sqrt(scale[key]) if scale[key] > 0 else 1.0
        out[key] = np.sqrt(res[key]) / denom
    return out

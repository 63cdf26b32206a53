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
error rule (Discretization.error_rule) for boundary data, the traction
jump and the error norms.

The trace system is solved directly, by multifrontal nested dissection on
a grid of subdomains (square blocks of cells): a dense Cholesky of each
subdomain's inner unknowns, then of the faces between groups of 2 x 2
subdomains, and so on up to one top front, each done once per class of
fronts whose matrices are equal bit for bit. Conjugate gradients, the
other method, is preconditioned by the same factorization; see
solve_condensed.

Stacked layout: the element stage runs once per translation class of the
elements that share a face count (see hdg_local), on batches of at most
``hdg_local.CHUNK_SIZE`` class representatives, and keeps each class's
geometry and operators once. Its results come in batches of at most
``CHUNK_SIZE`` elements, each with its elements' faces, class rows and
shifts from their representatives, by which assembly and recovery gather
the operators. They, the traction jump and the scheme residuals work on
the same batches, with each batch's global trace dofs gathered as one
index array; the traction jump and the error norms form the elements'
bases from their representatives' (CondensedBatch.basis), and the scheme
residuals gather the representatives' blocks. The solution keeps the
batches, so that the error norms tabulate once per class too (see
postproc).
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

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import hdg_local
from .errors import SolverError
from .fespace import (
    ElementBasis,
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
    batch_blocks,
    batch_moments,
    condense_classes,
    element_batch,
)
from .material import ComplianceTensor
from .mesh import Mesh, polygon_areas, polygon_centroids

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
    "flux_jump_norm",
    "scheme_residuals",
]


# inner dofs (dofs of faces with both elements in the subdomain) that the
# subdomains of the direct solve aim at (_element_blocks). 120, like every
# target from 96 to 143, picks s=4 cells on tri k=1 and poly k=1..3 and s=2
# on tri k >= 2 and poly k >= 4. Measured (best of 15, one BLAS thread), the
# solve at the widths picked before (target 150, any s) and now: tri k=2
# n=16 8.1 -> 6.1 ms, n=32 25.1 -> 22.0 ms; poly k=1 n=24 12.6 -> 8.2 ms;
# poly k=4..5 n=24 up to 5% slower. s=2 is faster on tri k=1 and poly k=2..3
# too, but on poly k=2 it waits for an extended-precision reference: it moves
# the pinned nu=0.49999 n=12 cell past its rel 1e-9 check (err_u_proj 1.97e-9).
SUBDOMAIN_INNER_DOFS = 120

# bytes of rows gathered at a time when _distinct checks rows against their
# candidates: about 18 of the 28 KB keys of the interior subdomains of tri
# k=1 (_substructure), of which n=128 has 900, 25 MB
COMPARE_BYTES = 1 << 19


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

    @cached_property
    def error_rule(self) -> tuple[FaceQuadrature, np.ndarray]:
        """Quadrature and face-mode values of every face in the rule of
        hdg_local.error_quadrature_exactness, for the error norms and the
        traction jump. Built once, on first use: after the trace solve in a
        run, so that it does not add to the solve's peak memory."""
        return _face_rule(self.mesh, self.k, hdg_local.error_quadrature_exactness(self.k))

    def face_dofs(self, face_id) -> np.ndarray:
        """Trace dofs of a face, or (..., ndof_face) for an array of faces."""
        nd = self.dofmap.ndof_face
        return np.asarray(face_id)[..., None] * nd + np.arange(nd)

    def element_dofs(self, face_ids: np.ndarray) -> np.ndarray:
        """Trace dofs of elements with faces ``face_ids`` (B, m): (B, m * ndof_face)."""
        return self.face_dofs(face_ids).reshape(len(face_ids), -1)

    def element_classes(self):
        """Per face count, the translation classes of its elements
        (Mesh.translation_classes) in chunks of at most CHUNK_SIZE classes,
        in ascending order of their representatives. Per chunk: the
        ElementBatch of its representatives, and the elements of its
        classes in batches of at most CHUNK_SIZE in ascending order, each
        batch as (rows, elements), rows[i] the row of element i's
        representative."""
        size = hdg_local.CHUNK_SIZE
        for _, ids in self.mesh.element_groups():
            first, cls = self.mesh.translation_classes(ids)
            for start in range(0, len(first), size):
                rep_ids = ids[first[start : start + size]]
                reps = element_batch(self.mesh, self.k, rep_ids, self.face_quad, self.face_modes)
                members = np.flatnonzero((cls >= start) & (cls < start + size))
                yield reps, [(cls[chunk] - start, ids[chunk])
                             for chunk in np.split(members, range(size, len(members), size))]


def _face_rule(
    mesh: Mesh, k: int, exactness: int, face_ids=None
) -> tuple[FaceQuadrature, np.ndarray]:
    """Quadrature and face-mode values on the faces ``face_ids`` (all by
    default), face by face: a face's values do not depend on the others."""
    face_ids = np.arange(mesh.num_faces) if face_ids is None else face_ids
    fq = face_quadratures(mesh, face_ids, exactness)
    return fq, face_modes(fq.params, k, mesh.face_length[face_ids])


def build_discretization(mesh: Mesh, k: int) -> Discretization:
    fq, modes = _face_rule(mesh, k, hdg_local.default_quadrature_exactness(k))
    return Discretization(mesh, k, build_trace_dof_map(mesh, k), fq, modes)


@dataclass
class ElementSystems:
    """Condensed element systems of a mesh, one CondensedBatch per element
    batch of Discretization.element_classes, in its order (the batches of
    a chunk of classes are consecutive and share its representatives and
    class operators), and the parameters they were built with. Per element
    it holds the faces, class row, shift, trace load and body-force
    responses; geometry, quadrature and bases only per class."""

    batches: list[CondensedBatch]
    material: ComplianceTensor
    tau: float


def build_element_systems(
    disc: Discretization,
    material: ComplianceTensor,
    tau: float,
    f_fn=None,
) -> ElementSystems:
    """Build, eliminate and condense each translation class once
    (hdg_local.condense_classes)."""
    batches = []
    for reps, targets in disc.element_classes():
        batches += condense_classes(reps, material, tau, f_fn, targets)
    return ElementSystems(batches, material, tau)


def running_sum(values: np.ndarray) -> float:
    """Sum of the values added one at a time, in order."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


@dataclass
class CondensedSystem:
    """Reduced SPD system over interior trace dofs plus boundary data. The
    matrix is the BSR of assemble_global's face blocks: block row r is
    interior face r, and block j (``data[j]``) has column face ``indices[j]``."""

    matrix: scipy.sparse.bsr_matrix
    rhs: np.ndarray
    boundary_values: np.ndarray  # full trace vector, nonzero on boundary dofs
    # the mesh-level data the system was assembled from; the trace solve
    # lays its subdomains on the mesh
    disc: Discretization = field(repr=False)

    @property
    def dofmap(self) -> TraceDofMap:
        return self.disc.dofmap


def boundary_trace_values(disc: Discretization, g_fn) -> np.ndarray:
    """Full trace vector holding the face projection of the boundary data,
    in the error rule (Discretization.error_rule), built on the boundary
    faces only."""
    values = np.zeros(disc.dofmap.total)
    fids = disc.mesh.boundary_faces()
    if g_fn is None or not len(fids):
        return values
    fq, modes = _face_rule(disc.mesh, disc.k, hdg_local.error_quadrature_exactness(disc.k), fids)
    vals = np.asarray(g_fn(fq.points.reshape(-1, 2)), dtype=float).reshape(fq.points.shape)
    values[disc.face_dofs(fids)] = trace_moments(modes, fq.weights, vals)
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
    ranks = [rank[cb.face_ids] for cb in systems.batches]
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
        matrix = cb.matrix[cb.rows]  # the elements' class matrices
        blk, new = inverse[done : done + pair.sum()], is_first[done : done + pair.sum()]
        done += len(blk)
        vals = matrix.reshape(B, m, nd, m, nd).swapaxes(2, 3)[pair]
        # the first element block of a face block is copied, the second added
        blocks[blk[new]] = vals[new]
        blocks[blk[~new]] += vals[~new]
        fids = cb.face_ids
        side = (disc.mesh.face_left[fids] != cb.elements[:, None]).astype(int)
        terms[fids, side, 0] = cb.rhs.reshape(B, m, nd)
        gdofs = disc.element_dofs(fids)
        inside = dofmap.interior_index[gdofs] >= 0
        n_bdry = (~inside).sum(axis=1)
        for count in np.unique(n_bdry[n_bdry > 0]):
            sel = np.flatnonzero(n_bdry == count)
            ii = np.nonzero(inside[sel])[1].reshape(len(sel), -1)
            bb = np.nonzero(~inside[sel])[1].reshape(len(sel), -1)
            sub = matrix[sel[:, None, None], ii[:, :, None], bb[:, None, :]]
            g = boundary_values[np.take_along_axis(gdofs[sel], bb, axis=1)]
            lift = (sub @ g[..., None])[..., 0]
            j = ii // nd
            terms[fids[sel[:, None], j], side[sel[:, None], j], 1, ii % nd] = 0.0 - lift
    # each interior dof sums its left element's terms, then its right's: the
    # element order
    t = terms[disc.mesh.face_right >= 0]
    rhs = (((t[:, 0, 0] + t[:, 0, 1]) + t[:, 1, 0]) + t[:, 1, 1]).ravel()
    bptr = np.searchsorted(pairs, np.arange(nf + 1) * nf)
    matrix = scipy.sparse.bsr_matrix((blocks, pairs % nf, bptr), shape=(n, n))
    return CondensedSystem(matrix, rhs, boundary_values, disc)


@dataclass
class SolverStats:
    method: str
    n: int
    nnz: int
    iterations: int = 0
    # the smallest pivot of one symmetric elimination of the matrix, in the
    # order of the nested dissection: the smallest squared diagonal of the
    # fronts' dense Cholesky factors, which both methods compute
    min_pivot: float = np.nan
    residual: float = np.nan


def _element_blocks(mesh: Mesh, nd: int) -> np.ndarray:
    """Subdomain of each element, as the column and row (ne, 2) of the
    square of s x s cells that holds its centroid. A cell is a square of the
    mean area of two triangles of the elements' fan triangulations, laid
    from the lower left corner of the mesh: on the built-in meshes,
    perturbed or not, a grid cell, with every centroid well inside it. The
    width s is the power of two (so that 2^j cells split into whole
    subdomains) whose largest subdomain comes closest to SUBDOMAIN_INNER_DOFS
    inner dofs (``nd`` per inner face, a face with both elements in it)."""
    centroid = np.empty((mesh.num_elements, 2))
    area = np.empty(mesh.num_elements)
    for m, ids in mesh.element_groups():
        polys = mesh.polygons(ids)
        centroid[ids] = polygon_centroids(polys)
        area[ids] = 2.0 * np.abs(polygon_areas(polys)) / (m - 2)
    cell = np.floor((centroid - mesh.vertices.min(axis=0)) / np.sqrt(area.mean())).astype(int)
    fids = mesh.interior_faces()
    left, right = mesh.face_left[fids], mesh.face_right[fids]
    best = None
    for s in 1 << np.arange(int(cell.max()).bit_length() + 1):
        ij = cell // s
        block = ij[:, 1] * (ij[:, 0].max() + 1) + ij[:, 0]
        inner = block[left] == block[right]
        largest = nd * np.bincount(block[left[inner]]).max(initial=0)
        miss = abs(largest - SUBDOMAIN_INNER_DOFS)
        if best is None or miss <= best[0]:
            best = miss, ij
        if largest >= SUBDOMAIN_INNER_DOFS or not block.any():
            break
    return best[1]


@dataclass
class _Stack:
    """Fronts of one level of the nested dissection, in classes of m fronts
    that share one factorization, all of one shape. A front's local order is
    its inner faces (the faces it eliminates), then its outer faces (faces
    of its elements that a later front eliminates), each in ascending order,
    ndof_face dofs per face. Its matrix is the trace matrix's face blocks in
    its inner rows, on the columns of its own faces, plus the Schur
    complements of its children, each added on the child's outer faces."""

    level: int
    inner: np.ndarray  # (C, m, nI) inner dofs of each front
    outer: np.ndarray  # (C, m, nO) its outer dofs
    # face blocks of each class's first front: class, local row face, local
    # column face, and the block's index in the matrix data
    blocks: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    # per stack of children: its index, the children's classes in it (K,),
    # their fronts' classes here (K,), and the local dofs (K, o) of their
    # outer dofs here
    children: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = field(default_factory=list)


def _substructure(system: CondensedSystem) -> list[_Stack]:
    """Nested dissection of the trace matrix on the subdomain grid
    (_element_blocks), as stacks of fronts in elimination order. Level 0
    is the subdomains, each eliminating its inner faces. At level l, a group
    of 2^l x 2^l subdomains eliminates the faces between its (up to four)
    level l-1 groups, so a face's level is the first at which both of its
    elements lie in one group, and a group with one child eliminates
    nothing. The parent of a front is the front that eliminates the first
    of its outer faces.

    The class of a front is the representative (_distinct) of its inner
    rows' values and local pattern and, above level 0, of what its children
    add where (their ranks, classes and local faces). Equal keys give equal
    front matrices bit for bit, so fronts share a factorization only where
    their matrices agree entry for entry: the subdomains of a mesh with
    translates, and the fronts above them (9 classes for the 16 fronts of
    level 1 of tri n=32, 9 for the 256 of n=128). The rows are read as the
    matrix keeps them, face block by face block (see CondensedSystem)."""
    A, mesh = system.matrix, system.disc.mesh
    nd = system.dofmap.ndof_face
    fids = mesh.interior_faces()
    nf = len(fids)
    ij = _element_blocks(mesh, nd)
    left, right = ij[mesh.face_left[fids]], ij[mesh.face_right[fids]]
    # the first level l at which a face's sides agree after l bits
    lev = np.frexp((left ^ right).max(axis=1))[1].astype(int)
    width, area = ij[:, 0].max() + 1, (ij.max(axis=0) + 1).prod()

    def group(level, sides):
        """Number of the level-``level`` group holding each side, by level."""
        g = sides >> level[:, None]
        return level * area + g[:, 1] * width + g[:, 0]

    # a front per group with inner faces, by level, and its inner faces in
    # ascending order
    fronts, front = np.unique(group(lev, left), return_inverse=True)
    level = fronts // area
    fi = np.argsort(front, kind="stable")
    n_i = np.bincount(front, minlength=len(fronts))
    i0 = np.cumsum(n_i) - n_i
    local = np.empty(nf, dtype=int)
    local[fi] = np.arange(nf) - np.repeat(i0, n_i)
    # a face is an outer face of the fronts of the groups holding its
    # elements at each level below its own
    below = np.repeat(np.arange(nf), lev)
    at = np.arange(len(below)) - np.repeat(np.cumsum(lev) - lev, lev)
    keys = np.concatenate([group(at, left[below]), group(at, right[below])])
    hit = np.minimum(np.searchsorted(fronts, keys), len(fronts) - 1)
    has = fronts[hit] == keys
    of, oface = hit[has], np.tile(below, 2)[has]
    order = np.lexsort((oface, of))
    of, oface = of[order], oface[order]
    n_o = np.bincount(of, minlength=len(fronts))
    o0 = np.cumsum(n_o) - n_o
    # local face of (front, face) pairs, by key front * nf + face
    pair = np.concatenate([front * nf + np.arange(nf), of * nf + oface])
    by_pair = np.argsort(pair)
    pair = pair[by_pair]
    slot = np.concatenate([local, n_i[of] + np.arange(len(of)) - np.repeat(o0, n_o)])[by_pair]

    def local_face(fr, faces):
        return slot[np.searchsorted(pair, fr * nf + faces)]

    def dofs(faces):
        return (faces[..., None] * nd + np.arange(nd)).reshape(faces.shape[:-1] + (-1,))

    def ranges(first, count):
        return np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())

    # the face blocks of the inner rows, by front, on the columns of faces
    # that the front or a later one eliminates
    cnt = np.diff(A.indptr)[fi]
    fb = ranges(A.indptr[fi], cnt)
    row, col = np.repeat(fi, cnt), A.indices[fb]
    keep = lev[col] >= lev[row]
    row, col, fb = row[keep], col[keep], fb[keep]
    brow, bcol = local[row], local_face(front[row], col)
    n_b = np.bincount(front[row], minlength=len(fronts))
    b0 = np.cumsum(n_b) - n_b

    # each front with outer faces is a child of the front that eliminates the
    # first of them, and ranks among its siblings by number
    first = np.lexsort((lev[oface], of))[o0[n_o > 0]]
    kids, parent = of[first], front[oface[first]]
    by = np.lexsort((kids, parent))
    _, k0, n_k = np.unique(parent[by], return_index=True, return_counts=True)
    rank = np.empty(len(kids), dtype=int)
    rank[by] = np.arange(len(kids)) - np.repeat(k0, n_k)
    # each outer face of each child: its local face in the parent, its index
    # among the child's outer faces, and its slot among the (at most two)
    # children that hold it there, by rank
    entry = ranges(o0[kids], n_o[kids])
    kid = np.repeat(np.arange(len(kids)), n_o[kids])
    pos = local_face(parent[kid], oface[entry])
    index = entry - o0[kids][kid]
    by = np.lexsort((rank[kid], pos, parent[kid]))
    second = np.zeros(len(kid), dtype=int)
    second[by[1:]] = (parent[kid[by[1:]]] == parent[kid[by[:-1]]]) & (pos[by[1:]] == pos[by[:-1]])

    stacks, where = [], np.empty((len(fronts), 3), dtype=int)  # stack, class, member
    sizes = (n_i * (n_o.max() + 1) + n_o) * (n_b.max() + 1) + n_b
    for lv in range(level.max() + 1):
        on = np.flatnonzero(level == lv)
        if not len(on):
            continue
        # above level 0, a front's matrix also depends on what its children
        # add where: per local face and slot, the child's rank, stack, class
        # and index of the face
        labels = np.full((len(on), (n_i + n_o)[on].max(), 2), -1)
        e = np.flatnonzero(level[parent[kid]] == lv)
        c = kids[kid[e]]
        labels[parent[kid[e]] - on[0], pos[e], second[e]] = (
            (rank[kid[e]] * len(stacks) + where[c, 0]) * len(fronts) + where[c, 1]
        ) * (n_o.max() + 1) + index[e]
        for size in np.unique(sizes[on]):
            members = on[sizes[on] == size]
            ni, no, nb = n_i[members[0]], n_o[members[0]], n_b[members[0]]
            cls = np.zeros(len(members), dtype=int)
            if len(members) > 1:
                blk = b0[members][:, None] + np.arange(nb)
                vals = A.data[fb[blk]].reshape(len(members), -1)
                key = brow[blk] * (ni + no) + bcol[blk]
                label = labels[members - on[0], : ni + no].reshape(len(members), -1)
                _, cls = np.unique(_distinct(np.concatenate(
                    [vals.view(np.uint64), key.view(np.uint64), label.view(np.uint64)], axis=1)),
                    return_inverse=True)
            by_class = np.argsort(cls, kind="stable")
            count = np.bincount(cls)
            for m in np.unique(count):
                b = members[by_class[count[cls[by_class]] == m].reshape(-1, m)]
                where[b] = np.stack([np.full(b.shape, len(stacks)), *np.indices(b.shape)], -1)
                blk = ranges(b0[b[:, 0]], n_b[b[:, 0]])
                stacks.append(_Stack(lv, dofs(fi[i0[b][..., None] + np.arange(ni)]),
                                     dofs(oface[o0[b][..., None] + np.arange(no)]),
                                     (np.repeat(np.arange(len(b)), n_b[b[:, 0]]), brow[blk],
                                      bcol[blk], fb[blk])))
    # a class's matrix is its first front's: the children of the others add
    # nothing
    adds = where[parent, 2] == 0
    steps = where[parent, 0] * len(stacks) + where[kids, 0]
    for step in np.unique(steps[adds]):
        c, p = kids[adds & (steps == step)], parent[adds & (steps == step)]
        faces = oface[o0[c][:, None] + np.arange(n_o[c[0]])]
        stacks[where[p[0], 0]].children.append(
            (where[c[0], 0], where[c, 1], where[p, 1], dofs(local_face(p[:, None], faces))))
    return stacks


def _triangular_solve(U: np.ndarray, B: np.ndarray, trans: int) -> np.ndarray:
    """U^-T B (trans=1) or U^-1 B (trans=0) per slice of stacks of upper
    triangular U (C, n, n) and B (C, n, r), by LAPACK trtrs: one call per
    slice costs a few microseconds, where scipy's batched solve_triangular
    costs tens."""
    return np.stack([scipy.linalg.lapack.dtrtrs(u, rhs, lower=0, trans=trans)[0]
                     for u, rhs in zip(U, B)])


def _substructured_solve(
    system: CondensedSystem,
) -> tuple[np.ndarray, float, Callable[[np.ndarray], np.ndarray]]:
    """Solve the trace system by multifrontal nested dissection (George,
    SIAM J. Numer. Anal. 10, 1973; Duff & Reid, ACM TOMS 9, 1983) on the
    subdomain grid: static condensation of the subdomains (Przemieniecki,
    AIAA J. 1, 1963), then of groups of 2 x 2 groups, level by level, up to
    one top front (_substructure). Per stack of fronts, in elimination
    order: the front matrices, from the face blocks of the trace matrix and
    the children's Schur complements (extend-add); a batched dense Cholesky
    F_II = L L^T, W = L^-1 F_IO and the Schur complement F_OO - W^T W of
    each class; the forward elimination and back-substitution as one
    triangular solve per class over all of its fronts' right-hand sides.
    The pivots diag(L)^2 are those of one symmetric elimination of A, so A
    is positive definite if and only if every dense Cholesky succeeds and
    all pivots are positive. Returns the solution, the minimum pivot (NaN
    if a pivot is not finite) and ``apply(r)``, A^-1 r by the stored
    factors."""
    A, b = system.matrix, system.rhs
    nd = system.dofmap.ndof_face
    stacks = _substructure(system)
    last = {s: p for p, st in enumerate(stacks) for s, *_ in st.children}
    r = b.copy()
    pivots, updates, factors, eliminated = [], {}, [], []
    # one buffer holds each stack's front matrices in turn: a new array per
    # stack costs its page faults again
    sizes = [len(st.inner) * (st.inner.shape[2] + st.outer.shape[2]) ** 2 for st in stacks]
    work = np.empty(max(sizes))

    def eliminate(r, W, Y, st):
        """Subtract the fronts' eliminated right-hand sides Y, through W^T,
        from r on their outer dofs."""
        r -= np.bincount(st.outer.swapaxes(1, 2).ravel(),
                         weights=(W.swapaxes(1, 2) @ Y).ravel(), minlength=len(r))

    for p, st in enumerate(stacks):
        C, _, ni = st.inner.shape
        n = ni + st.outer.shape[2]
        F = work[: sizes[p]].reshape(C, n, n)
        F.fill(0.0)
        F5 = F.reshape(C, n // nd, nd, n // nd, nd)
        cls, rows, cols, blocks = st.blocks
        F5[cls, rows, :, cols, :] = A.data[blocks]
        # extend-add: an entry sums the children's updates in the order of
        # st.children, the same for (i, j) as for (j, i)
        for s, child, front, d in st.children:
            for c, row, col in zip(child, (front[:, None] * n + d) * n, d):
                np.add.at(F.reshape(-1), (row[:, None] + col).ravel(), updates[s][c].ravel())
        for s in [s for s, q in last.items() if q == p]:
            del updates[s]
        try:
            L = np.linalg.cholesky(F[:, :ni, :ni])
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "matrix is not positive definite (a front's dense Cholesky broke down)"
            ) from exc
        pivots.append(np.diagonal(L, axis1=1, axis2=2).ravel() ** 2)
        # U = L^T per class, each in the column order LAPACK reads; W and the
        # fronts' eliminated right-hand sides Y in one solve
        U = L.swapaxes(1, 2)
        WY = _triangular_solve(U, np.concatenate([F[:, :ni, ni:], r[st.inner].swapaxes(1, 2)],
                                                 axis=2), 1)
        W, Y = WY[:, :, : n - ni], WY[:, :, n - ni :]
        eliminate(r, W, Y, st)
        # numpy forms W^T W of one buffer by syrk and mirrors it, so the
        # update is exactly symmetric
        S = W.swapaxes(1, 2) @ W
        updates[p] = np.subtract(F[:, ni:, ni:], S, out=S)
        factors.append((U, W))
        eliminated.append(Y)

    def back_substitute(eliminated):
        """The solution from each stack's eliminated right-hand sides."""
        x = np.empty(len(b))
        for st, (U, W), Y in zip(stacks[::-1], factors[::-1], eliminated[::-1]):
            xi = _triangular_solve(U, Y - W @ x[st.outer].swapaxes(1, 2), 0)
            x[st.inner] = xi.swapaxes(1, 2)
        return x

    def apply(r):
        # the forward elimination of r alone, then the back substitution
        r = np.array(r, dtype=float).ravel()
        eliminated = []
        for st, (U, W) in zip(stacks, factors):
            eliminated.append(_triangular_solve(U, r[st.inner].swapaxes(1, 2), 1))
            eliminate(r, W, eliminated[-1], st)
        return back_substitute(eliminated)

    pivots = np.concatenate(pivots)
    return (back_substitute(eliminated),
            float(pivots.min()) if np.isfinite(pivots).all() else np.nan, apply)


def _distinct(flat: np.ndarray) -> np.ndarray:
    """Representative of each row of a stack (P, w) of 8-byte words: the
    first row with the same fingerprint if the row equals it word for word,
    else the row itself. The fingerprint is the product of a row's bit
    patterns with fixed odd multipliers in wrapping integer arithmetic:
    rows that differ in one word, even by a rounding, differ in it."""
    flat = np.ascontiguousarray(flat).view(np.uint64)
    probe = (2 * np.arange(flat.shape[1], dtype=np.uint64) + 1) * np.uint64(0x9E3779B97F4A7C15)
    _, first, inverse = np.unique(flat @ probe, return_index=True, return_inverse=True)
    rep = first[inverse]
    # rows that are not their own candidate are compared in chunks of
    # about COMPARE_BYTES of gathered rows, so that no gathered copy of the
    # whole stack is held next to it
    shared = np.flatnonzero(rep != np.arange(len(rep)))
    size = max(1, COMPARE_BYTES // flat[0].nbytes)
    for start in range(0, len(shared), size):
        rows = shared[start : start + size]
        alone = rows[(flat[rows] != flat[rep[rows]]).any(axis=1)]
        rep[alone] = alone
    return rep


def solve_condensed(
    system: CondensedSystem, method: str = "cholesky", tol: float = 1e-12
) -> tuple[np.ndarray, SolverStats]:
    """Solve for the interior trace coefficients.

    Both methods factor the matrix by multifrontal nested dissection
    (_substructured_solve): one symmetric elimination without pivoting by
    dense Cholesky factors of the fronts, from the subdomains up to the top
    front. A breakdown of a dense factor or a pivot that is not positive
    means the matrix is not SPD and is reported as a hard error; min_pivot
    is the smallest pivot.
    ``cholesky``: the solution of that elimination.
    ``cg``: conjugate gradients from zero, preconditioned by the factors, to
    relative residual ``tol``: iterative refinement of the direct solve,
    accelerated by CG (Carson & Higham, SIAM J. Sci. Comput. 40, 2018).

    Returns the full trace vector (boundary values filled in) and stats."""
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if method not in ("cholesky", "cg"):
        raise ValueError(f"unknown solver {method!r} (expected 'cholesky' or 'cg')")
    A, b = system.matrix, system.rhs
    n = A.shape[0]
    stats = SolverStats(method=method, n=n, nnz=A.nnz)
    if n == 0:
        full = system.boundary_values.copy()
        return full, stats

    x, stats.min_pivot, apply = _substructured_solve(system)
    if not stats.min_pivot > 0.0:
        raise SolverError(f"matrix is not positive definite (min pivot {stats.min_pivot:.3e})")
    if method == "cg":
        M = scipy.sparse.linalg.LinearOperator((n, n), matvec=apply, dtype=float)
        count = {"it": 0}

        def cb(_xk):
            count["it"] += 1

        x, info = scipy.sparse.linalg.cg(A, b, rtol=tol, atol=0.0, M=M, callback=cb)
        stats.iterations = count["it"]
        if info > 0:
            raise SolverError(f"cg did not converge in {info} iterations")
        if info < 0:
            raise SolverError("cg failed (illegal input or breakdown)")

    bnorm = np.linalg.norm(b)
    stats.residual = float(np.linalg.norm(A @ x - b) / bnorm) if bnorm > 0 else 0.0
    full = system.boundary_values.copy()
    full[system.dofmap.interior_index >= 0] = x
    return full, stats


@dataclass
class DiscreteSolution:
    """Recovered fields plus the trace vector, and the batches and
    parameters of the element systems they were recovered from. Row e of
    stress_coeffs / disp_coeffs holds element e's coefficients in its basis,
    which CondensedBatch.basis gives for the batch in ``batches`` that holds
    element e."""

    k: int
    stress_coeffs: np.ndarray  # (nelements, n_s)
    disp_coeffs: np.ndarray  # (nelements, n_u)
    trace: np.ndarray
    batches: list[CondensedBatch] = field(repr=False)
    material: ComplianceTensor
    tau: float


def recover_fields(
    disc: Discretization, systems: ElementSystems, trace: np.ndarray
) -> DiscreteSolution:
    """Apply the local solution operators to the solved trace, adding the
    body-force response. Each batch gathers its elements' class operators
    by row."""
    k, ne = disc.k, disc.mesh.num_elements
    stress = np.empty((ne, 3 * scalar_dim(k)))
    disp = np.empty((ne, 2 * scalar_dim(k + 1)))
    for cb in systems.batches:
        lam = trace[disc.element_dofs(cb.face_ids)][..., None]
        stress[cb.elements] = (cb.stress_map[cb.rows] @ lam)[..., 0] + cb.source_stress
        disp[cb.elements] = (cb.disp_map[cb.rows] @ lam)[..., 0] + cb.source_disp
    return DiscreteSolution(k, stress, disp, trace, systems.batches, systems.material, systems.tau)


def _face_flux_values(
    disc: Discretization,
    cb: CondensedBatch,
    basis: ElementBasis,
    sol: DiscreteSolution,
    local_face: int,
    fq: FaceQuadrature,
    modes: np.ndarray,
) -> np.ndarray:
    """Numerical traction sigma n - tau (P_M u - u_hat), P_M the projection
    onto the face modes, of each element of the batch, with bases ``basis``
    (cb.basis()), on its local face ``local_face``, at the quadrature points
    of ``fq`` (stacked by face, with face-mode values ``modes``), shape
    (B, nq, 2)."""
    k, mesh = disc.k, disc.mesh
    p_s, p_u = scalar_dim(k), scalar_dim(k + 1)
    B = len(cb.elements)
    fid = cb.face_ids[:, local_face]
    pts, w, md = fq.points[fid], fq.weights[fid], modes[fid]
    # the outward normal: the face's, negated where the element is on its right
    sign = np.where(mesh.face_left[fid] == cb.elements, 1.0, -1.0)
    normal = mesh.face_normal[fid] * sign[:, None]
    n0, n1 = normal[:, 0, None], normal[:, 1, None]
    s = sol.stress_coeffs[cb.elements].reshape(B, 3, p_s)
    mono = basis.monomials(pts)
    comp = basis.eval(mono, p_s) @ s.swapaxes(-1, -2)  # (B, nq, 3): s11, s22, s12
    sig_n = np.stack(
        [comp[..., 0] * n0 + comp[..., 2] * n1, comp[..., 2] * n0 + comp[..., 1] * n1],
        axis=-1,
    )
    uhat = sol.trace[disc.face_dofs(fid)].reshape(B, -1, 2)  # (B, k+1, 2)
    uhat_vals = md @ uhat
    wd = sol.disp_coeffs[cb.elements].reshape(B, 2, p_u)
    u_face = basis.eval(mono) @ wd.swapaxes(-1, -2)  # raw displacement trace
    mom = md.swapaxes(-1, -2) @ (w[..., None] * u_face)  # (B, k+1, 2)
    return sig_n - sol.tau * (md @ mom - uhat_vals)


def flux_jump_norm(disc: Discretization, sol: DiscreteSolution) -> tuple[float, float]:
    """(L2 norm of the traction jump over interior faces, L2 norm of the
    one-sided tractions) for relative single-valuedness checks, with the
    traction of the solve's tau, in the error rule."""
    mesh = disc.mesh
    fq, modes = disc.error_rule
    left = mesh.face_left
    interior = mesh.face_right >= 0
    # one-sided tractions by face and side (0: left element, 1: right)
    flux = np.zeros((mesh.num_faces, 2) + fq.points.shape[1:])
    for cb in sol.batches:
        basis = cb.basis()
        for j in range(cb.face_ids.shape[1]):
            fid = cb.face_ids[:, j]
            side = (left[fid] != cb.elements).astype(int)
            flux[fid, side] = _face_flux_values(disc, cb, basis, sol, j, fq, modes)
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

    The equations are those the element stage solved: each element's are
    its class representative's blocks (batch_blocks, once per chunk of
    classes, gathered by class row) with its own body-force moments
    (batch_moments at the representative's quadrature shifted, as
    condense_classes forms them).

    Keys: constitutive (stress equation), balance (momentum equation),
    transmission (interior traction moments), boundary (trace data)."""
    # squared norms by element: con_res, con_scale, bal_res, bal_scale, trans_scale
    parts = np.empty((5, disc.mesh.num_elements))
    trans = np.zeros(disc.dofmap.total)

    def mv(A, x):
        return (A @ x[..., None])[..., 0]

    def sq(x):
        return np.sum(x**2, axis=-1)

    reps = None
    for cb in sol.batches:
        if cb.reps is not reps:
            # the first batch of a chunk of classes: the blocks of its
            # representatives
            reps = cb.reps
            table = reps.tabulate()
            b = batch_blocks(reps, sol.material, sol.tau, table)
            phi = table[0]
        rows = cb.rows
        gdofs = disc.element_dofs(cb.face_ids)
        lam = sol.trace[gdofs]
        s, w = sol.stress_coeffs[cb.elements], sol.disp_coeffs[cb.elements]
        fm = (np.zeros_like(w) if f_fn is None
              else batch_moments(reps.quad, phi[rows], f_fn, rows, cb.shift))
        D, T, S_uu, S_ul = (a[rows] for a in (b.div_coupling, b.trace_coupling, b.stab_uu,
                                                b.stab_ulam))
        Ms = mv(b.stress_mass, s)
        Tl = mv(T, lam)
        Dts = mv(D.swapaxes(-1, -2), s)
        r1 = Ms + mv(D, w) - Tl
        r2 = -Dts + mv(S_uu, w) - mv(S_ul, lam) + fm
        tmom = mv(T.swapaxes(-1, -2), s) - mv(S_ul.swapaxes(-1, -2), w) + mv(b.stab_lamlam, lam)
        parts[:, cb.elements] = [sq(r1), sq(Ms) + sq(Tl), sq(r2), sq(Dts) + sq(fm), sq(tmom)]
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

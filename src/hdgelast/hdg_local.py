"""Element stage: local blocks, local solvers and static condensation.

Each element carries three unknown groups: symmetric stress coefficients of
degree k (layout direction-major over e11/e22/e12sym), displacement
coefficients of degree k+1 (component-major), and the trace coefficients on
its faces (mode-major, component-minor per face). The local saddle system
couples stress and displacement to the trace; eliminating the first two
yields a small symmetric positive semidefinite trace matrix per element
whose kernel consists exactly of the rigid-motion traces.

The condensed matrix is assembled in its symmetric quadratic form

    A_K = Q^T (stress mass) Q + sum_F tau * R_F^T R_F,
    R_F = (face projection of U) - (face selection),

where Q and U map trace coefficients to the eliminated stress and
displacement coefficients. The tests check it against the algebraically
equivalent "flux" expression, obtained by pairing the numerical traction
with the face test functions.

Stacked layout: the stage runs on an ``ElementBatch``, elements that share
a face count in ascending element order, with every per-element array
stacked along a leading element axis. Each stacked product keeps the
association order and the per-element memory layout of a single element's
computation, so an element's results are bitwise independent of the batch
it is computed in. ``condense_classes`` tabulates the basis values and
gradients at the element quadrature points once (``ElementBatch.tabulate``)
and passes them to the blocks and the body-force moments. The entry points
are ``element_batch``, which stacks elements, ``condense_classes``, which
runs the whole stage, and its kernels ``batch_blocks`` and
``batch_moments``; a single element is a one-element batch of one class.

Translation classes. The stage depends only on an element's shape, the
material and tau, not on where the element sits. Elements with the same
side (left or right) of each face and the same vertex offsets from their
first vertex, in multiples of ``mesh.TRANSLATION_GRID`` = 2^-40 times h,
form a translation class (``Mesh.translation_classes``), and a mesh run
condenses each class once, on its lowest element, the representative. Only
the representatives are ElementBatches. ``condense_classes`` keeps their
condensed matrices and solution operators once, leading axis the class;
the results of the other elements (``CondensedBatch``) hold their class
rows, by which the later stages gather the operators, and their shift from
the representative, the difference of the two first vertices. An element's
basis is its representative's with the center shifted
(``CondensedBatch.basis``). Its body-force response is its own moments of
the force, at the representative's quadrature points shifted, against the
representative's basis values there, times the representative's responses
to unit moments (n_u extra columns of the local solve); its load follows
from that response. An element therefore departs from its own one-element
batch by rounding only (a few 1e-15 relative). The classes of a face count
are taken over all its elements, and the representatives run in batches
of at most ``CHUNK_SIZE`` in ascending order, so nothing depends on
``CHUNK_SIZE``, and a failing local solve names the lowest failing element.
The built-in meshes have 4 (tri) and at most 14 (poly) classes per level.

Local solve. Each representative factorizes its saddle matrix over
(stress, displacement), symmetric indefinite, with the pivoted LU of LAPACK
``dgetrf``/``dgetrs``, with the results ``scipy.linalg.lu_factor`` and
``lu_solve`` give. It works in place on per-element column-major arrays,
one element at a time, and is the one local solve for every material,
near incompressibility included.

The module owns both quadrature policies: default_quadrature_exactness,
the rule of the element stage, and error_quadrature_exactness, the richer
rule of boundary data, error norms and the traction jump.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import SolverError
from .fespace import (
    ElementBasis,
    FaceQuadrature,
    Quadrature,
    basis_moments,
    build_element_bases,
    polygon_quadrature,
    scalar_dim,
)
from .material import ComplianceTensor
from .mesh import Mesh

__all__ = [
    "CHUNK_SIZE",
    "ElementBatch",
    "LocalBlocks",
    "ElementOperators",
    "CondensedBatch",
    "element_batch",
    "translation_shifts",
    "batch_blocks",
    "batch_moments",
    "condense_classes",
    "default_quadrature_exactness",
    "error_quadrature_exactness",
]

# Class representatives per batch of the local solve, and elements per
# batch of the element results (condense_classes) and of every later
# per-batch stage, which gathers the class operators of its elements.
# Bounds the memory of the stacked local systems on a mesh with few
# translates, and of those gathers; results do not depend on it.
CHUNK_SIZE = 128

# relative asymmetry of a condensed element matrix that _condense reports
ASYMMETRY_TOL = 1e-9


class LocalSolverError(SolverError):
    """Local element system could not be factorized."""


class AssemblyError(SolverError):
    """An assembled matrix violates a structural requirement."""


def default_quadrature_exactness(k: int) -> int:
    """Assembly quadrature exactness: covers every bilinear pairing of the
    degree-(k, k+1, k) spaces on straight-sided elements with margin."""
    return 2 * (k + 1) + 2


def error_quadrature_exactness(k: int) -> int:
    """Exactness of the rule for data and diagnostics: boundary data, error
    norms and the traction jump. Higher than assembly, so that smooth
    exact data are not under-integrated."""
    return 2 * (k + 1) + 6


@dataclass
class ElementBatch:
    """Geometry, quadrature and bases of elements that share a face count,
    stacked along a leading element axis (B elements, m faces each)."""

    mesh: Mesh
    k: int
    elements: np.ndarray  # (B,), ascending
    face_ids: np.ndarray  # (B, m), in edge order
    normals: np.ndarray  # (B, m, 2), outward unit normals
    basis: ElementBasis  # batched, degree k+1 (degree-k part nested)
    quad: Quadrature  # points (B, nq, 2), weights (B, nq)
    face_quad: FaceQuadrature  # points (B, m, nqf, 2), weights (B, m, nqf)
    face_modes: np.ndarray  # (B, m, nqf, k+1), face modes at face_quad

    @property
    def n_stress(self) -> int:
        return 3 * scalar_dim(self.k)

    @property
    def n_disp(self) -> int:
        return 2 * scalar_dim(self.k + 1)

    @property
    def n_trace(self) -> int:
        return self.face_ids.shape[1] * 2 * (self.k + 1)

    def tabulate(self) -> tuple[np.ndarray, np.ndarray]:
        """Basis values at the quadrature points, (B, nq, p_u), and the
        gradients of the degree-k part, (B, nq, p_s, 2), from one monomial
        table."""
        mono = self.basis.monomials(self.quad.points, grads=True)
        return self.basis.eval(mono), self.basis.grad(mono, scalar_dim(self.k))


def element_batch(
    mesh: Mesh,
    k: int,
    elements: np.ndarray,
    face_quad: FaceQuadrature,
    face_modes: np.ndarray,
) -> ElementBatch:
    """Stack the elements ``elements`` (same face count), with the assembly
    rule on each element. ``face_quad`` and ``face_modes`` hold every face
    of the mesh, (F, ...); the batch takes each element's faces from them in
    edge order."""
    elements = np.asarray(elements)
    polys = mesh.polygons(elements)
    quad = polygon_quadrature(polys, default_quadrature_exactness(k))
    face_ids = mesh.element_faces[mesh.slots(elements)]
    sign = np.where(mesh.face_left[face_ids] == elements[:, None], 1.0, -1.0)
    return ElementBatch(
        mesh=mesh,
        k=k,
        elements=elements,
        face_ids=face_ids,
        normals=mesh.face_normal[face_ids] * sign[..., None],
        basis=build_element_bases(polys, elements, k + 1, quad),
        quad=quad,
        face_quad=FaceQuadrature(
            face_quad.points[face_ids], face_quad.weights[face_ids], face_quad.params
        ),
        face_modes=face_modes[face_ids],
    )


def translation_shifts(mesh: Mesh, elements: np.ndarray, origins: np.ndarray) -> np.ndarray:
    """Shift of each element of ``elements`` from the element of ``origins``
    it translates: the difference of their first vertices, (B, 2)."""
    first = mesh.element_vertices[mesh.element_offsets[np.stack([elements, origins])]]
    return mesh.vertices[first[0]] - mesh.vertices[first[1]]


@dataclass
class LocalBlocks:
    """Element matrices of the saddle system of a batch. The per-element
    blocks carry a leading element axis; stress_mass and stab_lamlam are the
    same for every element.

    stress_mass     (A sigma, v)                 n_s x n_s, SPD
    div_coupling    (u, div v)                   n_s x n_u
    trace_coupling  <lam, v n>                   n_s x n_lam
    stab_uu         tau-weighted pairing of face-projected displacement
                    traces
    stab_ulam       tau-weighted pairing of trace unknowns with projected
                    displacement traces, n_u x n_lam
    stab_lamlam     tau <lam, mu> = tau I        n_lam x n_lam
    face_proj       per face: moments of the displacement trace against the
                    face modes, shape (m, 2(k+1), n_u)
    """

    elements: np.ndarray  # (B,)
    k: int
    tau: float
    stress_mass: np.ndarray
    div_coupling: np.ndarray
    trace_coupling: np.ndarray
    stab_uu: np.ndarray
    stab_ulam: np.ndarray
    stab_lamlam: np.ndarray
    face_proj: np.ndarray


@dataclass
class ElementOperators:
    """Eliminated local solution operators, with a leading element axis:
    stress_map / disp_map send trace coefficients to the eliminated stress
    and displacement coefficients; source_stress / source_disp are the
    responses to the body-force moments (zero without a body force), with
    one trailing column per moment column."""

    elements: np.ndarray  # (B,)
    stress_map: np.ndarray  # (B, n_s, n_lam)
    disp_map: np.ndarray  # (B, n_u, n_lam)
    source_stress: np.ndarray  # (B, n_s) or (B, n_s, c)
    source_disp: np.ndarray  # (B, n_u) or (B, n_u, c)


def batch_blocks(
    batch: ElementBatch,
    material: ComplianceTensor,
    tau: float,
    table: tuple[np.ndarray, np.ndarray] | None = None,
) -> LocalBlocks:
    """Quadrature-assemble the element matrices of every element of the
    batch, with a leading element axis. ``table`` is the batch's tabulation
    (ElementBatch.tabulate), computed here when None.

    The stabilization projects the displacement trace onto the face modes
    through exact face mass matrices before pairing.
    """
    if tau <= 0:
        raise ValueError(f"stabilization parameter must be positive, got {tau}")
    k = batch.k
    p_s, p_u = scalar_dim(k), scalar_dim(k + 1)
    n_s, n_u, n_lam = batch.n_stress, batch.n_disp, batch.n_trace
    nf_dof = 2 * (k + 1)
    B, m = batch.face_ids.shape
    basis = batch.basis

    # Stress mass: with an orthonormal scalar basis and constant material the
    # block is the 3x3 direction Gram matrix kron the identity.
    stress_mass = np.kron(material.compliance_direction_matrix(), np.eye(p_s))

    phi_u, grad_s = batch.tabulate() if table is None else table
    w_phi = batch.quad.weights[..., None] * phi_u
    gx = grad_s[..., 0].swapaxes(-1, -2) @ w_phi  # (B, p_s, p_u)
    gy = grad_s[..., 1].swapaxes(-1, -2) @ w_phi
    div_coupling = np.zeros((B, n_s, n_u))
    div_coupling[:, 0 * p_s : 1 * p_s, 0 * p_u : 1 * p_u] = gx
    div_coupling[:, 1 * p_s : 2 * p_s, 1 * p_u : 2 * p_u] = gy
    div_coupling[:, 2 * p_s : 3 * p_s, 0 * p_u : 1 * p_u] = gy
    div_coupling[:, 2 * p_s : 3 * p_s, 1 * p_u : 2 * p_u] = gx

    trace_coupling = np.zeros((B, n_s, n_lam))
    stab_uu = np.zeros((B, n_u, n_u))
    stab_ulam = np.zeros((B, n_u, n_lam))
    face_proj = np.zeros((B, m, nf_dof, n_u))

    for j in range(m):
        tr_full = basis.eval(batch.face_quad.points[:, j])  # (B, nq, p_u)
        w_mu = batch.face_quad.weights[:, j, :, None] * batch.face_modes[:, j]  # (B, nq, k+1)
        ms = tr_full[..., :p_s].swapaxes(-1, -2) @ w_mu  # (B, p_s, k+1)
        mu_u = tr_full.swapaxes(-1, -2) @ w_mu  # (B, p_u, k+1)

        # (E_c n) columns per direction: e11 -> (n0, 0), e22 -> (0, n1),
        # e12 -> (n1, n0); an exactly zero normal component leaves its
        # columns zero.
        n0 = batch.normals[:, j, 0, None, None]
        n1 = batch.normals[:, j, 1, None, None]
        for c, comp, nc in ((0, 0, n0), (1, 1, n1), (2, 0, n1), (2, 1, n0)):
            cols = slice(j * nf_dof + comp, (j + 1) * nf_dof, 2)
            trace_coupling[:, c * p_s : (c + 1) * p_s, cols] = np.where(nc != 0.0, nc * ms, 0.0)

        proj = np.zeros((B, nf_dof, n_u))
        for comp in range(2):
            proj[:, comp::2, comp * p_u : (comp + 1) * p_u] = mu_u.swapaxes(-1, -2)
        face_proj[:, j] = proj
        stab_uu += tau * proj.swapaxes(-1, -2) @ proj
        stab_ulam[:, :, j * nf_dof : (j + 1) * nf_dof] = tau * proj.swapaxes(-1, -2)

    return LocalBlocks(
        elements=batch.elements,
        k=k,
        tau=tau,
        stress_mass=stress_mass,
        div_coupling=div_coupling,
        trace_coupling=trace_coupling,
        stab_uu=stab_uu,
        stab_ulam=stab_ulam,
        stab_lamlam=tau * np.eye(n_lam),
        face_proj=face_proj,
    )


def _factor(blocks: LocalBlocks, f_moments: np.ndarray | None = None) -> ElementOperators:
    """Pivoted local solve: the symmetric indefinite saddle matrix over
    (stress, displacement) per element, its LU factorization, and the solves
    against the coupling of (stress, displacement) rows to the trace columns
    (the response to every trace basis vector) and against the body-force
    moments ``f_moments``, when given: (B, n_u), or (B, n_u, c) for c
    moment columns."""
    D = blocks.div_coupling
    B, n_s, n_u = D.shape
    n = n_s + n_u
    # each element's matrix is column-major, so that LAPACK factorizes it
    # in place: after the loop M holds the LU factors
    M = np.empty((B, n, n)).swapaxes(-1, -2)
    M[:, :n_s, :n_s] = -blocks.stress_mass
    M[:, :n_s, n_s:] = -D
    M[:, n_s:, :n_s] = -D.swapaxes(-1, -2)
    M[:, n_s:, n_s:] = blocks.stab_uu
    # the right-hand sides, column-major per element as well, are
    # overwritten by the solutions
    sol = np.empty((B, blocks.trace_coupling.shape[-1], n)).swapaxes(-1, -2)
    sol[:, :n_s] = -blocks.trace_coupling
    sol[:, n_s:] = blocks.stab_ulam
    piv = np.empty((B, n), dtype=np.int32)
    for i in range(B):
        _, piv[i], _ = lapack.dgetrf(M[i], overwrite_a=True)
        lapack.dgetrs(M[i], piv[i], sol[i], overwrite_b=True)
    singular = ~np.isfinite(M).all(axis=(-2, -1))
    singular |= np.abs(np.diagonal(M, axis1=-2, axis2=-1)).min(axis=-1) == 0.0
    if singular.any():
        e = blocks.elements[np.argmax(singular)]
        raise LocalSolverError(f"element {e}: singular local system")
    tail = () if f_moments is None else f_moments.shape[2:]
    src = np.zeros((B, int(np.prod(tail)), n)).swapaxes(-1, -2)
    if f_moments is not None:
        src[:, n_s:] = -f_moments.reshape(B, n_u, -1)
        for i in range(B):
            lapack.dgetrs(M[i], piv[i], src[i], overwrite_b=True)
    return ElementOperators(
        blocks.elements,
        sol[:, :n_s],
        sol[:, n_s:],
        src[:, :n_s].reshape((B, n_s) + tail),
        src[:, n_s:].reshape((B, n_u) + tail),
    )


def _condense(ops: ElementOperators, blocks: LocalBlocks) -> np.ndarray:
    """Element trace matrices, symmetric positive semidefinite with the
    rigid-motion traces as kernel, in the symmetric quadratic form; raises
    AssemblyError if a result is not symmetric to ASYMMETRY_TOL (relative)."""
    A = ops.stress_map.swapaxes(-1, -2) @ blocks.stress_mass @ ops.stress_map
    nf_dof = 2 * (blocks.k + 1)
    for j in range(blocks.face_proj.shape[1]):
        R = blocks.face_proj[:, j] @ ops.disp_map
        R[:, :, j * nf_dof : (j + 1) * nf_dof] -= np.eye(nf_dof)
        A += blocks.tau * R.swapaxes(-1, -2) @ R
    scale = np.maximum(np.abs(A).max(axis=(-2, -1)), 1e-300)
    asym = np.abs(A - A.swapaxes(-1, -2)).max(axis=(-2, -1)) / scale
    if np.any(asym > ASYMMETRY_TOL):
        i = int(np.argmax(asym > ASYMMETRY_TOL))
        raise AssemblyError(
            f"element {blocks.elements[i]}: condensed matrix asymmetry {asym[i]:.2e}"
        )
    return 0.5 * (A + A.swapaxes(-1, -2))


def _rhs(
    blocks: LocalBlocks, source_stress: np.ndarray, source_disp: np.ndarray, rows=slice(None)
) -> np.ndarray:
    """Element loads for the trace system: the negative traction moments of
    the source responses, so that the condensed equations express flux
    continuity of the full recovered solution. Element i takes the blocks
    of row ``rows[i]``."""
    return -(
        (blocks.trace_coupling[rows].swapaxes(-1, -2) @ source_stress[..., None])[..., 0]
        - (blocks.stab_ulam[rows].swapaxes(-1, -2) @ source_disp[..., None])[..., 0]
    )


def batch_moments(quad: Quadrature, phi: np.ndarray, f_fn, rows: np.ndarray,
                  shift: np.ndarray) -> np.ndarray:
    """Moments of a vector field against the displacement basis of
    translates, component-major: (B, n_u). Element i translates the element
    of row rows[i] of ``quad`` by shift[i] (B, 2): it takes that row's
    weights and its points shifted, and ``phi`` (B, nq, p_u) holds its basis
    values there."""
    pts = quad.points[rows] + shift[:, None]
    vals = np.asarray(f_fn(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape)
    return basis_moments(phi, quad.weights[rows], vals)


@dataclass
class CondensedBatch:
    """Element-stage results of a batch of elements of a chunk of
    translation classes. The condensed trace matrices and the local solution
    operators are the classes': computed once on the representatives
    ``reps``, leading axis the class, and shared by every batch of the
    chunk, not copied. Element i takes their row ``rows[i]``, and the
    geometry of that representative shifted by ``shift[i]``. Its trace load
    and its body-force responses are its own, leading axis the element."""

    elements: np.ndarray  # (B,), ascending
    face_ids: np.ndarray  # (B, m), in edge order
    shift: np.ndarray  # (B, 2), from the representative (translation_shifts)
    reps: ElementBatch  # the chunk's class representatives, R of them
    rows: np.ndarray  # (B,), class row of each element
    matrix: np.ndarray  # (R, n_lam, n_lam)
    stress_map: np.ndarray  # (R, n_s, n_lam)
    disp_map: np.ndarray  # (R, n_u, n_lam)
    rhs: np.ndarray  # (B, n_lam)
    source_stress: np.ndarray  # (B, n_s)
    source_disp: np.ndarray  # (B, n_u)

    def basis(self) -> ElementBasis:
        """The elements' bases: each its representative's coefficients and
        scale, with the center shifted."""
        rb = self.reps.basis
        return ElementBasis(rb.degree, rb.center[self.rows] + self.shift,
                            rb.scale[self.rows], rb.coeff[self.rows])


def condense_classes(
    reps: ElementBatch,
    material: ComplianceTensor,
    tau: float,
    f_fn,
    targets: list[tuple[np.ndarray, np.ndarray]],
) -> list[CondensedBatch]:
    """Assemble, eliminate and condense the representatives ``reps`` of
    some translation classes once: one CondensedBatch per (rows, elements)
    of ``targets``, whose element i is a translate of the element in row
    rows[i] of ``reps``; with ``[(np.arange(B), reps.elements)]``, every
    element of ``reps`` is its own class.

    Each element takes its representative's condensed matrix and solution
    operators, by row. Its body-force response is its own: its moments of
    ``f_fn`` (when given) at its quadrature points, the representative's
    shifted, against the representative's basis values there, times the
    representative's responses to unit moments (the solves for
    f_moments = I, n_u columns). The loads follow from the responses as in
    _rhs."""
    # One monomial table serves the blocks and the moments. It is made
    # here rather than kept from the basis construction, and released
    # before the local solve allocates the arrays the batch keeps: a
    # table held across those allocations fragments the heap, and the
    # direct solve that follows then peaks higher. f_fn is evaluated
    # before the local solve, so that a failing body force is reported
    # as such.
    mesh = reps.mesh
    shifts = [translation_shifts(mesh, elements, reps.elements[rows]) for rows, elements in targets]
    table = reps.tabulate()
    blocks = batch_blocks(reps, material, tau, table)
    moments = [None if f_fn is None else batch_moments(reps.quad, table[0][rows], f_fn, rows, shift)
               for (rows, _), shift in zip(targets, shifts)]
    del table
    n_s, n_u = reps.n_stress, reps.n_disp
    unit = None if f_fn is None else np.broadcast_to(np.eye(n_u), (len(reps.elements), n_u, n_u))
    ops = _factor(blocks, unit)
    matrix = _condense(ops, blocks)
    out = []
    for (rows, elements), shift, f in zip(targets, shifts, moments):
        if f is None:
            qs, us = np.zeros((len(rows), n_s)), np.zeros((len(rows), n_u))
        else:
            qs = (ops.source_stress[rows] @ f[..., None])[..., 0]
            us = (ops.source_disp[rows] @ f[..., None])[..., 0]
        face_ids = mesh.element_faces[mesh.slots(elements)]
        out.append(CondensedBatch(elements, face_ids, shift, reps, rows, matrix, ops.stress_map,
                                  ops.disp_map, _rhs(blocks, qs, us, rows), qs, us))
    return out

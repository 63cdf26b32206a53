"""Element and face polynomial bases, quadrature, and the trace dof map.

Scalar element bases are built from monomials scaled to the element bounding
box, then orthonormalized against the element mass matrix. This works on
arbitrary convex polygons, where no reference-element map exists, and keeps
the Gram matrix close to the identity even on stretched trapezoids. The
orthonormalization is graded: the leading (m+1)(m+2)/2 functions of a
degree-m basis span exactly the polynomials of total degree <= m, so a
degree-(k+1) basis also provides the nested degree-k basis.

Polygon quadrature triangulates the element as a fan around the centroid and
applies a collapsed tensor-product Gauss rule on each triangle. Collapsed
rules are exact at any requested degree and have strictly positive weights
(classical compact symmetric tables lose positivity at several degrees).

Face bases are scaled Legendre polynomials in the arc-length parameter, so
they are exactly orthonormal, and they belong to the face rather than to an
element: both neighbours of an interior face see the same trace functions.

Basis values and gradients are products of coefficient rows with one
monomial table per point set (``ElementBasis.monomials``): power tables by
successive products, each monomial written once into a C-contiguous
(..., npts, N) array. The table is handed to ``eval``/``grad`` wherever
several coefficient slices, or values and gradients, are needed at the
same points; it is never stored on the basis.

Quadrature, bases and face modes are computed for stacks of elements or
faces (leading batch axis): ``polygon_quadrature``, ``build_element_bases``,
``face_quadratures`` and ``face_modes``; a single element or face is a
one-element stack. Stacked products keep the per-element association order
and memory layout, so an element's values do not depend on the stack it is
computed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .errors import ConfigError, SolverError
from .mesh import Mesh, polygon_centroids

__all__ = [
    "Quadrature",
    "FaceQuadrature",
    "ElementBasis",
    "Monomials",
    "StressBasis",
    "TraceDofMap",
    "triangle_rule",
    "segment_rule",
    "polygon_quadrature",
    "face_quadratures",
    "build_element_bases",
    "basis_moments",
    "face_modes",
    "trace_moments",
    "build_trace_dof_map",
    "scalar_dim",
]

MAX_EXACTNESS = 50


class QuadratureDegreeError(ConfigError):
    """Requested polynomial exactness beyond the supported range."""


class ElementConditioningError(SolverError):
    """Element geometry too degenerate to orthonormalize a basis on."""


def scalar_dim(degree: int) -> int:
    """Dimension of the scalar polynomials of total degree <= degree in 2D."""
    return (degree + 1) * (degree + 2) // 2


@dataclass(frozen=True)
class Quadrature:
    """Quadrature rule in physical coordinates; weights carry the measure."""

    points: np.ndarray  # (B, nq, 2)
    weights: np.ndarray  # (B, nq)


@dataclass(frozen=True)
class FaceQuadrature:
    """Quadrature on straight faces, with arc-length parameters in [0, 1]."""

    points: np.ndarray  # (F, nq, 2)
    weights: np.ndarray  # (F, nq), sums to the face length
    params: np.ndarray  # (nq,), position along the face from v0 to v1


@lru_cache(maxsize=None)
def _gauss_legendre_01(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def triangle_rule(exactness: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule on the reference triangle (0,0)-(1,0)-(0,1), exact for the
    given total degree, with positive weights.

    Built by collapsing a tensor Gauss rule: x = u, y = v(1-u) with
    Jacobian (1-u). A degree-d monomial x^a y^b becomes a polynomial of
    degree a+b+1 in u and b in v, which fixes the 1D point counts.
    """
    if exactness < 0 or exactness > MAX_EXACTNESS:
        raise QuadratureDegreeError(
            f"exactness {exactness} out of range (max supported {MAX_EXACTNESS})"
        )
    d = max(exactness, 0)
    u, wu = _gauss_legendre_01((d + 3) // 2)
    v, wv = _gauss_legendre_01((d + 2) // 2)
    U, V = np.meshgrid(u, v, indexing="ij")
    W = np.outer(wu, wv) * (1.0 - U)
    pts = np.column_stack([U.ravel(), (V * (1.0 - U)).ravel()])
    return pts, W.ravel()


@lru_cache(maxsize=None)
def segment_rule(exactness: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule on [0, 1] exact for the given 1D polynomial degree."""
    if exactness < 0 or exactness > MAX_EXACTNESS:
        raise QuadratureDegreeError(
            f"exactness {exactness} out of range (max supported {MAX_EXACTNESS})"
        )
    return _gauss_legendre_01(exactness // 2 + 1)


def polygon_quadrature(polys: np.ndarray, exactness: int) -> Quadrature:
    """Quadrature on a stack of convex polygons with a common vertex count,
    ``polys`` of shape (B, m, 2); points (B, nq, 2), weights (B, nq).

    Triangles map the reference rule directly; other polygons are
    fan-triangulated around their centroid, one reference rule per fan
    triangle in vertex order."""
    ref_pts, ref_w = triangle_rule(exactness)
    if polys.shape[-2] == 3:
        tris = polys[:, None]
    else:
        c = np.broadcast_to(polygon_centroids(polys)[:, None], polys.shape)
        tris = np.stack([c, polys, np.roll(polys, -1, axis=1)], axis=2)
    v0 = tris[..., 0, :]
    jac = np.stack([tris[..., 1, :] - v0, tris[..., 2, :] - v0], axis=-1)
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    pts = ref_pts @ jac.swapaxes(-1, -2) + v0[..., None, :]
    wts = ref_w * det[..., None]
    return Quadrature(pts.reshape(len(polys), -1, 2), wts.reshape(len(polys), -1))


def face_quadratures(mesh: Mesh, face_ids, exactness: int) -> FaceQuadrature:
    """Gauss quadrature on a stack of faces, exact for 1D degree
    ``exactness``: points (F, nq, 2), weights (F, nq), shared params."""
    t, w = segment_rule(exactness)
    face_ids = np.asarray(face_ids)
    ends = mesh.vertices[mesh.face_vertices[face_ids]]  # (F, 2, 2)
    p0, p1 = ends[:, 0], ends[:, 1]
    pts = p0[:, None, :] + t[None, :, None] * (p1 - p0)[:, None, :]
    return FaceQuadrature(pts, w * mesh.face_length[face_ids][:, None], t)


class Monomials(NamedTuple):
    """Bounding-box scaled monomials of a basis at one point set, in graded
    order: values (..., npts, N) and, when tabulated with gradients, their
    x and y derivatives in the scaled coordinates."""

    values: np.ndarray
    dx: np.ndarray | None = None
    dy: np.ndarray | None = None


class ElementBasis:
    """Orthonormal scalar polynomial bases on a stack of elements.

    Functions are linear combinations of bounding-box scaled monomials in
    graded order; the first function is the constant 1/sqrt(area). The
    combination matrix is lower triangular, so truncating to the leading
    scalar_dim(m) functions yields an orthonormal basis of degree m.

    ``center``, ``scale`` and ``coeff`` carry a leading batch axis, and so
    do the points passed to ``eval`` and ``grad``, (B, npts, 2).
    """

    def __init__(self, degree: int, center, scale, coeff: np.ndarray):
        self.degree = degree
        self.center = np.asarray(center, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        self.coeff = coeff  # (..., N, N), rows = basis functions over monomials

    @property
    def dim(self) -> int:
        return self.coeff.shape[-1]

    def monomials(self, pts: np.ndarray, grads: bool = False) -> Monomials:
        """The monomial table at points (..., npts, 2), with derivatives when
        ``grads``. ``eval`` and ``grad`` accept it in place of the points, so
        that several coefficient slices share one table."""
        pts = np.atleast_2d(pts)
        X = (pts[..., 0] - self.center[..., 0, None]) / self.scale[..., 0, None]
        Y = (pts[..., 1] - self.center[..., 1, None]) / self.scale[..., 1, None]
        return _monomials(X, Y, self.degree, grads)

    def _rows(self, nfun: int | None) -> np.ndarray:
        return self.coeff if nfun is None else self.coeff[..., :nfun, :]

    def eval(self, pts, nfun: int | None = None) -> np.ndarray:
        """Values of the leading ``nfun`` functions (all by default) at points
        or on a Monomials table, shape (..., npts, nfun)."""
        mono = pts if isinstance(pts, Monomials) else self.monomials(pts)
        return mono.values @ self._rows(nfun).swapaxes(-1, -2)

    def grad(self, pts, nfun: int | None = None) -> np.ndarray:
        """Gradients of the leading ``nfun`` functions at points or on a
        Monomials table with derivatives, shape (..., npts, nfun, 2)."""
        mono = pts if isinstance(pts, Monomials) else self.monomials(pts, grads=True)
        CT = self._rows(nfun).swapaxes(-1, -2)
        out = np.empty(mono.dx.shape[:-1] + (CT.shape[-1], 2))
        out[..., 0] = (mono.dx @ CT) / self.scale[..., 0, None, None]
        out[..., 1] = (mono.dy @ CT) / self.scale[..., 1, None, None]
        return out


@lru_cache(maxsize=None)
def _graded_exponents(degree: int) -> tuple[tuple[int, int], ...]:
    return tuple((d - b, b) for d in range(degree + 1) for b in range(d + 1))


def _power_table(x: np.ndarray, degree: int) -> np.ndarray:
    """x**0 .. x**degree along a leading axis, as successive products
    P[j] = P[j-1] * x (the arithmetic of ``np.vander(x, degree + 1,
    increasing=True)``)."""
    P = np.empty((degree + 1,) + x.shape)
    P[0] = 1.0
    for j in range(1, degree + 1):
        np.multiply(P[j - 1], x, out=P[j])
    return P


def _monomials(X: np.ndarray, Y: np.ndarray, degree: int, grads: bool = False) -> Monomials:
    """Graded monomials x^a y^b of total degree <= ``degree`` at scaled
    coordinates X, Y (..., npts), written column by column into C-contiguous
    (..., npts, N) tables. A derivative is (a * x^(a-1)) * y^b, in that
    order; derivatives of degree-0 factors are exactly zero."""
    Xp, Yp = _power_table(X, degree), _power_table(Y, degree)
    exponents = _graded_exponents(degree)
    shape = X.shape + (len(exponents),)
    V = np.empty(shape)
    for f, (a, b) in enumerate(exponents):
        np.multiply(Xp[a], Yp[b], out=V[..., f])
    if not grads:
        return Monomials(V)
    dx, dy = np.zeros(shape), np.zeros(shape)
    for f, (a, b) in enumerate(exponents):
        if a > 0:
            np.multiply(a * Xp[a - 1], Yp[b], out=dx[..., f])
        if b > 0:
            np.multiply(b * Xp[a], Yp[b - 1], out=dy[..., f])
    return Monomials(V, dx, dy)


def build_element_bases(
    polys: np.ndarray, elements: np.ndarray, degree: int, quad: Quadrature
) -> ElementBasis:
    """Batched basis on polygons (B, m, 2), orthonormalized against the
    element mass matrices of ``quad``; ``elements`` holds the polygons'
    element ids, which the error messages name.

    A Cholesky factorization of the monomial Gram matrix plays the role of
    modified Gram-Schmidt in the L2(K) inner product; a second pass removes
    the O(eps * cond) residue of the first."""
    lo, hi = polys.min(axis=-2), polys.max(axis=-2)
    center, scale = 0.5 * (lo + hi), 0.5 * (hi - lo)
    degenerate = scale.min(axis=-1) <= 1e-14 * np.maximum(scale.max(axis=-1), 1e-300)
    if degenerate.any():
        i = int(np.argmax(degenerate))
        raise ElementConditioningError(
            f"element {elements[i]}: degenerate bounding box {scale[i]}"
        )
    basis = ElementBasis(degree, center, scale, np.eye(scalar_dim(degree)))
    mono = basis.monomials(quad.points)
    for _ in range(2):
        W = basis.eval(mono)
        gram = W.swapaxes(-1, -2) @ (quad.weights[..., None] * W)
        try:
            L = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            i = _first_failure(gram)
            raise ElementConditioningError(
                f"element {elements[i]}: mass matrix not positive definite at degree {degree}"
            ) from None
        basis.coeff = _solve_lower(L, basis.coeff)
    return basis


def _first_failure(gram: np.ndarray) -> int:
    for i, g in enumerate(gram):
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            return i
    return 0


def _solve_lower(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L X = rhs for each lower-triangular L[i], with the LAPACK call
    ``scipy.linalg.solve_triangular`` makes for a C-ordered L. The solution
    overwrites a copy of ``rhs`` laid out column-major per element, so
    LAPACK solves in place and the result slices are Fortran-ordered."""
    out = np.empty(L.shape).swapaxes(-1, -2)
    out[:] = rhs
    for i, Li in enumerate(L):
        _, info = lapack.dtrtrs(Li.T, out[i], lower=0, trans=1, overwrite_b=True)
        if info != 0:
            raise ElementConditioningError(f"triangular solve failed (info {info})")
    return out


def basis_moments(phi: np.ndarray, weights: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Moments of (..., nq, c) values against (..., nq, nfun) basis values
    under the given weights, flattened component-major: (..., c * nfun).
    With an orthonormal basis these are L2 projection coefficients."""
    mom = phi.swapaxes(-1, -2) @ (weights[..., None] * vals)  # (..., nfun, c)
    return mom.swapaxes(-1, -2).reshape(mom.shape[:-2] + (-1,))


class StressBasis:
    """Symmetric-matrix-valued basis: 3 constant symmetric directions
    (e11, e22, symmetric e12) times a scalar basis of degree k.

    Coefficient layout is direction-major: entry c * dim_scalar + i pairs
    direction c with scalar function i.
    """

    DIRECTIONS = np.array(
        [
            [[1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 1.0]],
            [[0.0, 1.0], [1.0, 0.0]],
        ]
    )
    # Frobenius norms squared of the directions; the Gram matrix of the
    # stress basis is diag(1, 1, 2) kron identity.
    DIR_NORMSQ = np.array([1.0, 1.0, 2.0])

    def __init__(self, scalar: ElementBasis, degree: int):
        if degree > scalar.degree:
            raise ValueError("scalar basis degree too low for requested stress degree")
        self.scalar = scalar
        self.degree = degree
        self.nscalar = scalar_dim(degree)

    @property
    def dim(self) -> int:
        return 3 * self.nscalar

    def eval_field(self, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Evaluate the stress field with coefficients (..., dim) at points
        (..., npts, 2) on the scalar basis' elements, (..., npts, 2, 2)."""
        phi = self.scalar.eval(pts, self.nscalar)
        comp = phi @ coeffs.reshape(coeffs.shape[:-1] + (3, self.nscalar)).swapaxes(-1, -2)
        return np.einsum("...c,cij->...ij", comp, self.DIRECTIONS)


def face_modes(t: np.ndarray, degree: int, length) -> np.ndarray:
    """Orthonormal face modes of the given degree at arc parameters t on
    faces of the given length(s): (..., npts, degree + 1) for lengths of
    shape (...)."""
    t = np.atleast_1d(t)
    x = 2.0 * t - 1.0
    length = np.asarray(length, dtype=float)[..., None]
    out = np.empty(length.shape[:-1] + (len(t), degree + 1))
    for j in range(degree + 1):
        c = np.zeros(j + 1)
        c[j] = 1.0
        out[..., j] = np.polynomial.legendre.legval(x, c) * np.sqrt((2 * j + 1) / length)
    return out


def trace_moments(modes: np.ndarray, weights: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Moments of (..., npts, 2) values against (..., npts, nmodes) face
    modes under the given weights, flattened mode-major: (..., 2 nmodes)."""
    moments = modes.swapaxes(-1, -2) @ (weights[..., None] * vals)  # (..., nmodes, 2)
    return moments.reshape(moments.shape[:-2] + (-1,))


@dataclass
class TraceDofMap:
    """Global numbering of the trace unknowns.

    Face f owns the ndof_face = 2(k+1) consecutive dofs from f * ndof_face
    (mode-major, component-minor).
    Interior dofs additionally carry a condensed-system index; boundary
    dofs map to -1 there and hold prescribed data instead.
    """

    ndof_face: int
    total: int
    interior_index: np.ndarray  # (total,), -1 on boundary faces
    n_interior: int


def build_trace_dof_map(mesh: Mesh, k: int) -> TraceDofMap:
    """Number the trace dofs face by face; interior condensed indices follow
    the same deterministic face order."""
    ndof_face = 2 * (k + 1)
    interior = mesh.face_right >= 0
    # position of each interior face among the interior faces
    rank = np.cumsum(interior) - 1
    interior_index = np.where(
        interior[:, None], rank[:, None] * ndof_face + np.arange(ndof_face), -1
    ).ravel()
    return TraceDofMap(
        ndof_face=ndof_face,
        total=mesh.num_faces * ndof_face,
        interior_index=interior_index,
        n_interior=int(interior.sum()) * ndof_face,
    )

"""Reference implementations that only the tests use.

Each one states a definition directly (a polynomial field and its
derivatives, a stress field on a basis, the compliance and stiffness laws
as maps on 2x2 matrices, a sparse LU of a whole matrix), so that the tests
can check the program's faster, specialised forms of them.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from numpy.polynomial import polynomial as npoly

from hdgelast.fespace import StressBasis
from hdgelast.manufactured import ExactSolution
from hdgelast.material import ComplianceTensor


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

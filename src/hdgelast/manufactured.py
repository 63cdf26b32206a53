"""Manufactured exact solutions with analytic derivatives.

Each solution carries vectorized evaluators for the displacement, its
gradient and its Hessian, so the induced body force f = div(sigma) with
sigma = C eps(u) can be assembled analytically instead of by numerical
differentiation inside quadrature loops.

Conventions: points are (n, 2) arrays; grad(pts)[p, i, j] = d_j u_i and
hess(pts)[p, i, a, b] = d_a d_b u_i. The divergence of a matrix field is
taken row-wise, (div sigma)_i = sum_j d_j sigma_ij.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .material import ComplianceTensor

__all__ = [
    "ExactSolution",
    "test1_solution",
    "test2_solution",
    "rigid_motion_solution",
    "polynomial_solution",
    "solution_by_name",
    "strain",
    "stress",
    "body_force",
    "boundary_data",
]


@dataclass(frozen=True)
class ExactSolution:
    name: str
    u: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


def test1_solution() -> ExactSolution:
    """Smooth trigonometric displacement vanishing on the whole boundary:
    u1 = 10 sin(pi x)(1-x) * (y - y^2)(1 - y/2), u2 = 0."""

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


def test2_solution() -> ExactSolution:
    """Divergence-free polynomial displacement vanishing on the boundary:
    u1 = -x^2(x-1)^2 y(y-1)(2y-1), u2 = y^2(y-1)^2 x(x-1)(2x-1)."""

    def split(pts):
        pts = np.atleast_2d(pts)
        return pts[:, 0], pts[:, 1]

    def s(t):
        return t**2 * (t - 1.0) ** 2

    def ds(t):
        return 2.0 * t * (t - 1.0) * (2.0 * t - 1.0)

    def dds(t):
        return 12.0 * t**2 - 12.0 * t + 2.0

    def r(t):
        return t * (t - 1.0) * (2.0 * t - 1.0)

    def dr(t):
        return 6.0 * t**2 - 6.0 * t + 1.0

    def ddr(t):
        return 12.0 * t - 6.0

    def u(pts):
        x, y = split(pts)
        return np.stack([-s(x) * r(y), s(y) * r(x)], axis=1)

    def grad(pts):
        x, y = split(pts)
        out = np.empty((len(x), 2, 2))
        out[:, 0, 0] = -ds(x) * r(y)
        out[:, 0, 1] = -s(x) * dr(y)
        out[:, 1, 0] = s(y) * dr(x)
        out[:, 1, 1] = ds(y) * r(x)
        return out

    def hess(pts):
        x, y = split(pts)
        out = np.empty((len(x), 2, 2, 2))
        out[:, 0, 0, 0] = -dds(x) * r(y)
        out[:, 0, 0, 1] = out[:, 0, 1, 0] = -ds(x) * dr(y)
        out[:, 0, 1, 1] = -s(x) * ddr(y)
        out[:, 1, 0, 0] = s(y) * ddr(x)
        out[:, 1, 0, 1] = out[:, 1, 1, 0] = ds(y) * dr(x)
        out[:, 1, 1, 1] = dds(y) * r(x)
        return out

    return ExactSolution("test2", u, grad, hess)


def rigid_motion_solution(omega: float = 0.7, shift=(0.3, -0.2)) -> ExactSolution:
    """Rotation + translation, u = (b0 - omega*y, b1 + omega*x): zero strain,
    zero stress, zero body force."""
    b0, b1 = shift

    def u(pts):
        pts = np.atleast_2d(pts)
        return np.stack([b0 - omega * pts[:, 1], b1 + omega * pts[:, 0]], axis=1)

    def grad(pts):
        pts = np.atleast_2d(pts)
        g = np.zeros((len(pts), 2, 2))
        g[:, 0, 1] = -omega
        g[:, 1, 0] = omega
        return g

    def hess(pts):
        pts = np.atleast_2d(pts)
        return np.zeros((len(pts), 2, 2, 2))

    return ExactSolution(f"rigid(omega={omega})", u, grad, hess)


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


def solution_by_name(name: str) -> ExactSolution:
    if name == "test1":
        return test1_solution()
    if name == "test2":
        return test2_solution()
    if name == "rigid":
        return rigid_motion_solution()
    raise ValueError(f"unknown solution {name!r} (expected 'test1', 'test2' or 'rigid')")


def strain(sol: ExactSolution, pts: np.ndarray) -> np.ndarray:
    g = sol.grad(np.atleast_2d(pts))
    return 0.5 * (g + np.swapaxes(g, 1, 2))


def stress(sol: ExactSolution, material: ComplianceTensor, pts: np.ndarray) -> np.ndarray:
    return material.apply_stiffness(strain(sol, pts))


def body_force(sol: ExactSolution, material: ComplianceTensor, pts: np.ndarray) -> np.ndarray:
    """div(sigma) assembled from the analytic Hessian.

    For sigma = a' eps + b' tr(eps) I with constant coefficients,
    (div sigma)_i = (a'/2) (lap u)_i + (a'/2 + b') d_i(div u)."""
    ap, bp = material.stiffness_coefficients()
    H = sol.hess(np.atleast_2d(pts))
    lap = H[:, :, 0, 0] + H[:, :, 1, 1]
    grad_div = H[:, 0, 0, :] + H[:, 1, 1, :]
    return 0.5 * ap * lap + (0.5 * ap + bp) * grad_div


def boundary_data(sol: ExactSolution, pts: np.ndarray) -> np.ndarray:
    """Prescribed displacement on the boundary (the exact trace)."""
    return sol.u(np.atleast_2d(pts))

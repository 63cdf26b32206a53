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

from .material import ComplianceTensor

__all__ = [
    "ExactSolution",
    "test1_solution",
    "test2_solution",
    "rigid_motion_solution",
    "solution_by_name",
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
    u1 = 10 sin(pi x)(1-x) * (y - y^2)(1 - y/2), u2 = 0.

    Each call of u, grad or hess computes each factor it needs once:
    sin(pi x), cos(pi x), 1 - x and the y-polynomials q, q', q''."""

    def split(pts):
        pts = np.atleast_2d(pts)
        x = pts[:, 0]
        return np.pi * x, 1.0 - x, pts[:, 1]

    def q(y):
        return y - 1.5 * y**2 + 0.5 * y**3

    def dq(y):
        return 1.0 - 3.0 * y + 1.5 * y**2

    def u(pts):
        px, omx, y = split(pts)
        out = np.zeros((len(y), 2))
        out[:, 0] = 10.0 * np.sin(px) * omx * q(y)
        return out

    def grad(pts):
        px, omx, y = split(pts)
        sin, cos = np.sin(px), np.cos(px)
        out = np.zeros((len(y), 2, 2))
        out[:, 0, 0] = 10.0 * (np.pi * cos * omx - sin) * q(y)
        out[:, 0, 1] = 10.0 * sin * omx * dq(y)
        return out

    def hess(pts):
        px, omx, y = split(pts)
        sin, cos = np.sin(px), np.cos(px)
        out = np.zeros((len(y), 2, 2, 2))
        out[:, 0, 0, 0] = 10.0 * (-np.pi**2 * sin * omx - 2.0 * np.pi * cos) * q(y)
        out[:, 0, 0, 1] = out[:, 0, 1, 0] = 10.0 * (np.pi * cos * omx - sin) * dq(y)
        out[:, 0, 1, 1] = 10.0 * sin * omx * (-3.0 + 3.0 * y)
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


def solution_by_name(name: str) -> ExactSolution:
    if name == "test1":
        return test1_solution()
    if name == "test2":
        return test2_solution()
    if name == "rigid":
        return rigid_motion_solution()
    raise ValueError(f"unknown solution {name!r} (expected 'test1', 'test2' or 'rigid')")


def stress(sol: ExactSolution, material: ComplianceTensor, pts: np.ndarray) -> np.ndarray:
    """C eps(u), (n, 2, 2), written component by component:
    sigma = a' eps + b' tr(eps) I (ComplianceTensor.stiffness_coefficients)."""
    ap, bp = material.stiffness_coefficients()
    g = sol.grad(np.atleast_2d(pts))
    btr = bp * (g[:, 0, 0] + g[:, 1, 1])
    out = np.empty_like(g)
    out[:, 0, 0] = ap * g[:, 0, 0] + btr
    out[:, 1, 1] = ap * g[:, 1, 1] + btr
    out[:, 0, 1] = out[:, 1, 0] = ap * (0.5 * (g[:, 0, 1] + g[:, 1, 0]))
    return out


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

"""Isotropic 2D material laws: compliance (stress -> strain) and stiffness.

Two parameterizations are supported and both reduce to the affine form
A tau = a * tau + b * tr(tau) * I:

- plane stress:        a = (1+nu)/E,  b = -nu/E
- plane strain:        a = (1+nu)/E,  b = -(1+nu)*nu/E

The deviatoric/trace split A tau = p_d dev(tau) + p_t (tr(tau)/2) I, with
dev(tau) = tau - (tr(tau)/2) I, is plane stress with E = 2/(p_d + p_t) and
nu = (p_d - p_t)/(p_d + p_t). Plane strain has p_d = (1+nu)/E and
p_t = (1+nu)(1-2*nu)/E, so p_t -> 0 in the incompressible limit.

The stiffness is the closed-form inverse, C eps = a' eps + b' tr(eps) I with
a' = 1/a and b' = -b / (a * (a + 2b)); it is singular exactly when
a + 2b = 0 (plane strain at nu = 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = ["ComplianceTensor", "SingularMaterialError"]


class SingularMaterialError(ConfigError):
    """The material law is not invertible for the given parameters."""


@dataclass(frozen=True)
class ComplianceTensor:
    """Constant isotropic compliance acting on symmetric 2x2 matrices."""

    mode: str
    a: float
    b: float
    params: dict = field(default_factory=dict, compare=False)

    @classmethod
    def plane_stress(cls, E: float, nu: float) -> "ComplianceTensor":
        if E <= 0:
            raise ValueError(f"Young's modulus must be positive, got {E}")
        if not -1.0 < nu < 1.0:
            raise ValueError(f"plane stress requires -1 < nu < 1, got {nu}")
        return cls("plane_stress", (1 + nu) / E, -nu / E, {"E": E, "nu": nu})

    @classmethod
    def plane_strain(cls, E: float, nu: float) -> "ComplianceTensor":
        # nu = 0.5 is admitted: the compliance exists there, only its inverse
        # does not (stiffness_coefficients raises for it).
        if E <= 0:
            raise ValueError(f"Young's modulus must be positive, got {E}")
        if not -1.0 < nu <= 0.5:
            raise ValueError(f"plane strain requires -1 < nu <= 0.5, got {nu}")
        return cls("plane_strain", (1 + nu) / E, -(1 + nu) * nu / E, {"E": E, "nu": nu})

    # --- derived constants -------------------------------------------------

    @property
    def trace_coefficient(self) -> float:
        """Action on pure trace: A(I) = trace_coefficient * I (equals p_t)."""
        return self.a + 2.0 * self.b

    def stiffness_coefficients(self) -> tuple[float, float]:
        """(a', b') with C eps = a' eps + b' tr(eps) I."""
        denom = self.a * self.trace_coefficient
        if denom == 0.0 or not np.isfinite(denom):
            raise SingularMaterialError(
                f"{self.mode} compliance with parameters {self.params} is singular"
            )
        return 1.0 / self.a, -self.b / denom

    # --- action on symmetric matrices --------------------------------------

    def apply_compliance(self, tau: np.ndarray) -> np.ndarray:
        """A tau for one or a batch of symmetric 2x2 matrices."""
        tau = np.asarray(tau, dtype=float)
        tr = tau[..., 0, 0] + tau[..., 1, 1]
        return self.a * tau + self.b * tr[..., None, None] * np.eye(2)

    def apply_stiffness(self, eps: np.ndarray) -> np.ndarray:
        """C eps = A^{-1} eps for one or a batch of symmetric 2x2 matrices."""
        ap, bp = self.stiffness_coefficients()
        eps = np.asarray(eps, dtype=float)
        tr = eps[..., 0, 0] + eps[..., 1, 1]
        return ap * eps + bp * tr[..., None, None] * np.eye(2)

    def compliance_direction_matrix(self) -> np.ndarray:
        """Gram matrix of the three symmetric directions under (A ., .).

        Entry (c, d) is the Frobenius pairing of A applied to direction d
        with direction c, for the stress-basis directions e11, e22 and the
        symmetric off-diagonal pair. Symmetric positive definite whenever
        the compliance is."""
        a, b = self.a, self.b
        return np.array(
            [
                [a + b, b, 0.0],
                [b, a + b, 0.0],
                [0.0, 0.0, 2.0 * a],
            ]
        )

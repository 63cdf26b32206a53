"""Hybridizable DG solver for 2D linear elasticity with symmetric stress.

Stress is approximated with symmetric matrix polynomials of degree k,
displacement with degree k+1, and the globally coupled unknown is the
displacement trace of degree k on mesh faces. Element unknowns are
eliminated locally, leaving a symmetric positive definite trace system.
Works on triangular and general convex polygonal meshes.
"""

from .material import ComplianceTensor
from .mesh import build_unit_square_poly, build_unit_square_tri

__all__ = [
    "ComplianceTensor",
    "build_unit_square_tri",
    "build_unit_square_poly",
]

__version__ = "0.1.0"

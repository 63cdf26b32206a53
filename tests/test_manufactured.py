import numpy as np
import pytest

from hdgelast import manufactured as MF
from hdgelast.material import ComplianceTensor

from oracles import apply_compliance, apply_stiffness, closed_form_test1, polynomial_solution, strain

MATERIALS = [
    ComplianceTensor.plane_stress(1.0, 0.3),
    ComplianceTensor.plane_strain(3.0, 0.49),
    ComplianceTensor.plane_strain(3.0, 0.4999),
    ComplianceTensor.plane_strain(3.0, 0.49999),
]

SOLUTIONS = [MF.test1_solution(), MF.test2_solution()]


def interior_points(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.02, 0.98, size=(n, 2))


@pytest.mark.parametrize("sol", SOLUTIONS, ids=lambda s: s.name)
def test_gradient_matches_finite_differences(sol):
    pts = interior_points(40)
    h = 1e-6
    g = sol.grad(pts)
    for j, e in enumerate(np.eye(2)):
        fd = (sol.u(pts + h * e) - sol.u(pts - h * e)) / (2 * h)
        assert np.abs(g[:, :, j] - fd).max() < 1e-7


@pytest.mark.parametrize("sol", SOLUTIONS, ids=lambda s: s.name)
def test_hessian_matches_finite_differences(sol):
    pts = interior_points(40, seed=1)
    h = 1e-6
    H = sol.hess(pts)
    for b, e in enumerate(np.eye(2)):
        fd = (sol.grad(pts + h * e) - sol.grad(pts - h * e)) / (2 * h)
        assert np.abs(H[:, :, :, b] - np.swapaxes(fd, 1, 2).swapaxes(1, 2)).max() < 1e-6


def test_test1_midpoint_value():
    # 10 * sin(pi/2) * (1 - 1/2) * (1/2 - 1/4) * (1 - 1/4) = 0.9375
    u = MF.test1_solution().u(np.array([[0.5, 0.5]]))[0]
    assert u[0] == pytest.approx(0.9375, abs=1e-15)
    assert u[1] == 0.0


def test_test1_bitwise_against_factor_by_factor_closed_forms():
    # u, grad and hess compute each factor once per call, with the closed
    # forms' expressions, so every value keeps its bits, at one point too
    pts = np.random.default_rng(3).uniform(-0.5, 1.5, size=(10_000, 2))
    got, want = MF.test1_solution(), closed_form_test1()
    for name in ("u", "grad", "hess"):
        for p in (pts, pts[0]):
            assert getattr(got, name)(p).tobytes() == getattr(want, name)(p).tobytes()


def test_test1_vanishes_on_boundary():
    sol = MF.test1_solution()
    s = np.linspace(0.0, 1.0, 33)
    zero = np.zeros_like(s)
    for pts in (
        np.column_stack([s, zero]),
        np.column_stack([s, zero + 1.0]),
        np.column_stack([zero, s]),
        np.column_stack([zero + 1.0, s]),
    ):
        assert np.abs(sol.u(pts)).max() < 1e-14


def test_test1_specific_boundary_points():
    sol = MF.test1_solution()
    assert np.abs(MF.boundary_data(sol, np.array([[0.0, 0.4]]))).max() < 1e-15


def test_test2_divergence_free():
    sol = MF.test2_solution()
    pts = interior_points(50, seed=2)
    g = sol.grad(pts)
    div = g[:, 0, 0] + g[:, 1, 1]
    assert np.abs(div).max() < 1e-13


def test_test2_vanishes_on_right_edge():
    sol = MF.test2_solution()
    pts = np.column_stack([np.ones(9), np.linspace(0, 1, 9)])
    assert np.abs(MF.boundary_data(sol, pts)).max() < 1e-15


def test_rigid_motion_zero_force():
    sol = MF.rigid_motion_solution(1.3, (0.1, -2.0))
    pts = interior_points(10, seed=3)
    assert np.abs(strain(sol, pts)).max() == 0.0
    for A in MATERIALS:
        assert np.abs(MF.body_force(sol, A, pts)).max() == 0.0


def test_linear_displacement_zero_force():
    # u = (x, 0) has constant stress, so the body force vanishes
    sol = polynomial_solution([[0.0], [1.0]], [[0.0]], name="shear")
    pts = interior_points(10, seed=4)
    A = ComplianceTensor.plane_stress(1.0, 0.3)
    sig = MF.stress(sol, A, pts)
    assert np.abs(sig - sig[0]).max() < 1e-15
    assert np.abs(MF.body_force(sol, A, pts)).max() == 0.0


def fd_divergence_of_stress(sol, A, pts, step=1e-5):
    out = np.zeros((len(pts), 2))
    for j, e in enumerate(np.eye(2)):
        ds = (MF.stress(sol, A, pts + step * e) - MF.stress(sol, A, pts - step * e)) / (
            2 * step
        )
        out += ds[:, :, j]
    return out


@pytest.mark.parametrize("sol", SOLUTIONS, ids=lambda s: s.name)
@pytest.mark.parametrize("A", MATERIALS, ids=lambda a: f"{a.mode}{a.params.get('nu')}")
def test_body_force_matches_fd_divergence(sol, A):
    # tolerance is relative to the force magnitude: near the incompressible
    # limit the non-divergence-free solution has forces of size 1/p_t
    pts = interior_points(100, seed=5)
    analytic = MF.body_force(sol, A, pts)
    fd = fd_divergence_of_stress(sol, A, pts)
    scale = max(1.0, np.abs(analytic).max())
    assert np.abs(analytic - fd).max() < 1e-7 * scale


def test_body_force_specific_point_test2():
    A = ComplianceTensor.plane_strain(3.0, 0.49)
    sol = MF.test2_solution()
    pts = np.array([[0.3, 0.7]])
    assert np.abs(MF.body_force(sol, A, pts) - fd_divergence_of_stress(sol, A, pts)).max() < 1e-7


@pytest.mark.parametrize("sol", SOLUTIONS, ids=lambda s: s.name)
@pytest.mark.parametrize("A", MATERIALS, ids=lambda a: f"{a.mode}{a.params.get('nu')}")
def test_constitutive_consistency(sol, A):
    # applying the compliance to the manufactured stress returns the strain;
    # tolerance is relative to the stress magnitude (cancellation of the
    # large trace part near incompressibility)
    pts = interior_points(60, seed=6)
    sig = MF.stress(sol, A, pts)
    eps = strain(sol, pts)
    assert np.abs(apply_compliance(A, sig) - eps).max() < 1e-12 * max(1.0, np.abs(sig).max())


@pytest.mark.parametrize("sol", SOLUTIONS + [MF.rigid_motion_solution()], ids=lambda s: s.name)
@pytest.mark.parametrize("A", MATERIALS, ids=lambda a: f"{a.mode}{a.params.get('nu')}")
def test_stress_is_stiffness_of_strain(sol, A):
    # the stress, written component by component, has the values of C
    # applied to the symmetric gradient as 2x2 matrices
    pts = interior_points(60, seed=7)
    assert np.array_equal(MF.stress(sol, A, pts), apply_stiffness(A, strain(sol, pts)))


def test_boundary_data_equals_displacement():
    sol = MF.test2_solution()
    pts = np.column_stack([np.linspace(0, 1, 7), np.zeros(7)])
    assert np.array_equal(MF.boundary_data(sol, pts), sol.u(pts))


def test_solution_registry():
    assert MF.solution_by_name("test1").name == "test1"
    assert MF.solution_by_name("test2").name == "test2"
    with pytest.raises(ValueError):
        MF.solution_by_name("nope")

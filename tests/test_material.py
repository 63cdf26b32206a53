import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdgelast.material import ComplianceTensor, SingularMaterialError

from oracles import apply_compliance, apply_stiffness

STUDY_MATERIALS = [
    ComplianceTensor.plane_stress(1.0, 0.3),
    ComplianceTensor.plane_strain(3.0, 0.49),
    ComplianceTensor.plane_strain(3.0, 0.4999),
    ComplianceTensor.plane_strain(3.0, 0.49999),
]


def random_symmetric(rng, n=1):
    m = rng.normal(size=(n, 2, 2))
    return 0.5 * (m + np.swapaxes(m, 1, 2))


def test_plane_stress_identity_on_identity():
    A = ComplianceTensor.plane_stress(1.0, 0.3)
    out = apply_compliance(A, np.eye(2))
    assert np.abs(out - 0.7 * np.eye(2)).max() < 1e-15


def test_plane_stress_nu_zero_is_identity_map():
    A = ComplianceTensor.plane_stress(1.0, 0.0)
    tau = np.array([[1.3, -0.4], [-0.4, 0.2]])
    assert np.abs(apply_compliance(A, tau) - tau).max() == 0.0
    assert np.abs(apply_stiffness(A, tau) - tau).max() < 1e-15


@pytest.mark.parametrize(
    "make", [ComplianceTensor.plane_stress, ComplianceTensor.plane_strain]
)
def test_trace_free_scaling(make):
    # the trace term vanishes, leaving (1+nu)/E times the input in both modes
    E, nu = 2.0, 0.31
    A = make(E, nu)
    tau = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.abs(apply_compliance(A, tau) - (1 + nu) / E * tau).max() < 1e-15


def test_plane_strain_identity_strain_example():
    # C(I) = E / ((1+nu)(1-2nu)) I; for E=3, nu=0.25 that is 4.8 I
    C = ComplianceTensor.plane_strain(3.0, 0.25)
    out = apply_stiffness(C, np.eye(2))
    assert np.abs(out - 4.8 * np.eye(2)).max() < 1e-12


def orthonormal_sym_basis():
    s = 1.0 / np.sqrt(2.0)
    return np.array(
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]], [[0.0, s], [s, 0.0]]]
    )


@pytest.mark.parametrize("A", STUDY_MATERIALS, ids=lambda a: f"{a.mode}-{a.params}")
def test_stiffness_matches_numeric_inverse(A):
    # oracle: represent the compliance as a 3x3 matrix in an orthonormal
    # basis of symmetric matrices, invert numerically, compare actions
    basis = orthonormal_sym_basis()
    mat = np.array(
        [[np.tensordot(apply_compliance(A, bj), bi) for bj in basis] for bi in basis]
    )
    inv = np.linalg.inv(mat)
    rng = np.random.default_rng(5)
    for tau in random_symmetric(rng, 20):
        coeffs = np.array([np.tensordot(tau, b) for b in basis])
        oracle = np.einsum("i,ikl->kl", inv @ coeffs, basis)
        assert np.abs(apply_stiffness(A, tau) - oracle).max() < 1e-10 * max(
            1.0, np.abs(oracle).max()
        )


@given(
    E=st.floats(0.1, 50.0),
    nu=st.floats(-0.3, 0.45),
    entries=st.tuples(
        st.floats(-5, 5, allow_nan=False), st.floats(-5, 5), st.floats(-5, 5)
    ),
    plane_strain=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_roundtrip_property(E, nu, entries, plane_strain):
    make = ComplianceTensor.plane_strain if plane_strain else ComplianceTensor.plane_stress
    A = make(E, nu)
    tau = np.array([[entries[0], entries[2]], [entries[2], entries[1]]])
    back = apply_compliance(A, apply_stiffness(A, tau))
    assert np.abs(back - tau).max() < 1e-13 * max(1.0, np.abs(tau).max())


def test_roundtrip_study_materials():
    # the inverse map amplifies the trace part by 1/p_t, so the achievable
    # roundtrip accuracy scales with that conditioning
    rng = np.random.default_rng(0)
    taus = random_symmetric(rng, 100)
    for A in STUDY_MATERIALS:
        cond = max(1.0, A.a / A.trace_coefficient)
        back = apply_compliance(A, apply_stiffness(A, taus))
        assert np.abs(back - taus).max() < 1e-13 * np.abs(taus).max() * max(10.0, cond)


def test_roundtrip_moderate_materials_tight():
    rng = np.random.default_rng(0)
    taus = random_symmetric(rng, 100)
    for A in (ComplianceTensor.plane_stress(1.0, 0.3), ComplianceTensor.plane_strain(2.0, 0.3)):
        back = apply_compliance(A, apply_stiffness(A, taus))
        assert np.abs(back - taus).max() < 1e-13 * max(1.0, np.abs(taus).max())


def test_spd_on_study_materials():
    rng = np.random.default_rng(1)
    taus = random_symmetric(rng, 1000)
    norms = np.einsum("nij,nij->n", taus, taus)
    taus = taus[norms > 1e-12]
    for A in STUDY_MATERIALS:
        energy = np.einsum("nij,nij->n", apply_compliance(A, taus), taus)
        assert np.all(energy > 0)


def test_deviatoric_consistency_with_plane_strain():
    # A tau = p_d dev(tau) + p_t tr(tau)/2 I is plane stress with
    # E = 2/(p_d + p_t), nu = (p_d - p_t)/(p_d + p_t); with the constants of
    # plane strain it is that plane strain law
    rng = np.random.default_rng(2)
    taus = random_symmetric(rng, 50)
    half_trace = 0.5 * (taus[:, 0, 0] + taus[:, 1, 1])[:, None, None] * np.eye(2)
    for nu in (0.3, 0.49, 0.4999, 0.49999):
        E = 3.0
        p_d, p_t = (1 + nu) / E, (1 + nu) * (1 - 2 * nu) / E
        split = p_d * (taus - half_trace) + p_t * half_trace
        stress = ComplianceTensor.plane_stress(2 / (p_d + p_t), (p_d - p_t) / (p_d + p_t))
        strain = ComplianceTensor.plane_strain(E, nu)
        for law in (stress, strain):
            assert np.abs(apply_compliance(law, taus) - split).max() < 1e-14


def test_near_incompressible_limit():
    # the trace response vanishes while the deviatoric response stays bounded
    trace_free = np.array([[1.0, 0.5], [0.5, -1.0]])
    for nu in (0.49, 0.4999, 0.49999):
        A = ComplianceTensor.plane_strain(3.0, nu)
        assert A.trace_coefficient == pytest.approx((1 + nu) * (1 - 2 * nu) / 3.0, rel=1e-12)
        dev_response = apply_compliance(A, trace_free)
        assert np.abs(dev_response).max() < 1.0  # nu-independent bound (1+nu)/E * |tau|
    assert ComplianceTensor.plane_strain(3.0, 0.49999).trace_coefficient < 1e-5


def test_singular_plane_strain():
    A = ComplianceTensor.plane_strain(1.0, 0.5)
    with pytest.raises(SingularMaterialError):
        apply_stiffness(A, np.eye(2))


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ComplianceTensor.plane_stress(-1.0, 0.3)
    with pytest.raises(ValueError):
        ComplianceTensor.plane_strain(1.0, 0.6)


def test_direction_matrix_matches_action():
    from hdgelast.fespace import StressBasis

    dirs = StressBasis.DIRECTIONS
    for A in STUDY_MATERIALS:
        T = A.compliance_direction_matrix()
        for c in range(3):
            for d in range(3):
                expected = np.tensordot(apply_compliance(A, dirs[d]), dirs[c])
                assert abs(T[c, d] - expected) < 1e-14

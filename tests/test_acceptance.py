"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The refinement studies reuse module-scoped results. Criteria 1 and 2 assert
the order windows k+1 (stress) and k+2 (displacement) on the final pair of
levels of each cell. The orders are asymptotic, so each cell is studied
until its final pair is in the asymptotic regime: n=4..32 for every cell
except the k=1 triangle cells, whose displacement order approaches 3 with an
O(h) relative correction (the gap roughly halves per level). Those cells run
to n=64 (criterion 1) and n=128 (criterion 2); see ``DEEP_LEVELS``.
"""

import numpy as np
import pytest

from hdgelast import fespace as F
from hdgelast import hdg_global as G
from hdgelast import hdg_local as L
from hdgelast import manufactured as MF
from hdgelast import mesh as M
from hdgelast import postproc as P
from hdgelast.harness import RunConfig, run_convergence
from hdgelast.material import ComplianceTensor

LEVELS = (4, 8, 16, 32)
# Measured tri k=1 displacement orders by level pair (tau_c = 3):
#   test1:           2.29, 2.50, 2.74, 2.88             (n = 4..64)
#   test2, nu=0.49:  2.26, 2.35, 2.42, 2.64, 2.81       (n = 4..128)
# At n=16->32 both are still well below 3; the final pairs below are the
# first ones inside the window. nu = 0.4999 and 0.49999 give the same 2.81.
DEEP_LEVELS = {
    ("tri", 1, "test1"): LEVELS + (64,),
    ("tri", 1, "test2"): LEVELS + (64, 128),
}
LEVELS_WHY = (
    "each cell is checked on its final level pair; tri k=1 runs to n=64 "
    "(criterion 1) and n=128 (criterion 2) because its displacement order "
    "is still preasymptotic at n=16->32, every other cell runs n=4..32"
)
SIGMA_TOL = 0.15
U_TOL = 0.2
NUS = (0.49, 0.4999, 0.49999)


def _levels(family, k, solution):
    return DEEP_LEVELS.get((family, k, solution), LEVELS)


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))


# --- shared study results ---------------------------------------------------


@pytest.fixture(scope="module")
def convergence_tables():
    tables = {}
    for family in ("tri", "poly"):
        for k in (1, 2, 3):
            cfg = RunConfig(mesh=family, k=k, solution="test1",
                            material="plane_stress", E=1.0, nu=0.3)
            tables[family, k] = run_convergence(cfg, _levels(family, k, "test1"))
    return tables


@pytest.fixture(scope="module")
def locking_tables():
    tables = {}
    for k in (1, 2, 3):
        for nu in NUS:
            cfg = RunConfig(mesh="tri", k=k, solution="test2",
                            material="plane_strain", E=3.0, nu=nu)
            tables[k, nu] = run_convergence(cfg, _levels("tri", k, "test2"))
    return tables


def _pair(levels):
    return f"n={levels[-2]}->{levels[-1]}"


def _check_orders(table, k, label):
    """Window violations of the final stress and displacement orders, and a
    note with both orders, printed for the deep-level cells whose margins
    are thin whether they pass or not."""
    bad = []
    so = table.final_order("err_sigma_proj")
    uo = table.final_order("err_u_proj")
    if abs(so - (k + 1)) > SIGMA_TOL:
        bad.append(f"{label}: stress order {so:.3f} outside {k+1}+-{SIGMA_TOL}")
    if abs(uo - (k + 2)) > U_TOL:
        bad.append(f"{label}: displacement order {uo:.3f} outside {k+2}+-{U_TOL}")
    note = (f"{label}: stress {so:.3f} (window {k+1}+-{SIGMA_TOL}), "
            f"displacement {uo:.3f} (window {k+2}+-{U_TOL})")
    return bad, note


def test_criterion_1_convergence_rates(convergence_tables):
    """Smooth-solution study: final orders k+1 (stress) and k+2 (displacement)."""
    failures, notes = [], []
    for (family, k), table in convergence_tables.items():
        levels = _levels(family, k, "test1")
        bad, note = _check_orders(table, k, f"{family} k={k} {_pair(levels)}")
        failures += bad
        if levels != LEVELS:
            notes.append(note)
    ok = not failures
    _report("1 convergence-rates", ok, "; ".join(notes + failures))
    assert ok, "order windows violated: " + "; ".join(failures) + f" [{LEVELS_WHY}]"


def test_criterion_2_locking_study(locking_tables):
    """Near-incompressible study: optimal orders at every nu, and stress
    errors insensitive to nu (< 10% spread at every computed level)."""
    failures, notes = [], []
    for (k, nu), table in locking_tables.items():
        levels = _levels("tri", k, "test2")
        bad, note = _check_orders(table, k, f"k={k} nu={nu} {_pair(levels)}")
        failures += bad
        if levels != LEVELS:
            notes.append(note)
    for k in (1, 2, 3):
        levels = _levels("tri", k, "test2")
        spreads = []
        for i, n in enumerate(levels):
            errs = [locking_tables[k, nu].rows[i]["err_sigma_proj"] for nu in NUS]
            spreads.append((max(errs) - min(errs)) / max(errs))
            if spreads[-1] >= 0.10:
                failures.append(f"k={k} n={n}: stress error spread {spreads[-1]:.1%}")
        if levels != LEVELS:
            notes.append(f"k={k} largest stress spread across nu at "
                         f"n={levels[0]}..{levels[-1]}: {max(spreads):.2%}")
    ok = not failures
    _report("2 locking-study", ok, "; ".join(notes + failures))
    assert ok, "locking study violations: " + "; ".join(failures) + f" [{LEVELS_WHY}]"


def test_criterion_3_spd_characterization():
    """Condensed matrix symmetric and Cholesky-positive; element blocks have
    exactly the rigid-motion kernel and no negative modes."""
    failures = []
    for family in ("tri", "poly"):
        mesh = M.build_mesh(family, 4)
        material = ComplianceTensor.plane_stress(1.0, 0.3)
        for k in (1, 2, 3):
            disc = G.build_discretization(mesh, k)
            systems = G.build_element_systems(disc, material, tau=3.0 / mesh.h)
            glob = G.assemble_global(disc, systems)
            A = glob.matrix
            if abs(A - A.T).max() > 1e-11 * abs(A).max():
                failures.append(f"{family} k={k}: condensed matrix not symmetric")
            try:
                dense = A.toarray()
                np.linalg.cholesky(0.5 * (dense + dense.T))
            except np.linalg.LinAlgError:
                failures.append(f"{family} k={k}: Cholesky failed")
            elements = [
                (e, A) for cb in systems.batches for e, A in zip(cb.batch.elements, cb.matrix)
            ]
            for e, A in elements:
                w = np.linalg.eigvalsh(A)
                if int(np.sum(w < 1e-10 * w[-1])) != 3:
                    failures.append(
                        f"{family} k={k} element {e}: kernel dim != 3"
                    )
                    break
                if w[0] < -1e-10 * w[-1]:
                    failures.append(
                        f"{family} k={k} element {e}: negative eigenvalue"
                    )
                    break
    ok = not failures
    _report("3 spd-characterization", ok, "; ".join(failures))
    assert ok, failures


def test_criterion_4_condensation_oracle():
    """Element condensed matrix equals the dense Schur complement."""
    failures = []
    material = ComplianceTensor.plane_strain(3.0, 0.49)
    cells = [("tri", e) for e in (0, 1, 3, 4, 6, 7)] + [("poly", e) for e in (0, 1, 2, 3)]
    for k in (1, 2):
        for family, e in cells:
            mesh = M.build_mesh(family, 2)
            disc = G.build_discretization(mesh, k)
            batch = L.element_batch(mesh, k, np.array([e]), disc.face_quad, disc.face_modes)
            blocks = L.batch_blocks(batch, material, 3.0 / mesh.h, "projected")
            A = L._condense(L._factor(blocks), blocks)[0]
            D = blocks.div_coupling[0]
            MM = np.block([[-blocks.stress_mass, -D], [-D.T, blocks.stab_uu[0]]])
            N = np.vstack([blocks.trace_coupling[0], -blocks.stab_ulam[0]])
            schur = blocks.stab_lamlam - N.T @ np.linalg.solve(MM, N)
            err = np.abs(A - schur).max() / np.abs(schur).max()
            if err > 1e-10:
                failures.append(f"{family} e={e} k={k}: relative mismatch {err:.2e}")
    ok = not failures
    _report("4 condensation-oracle", ok, "; ".join(failures))
    assert ok, failures


def _solve(sol, material, family, n, k, variant="projected", tau_c=3.0):
    mesh = M.build_mesh(family, n)
    tau = tau_c / mesh.h
    disc = G.build_discretization(mesh, k)
    systems = G.build_element_systems(
        disc, material, tau, lambda p: MF.body_force(sol, material, p), variant=variant
    )
    bvals = G.boundary_trace_values(disc, lambda p: MF.boundary_data(sol, p))
    glob = G.assemble_global(disc, systems, bvals)
    trace, _ = G.solve_condensed(glob)
    return disc, G.recover_fields(disc, systems, trace)


def test_criterion_5_polynomial_exactness():
    """Rigid motions and degree-(k+1) polynomial displacements are solved to
    roundoff, boundary data and body force included."""
    failures = []
    material = ComplianceTensor.plane_stress(1.0, 0.3)
    rng = np.random.default_rng(17)
    for k in (1, 2, 3):
        cases = [MF.rigid_motion_solution(0.6, (0.25, -0.1))]
        deg = k + 1
        c1 = np.zeros((deg + 1, deg + 1))
        c2 = np.zeros((deg + 1, deg + 1))
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                c1[a, b] = rng.uniform(-1, 1)
                c2[a, b] = rng.uniform(-1, 1)
        cases.append(MF.polynomial_solution(c1, c2, name=f"deg{deg}"))
        for family in ("tri", "poly"):
            for sol in cases:
                disc, dsol = _solve(sol, material, family, 2, k)
                rep = P.error_norms(disc, dsol, sol)
                scale = max(1.0, rep.err_sigma_proj, rep.err_u_proj)
                worst = max(rep.err_sigma_proj, rep.err_u_proj, rep.err_sigma,
                            rep.err_u, rep.trace_diag)
                if worst > 1e-9 * scale:
                    failures.append(f"{family} k={k} {sol.name}: error {worst:.2e}")
    ok = not failures
    _report("5 polynomial-exactness", ok, "; ".join(failures))
    assert ok, failures


def test_criterion_6_flux_single_valuedness():
    """Numerical traction is single-valued across interior faces in the
    projected variant; the plain variant demonstrably violates it."""
    material = ComplianceTensor.plane_stress(1.0, 0.3)
    sol = MF.test1_solution()
    details = []
    ok = True
    for family in ("tri", "poly"):
        disc, dsol = _solve(sol, material, family, 4, 1)
        jump, scale = G.flux_jump_norm(disc, dsol)
        details.append(f"{family} projected jump {jump / scale:.2e}")
        if jump > 1e-9 * scale:
            ok = False
    disc, dsol = _solve(sol, material, "tri", 4, 1, variant="plain")
    jump, scale = G.flux_jump_norm(disc, dsol)
    details.append(f"plain jump {jump / scale:.2e} (expected violation)")
    if jump <= 1e-6 * scale:
        ok = False
    _report("6 flux-single-valuedness", ok, "; ".join(details))
    assert ok, details


def test_criterion_7_superconvergence():
    """With tau = 1/h the face mismatch between the projected displacement
    and its trace, weighted by sqrt(h), gains a full extra order."""
    values = []
    for n in (2, 4, 8, 16):
        cfg = RunConfig(mesh="tri", k=1, solution="test1", tau_c=1.0)
        sol = MF.test1_solution()
        disc, dsol = _solve(sol, cfg.material_law(), "tri", n, 1, tau_c=1.0)
        rep = P.error_norms(disc, dsol, sol)
        # tau = 1/h makes sqrt(h)*||mismatch|| equal h times the tau-weighted norm
        values.append(disc.mesh.h * rep.trace_diag)
    orders = P.rates(values)
    final = orders[-1]
    ok = final >= 2.8
    _report("7 superconvergence", ok, f"final order {final:.3f} (threshold 2.8)")
    assert ok, (values, orders)


def test_criterion_8_manufactured_data_oracle():
    """Analytic body force equals the finite-difference divergence of the
    manufactured stress, relative to the force magnitude."""
    rng = np.random.default_rng(77)
    pts = rng.uniform(0.02, 0.98, size=(100, 2))
    materials = [
        ComplianceTensor.plane_stress(1.0, 0.3),
        ComplianceTensor.plane_strain(3.0, 0.49),
        ComplianceTensor.plane_strain(3.0, 0.4999),
        ComplianceTensor.plane_strain(3.0, 0.49999),
    ]
    step = 1e-5
    worst = 0.0
    for sol in (MF.test1_solution(), MF.test2_solution()):
        for mat in materials:
            analytic = MF.body_force(sol, mat, pts)
            fd = np.zeros_like(analytic)
            for j, e in enumerate(np.eye(2)):
                ds = (
                    MF.stress(sol, mat, pts + step * e)
                    - MF.stress(sol, mat, pts - step * e)
                ) / (2 * step)
                fd += ds[:, :, j]
            rel = np.abs(analytic - fd).max() / max(1.0, np.abs(analytic).max())
            worst = max(worst, rel)
    ok = worst < 1e-7
    _report("8 manufactured-data-oracle", ok, f"worst relative mismatch {worst:.2e}")
    assert ok, worst

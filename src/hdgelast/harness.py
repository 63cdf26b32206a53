"""Run configuration and the study drivers behind the command line.

A run is described by a flat key/value configuration (mesh family and
subdivision, polynomial degree, stabilization constant, material law,
manufactured solution, solver choice, output paths). The drivers here
execute single solves, mesh-refinement studies, incompressibility sweeps,
and the self-check suite; the command line module is a thin wrapper.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import hdg_global, manufactured, postproc
from .material import ComplianceTensor
from .mesh import build_mesh, validate
from .postproc import ConvergenceTable, ErrorReport, write_csv, write_vtk

__all__ = [
    "RunConfig",
    "ConfigError",
    "SolveReport",
    "parse_config_text",
    "run_solve",
    "run_convergence",
    "run_locking",
    "run_check",
    "CheckResult",
]


class ConfigError(Exception):
    """Invalid run configuration; message names the offending fields."""


@dataclass
class RunConfig:
    mesh: str = "tri"
    n: int = 8
    n_sequence: tuple[int, ...] = ()
    k: int = 1
    # stabilization tau = tau_c / h; calibrated so the refinement studies
    # reach their asymptotic orders earliest on the coarse-to-medium meshes
    tau_c: float = 3.0
    material: str = "plane_stress"
    E: float = 1.0
    nu: float = 0.3
    nu_list: tuple[float, ...] = (0.49, 0.4999, 0.49999)
    p_d: float = 1.0
    p_t: float = 1.0
    solution: str = "test1"
    solver: str = "auto"
    tol: float = 1e-12
    out: str = ""
    vtk: str = ""
    trace_variant: str = "projected"
    allow_k0: bool = False

    def problems(self) -> list[str]:
        errs = []
        if self.mesh not in ("tri", "poly"):
            errs.append(f"mesh: expected 'tri' or 'poly', got {self.mesh!r}")
        if self.n < 1:
            errs.append(f"n: must be >= 1, got {self.n}")
        if self.k < 0:
            errs.append(f"k: must be >= 0, got {self.k}")
        if self.k == 0 and not self.allow_k0:
            errs.append("k: degree 0 is unsupported (the method needs k >= 1); "
                        "pass allow_k0 to run anyway without guarantees")
        positive = ["tau_c", "tol"]
        if self.material in ("plane_stress", "plane_strain"):
            positive.append("E")
        elif self.material == "deviatoric":
            positive += ["p_d", "p_t"]
        else:
            errs.append(f"material: unknown {self.material!r}")
        for name in positive:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                errs.append(f"{name}: must be positive and finite, got {value}")
        if self.material == "plane_strain" and not -1.0 < self.nu < 0.5:
            errs.append(f"nu: plane strain needs nu in (-1, 0.5), got {self.nu}")
        if self.material == "plane_stress" and not -1.0 < self.nu < 1.0:
            errs.append(f"nu: plane stress needs nu in (-1, 1), got {self.nu}")
        if self.solver not in ("auto", "cholesky", "cg"):
            errs.append(f"solver: expected 'auto', 'cholesky' or 'cg', got {self.solver!r}")
        if self.trace_variant not in ("projected", "plain"):
            errs.append(f"trace_variant: expected 'projected' or 'plain', got {self.trace_variant!r}")
        if self.solution not in ("test1", "test2", "rigid"):
            errs.append(f"solution: unknown {self.solution!r}")
        return errs

    def material_law(self) -> ComplianceTensor:
        if self.material == "plane_stress":
            return ComplianceTensor.plane_stress(self.E, self.nu)
        if self.material == "plane_strain":
            return ComplianceTensor.plane_strain(self.E, self.nu)
        return ComplianceTensor.deviatoric(self.p_d, self.p_t)

    def exact_solution(self) -> manufactured.ExactSolution:
        return manufactured.solution_by_name(self.solution)

    def levels(self) -> tuple[int, ...]:
        return self.n_sequence if self.n_sequence else (self.n,)


_BOOL_FIELDS = {"allow_k0"}
_TUPLE_FIELDS = {"n_sequence": int, "nu_list": float}


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse a flat 'key = value' configuration; '#' starts a comment."""
    cfg = base if base is not None else RunConfig()
    known = {f.name: f for f in fields(RunConfig)}
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        updates[key] = _coerce(key, value, known[key].type)
    return replace(cfg, **updates)


def _coerce(key: str, value: str, ftype):
    if key in _TUPLE_FIELDS:
        conv = _TUPLE_FIELDS[key]
        return tuple(conv(tok) for tok in value.replace(",", " ").split())
    if key in _BOOL_FIELDS:
        return value.lower() in ("1", "true", "yes", "on")
    for caster in (int, float):
        if caster.__name__ in str(ftype):
            try:
                return caster(value)
            except ValueError as exc:
                raise ConfigError(f"{key}: cannot parse {value!r}") from exc
    return value


def serialize_config(cfg: RunConfig) -> str:
    buf = io.StringIO()
    for f in fields(RunConfig):
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
            val = " ".join(str(v) for v in val)
        buf.write(f"{f.name} = {val}\n")
    return buf.getvalue()


@dataclass
class SolveReport:
    errors: ErrorReport
    stats: hdg_global.SolverStats
    config: RunConfig
    mesh_label: str


def _pipeline(cfg: RunConfig, n: int):
    """mesh -> condense -> solve -> recover; returns everything the studies
    and diagnostics need."""
    mesh = build_mesh(cfg.mesh, n)
    material = cfg.material_law()
    exact = cfg.exact_solution()
    tau = cfg.tau_c / mesh.h
    f_fn = lambda pts: manufactured.body_force(exact, material, pts)
    g_fn = lambda pts: manufactured.boundary_data(exact, pts)
    disc = hdg_global.build_discretization(mesh, cfg.k)
    systems = hdg_global.build_element_systems(
        disc, material, tau, f_fn, variant=cfg.trace_variant
    )
    bvals = hdg_global.boundary_trace_values(
        disc, g_fn, exactness=postproc.error_quadrature_exactness(cfg.k)
    )
    system = hdg_global.assemble_global(disc, systems, bvals)
    trace, stats = hdg_global.solve_condensed(system, cfg.solver, cfg.tol)
    sol = hdg_global.recover_fields(disc, systems, trace)
    return mesh, material, exact, tau, disc, systems, sol, stats


def run_solve(cfg: RunConfig, n: int | None = None) -> SolveReport:
    errs = cfg.problems()
    if errs:
        raise ConfigError("; ".join(errs))
    n = cfg.n if n is None else n
    mesh, material, exact, tau, disc, systems, sol, stats = _pipeline(cfg, n)
    report = postproc.error_norms(disc, sol, exact, material, tau)
    label = f"{cfg.mesh}-n{n}"
    if cfg.vtk:
        write_vtk(mesh, sol, cfg.vtk)
    if cfg.out:
        table = ConvergenceTable()
        table.add_row(report.as_row(label))
        write_csv(table, cfg.out)
    return SolveReport(errors=report, stats=stats, config=cfg, mesh_label=label)


def run_convergence(cfg: RunConfig, ns: tuple[int, ...] | None = None) -> ConvergenceTable:
    """Refinement study at fixed degree; rows must halve h, which the two
    built-in families do when n doubles."""
    errs = cfg.problems()
    if errs:
        raise ConfigError("; ".join(errs))
    ns = ns if ns is not None else cfg.levels()
    if len(ns) < 2:
        raise ConfigError("n_sequence: need at least two levels for a study")
    table = ConvergenceTable()
    for n in ns:
        rep = run_solve(replace(cfg, out="", vtk=""), n=n)
        table.add_row(rep.errors.as_row(f"{cfg.mesh}-n{n}"))
    if cfg.out:
        write_csv(table, cfg.out)
    return table


def run_locking(
    cfg: RunConfig,
    nus: tuple[float, ...] | None = None,
    ns: tuple[int, ...] | None = None,
) -> tuple[dict[float, ConvergenceTable], dict]:
    """Refinement studies across Poisson ratios approaching the
    incompressible limit, plus the cross-ratio error spread per level."""
    if cfg.material != "plane_strain":
        raise ConfigError("material: locking study requires plane_strain")
    nus = nus if nus is not None else cfg.nu_list
    for nu in nus:
        if not 0.0 < nu < 0.5:
            raise ConfigError(f"nu_list: values must lie in (0, 0.5), got {nu}")
    tables = {}
    for nu in nus:
        sub = replace(cfg, nu=nu, out="", vtk="")
        tables[nu] = run_convergence(sub, ns)
    spread = {}
    ns_used = ns if ns is not None else cfg.levels()
    for i, n in enumerate(ns_used):
        errs = [tables[nu].rows[i]["err_sigma_proj"] for nu in nus]
        lo, hi = min(errs), max(errs)
        spread[n] = (hi - lo) / hi if hi > 0 else 0.0
    if cfg.out:
        for nu, table in tables.items():
            write_csv(table, _suffix_path(cfg.out, f"nu{nu}"))
    return tables, spread


def _suffix_path(path: str, tag: str) -> str:
    if "." in path.rsplit("/", 1)[-1]:
        stem, ext = path.rsplit(".", 1)
        return f"{stem}_{tag}.{ext}"
    return f"{path}_{tag}"


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    expected_failure: bool = False

    @property
    def ok(self) -> bool:
        """An expected failure that indeed failed counts as suite success."""
        return self.passed != self.expected_failure


def run_check(cfg: RunConfig | None = None, spd_perturbation=None) -> list[CheckResult]:
    """Small-scale invariant suite across all modules.

    With trace_variant='plain' the traction single-valuedness check is
    expected to fail and is reported as a demonstration. The
    ``spd_perturbation`` hook (tests only) maps the condensed matrix to a
    perturbed one before the SPD check."""
    cfg = cfg if cfg is not None else RunConfig()
    variant = cfg.trace_variant
    results: list[CheckResult] = []

    def record(name, passed, detail="", expected_failure=False):
        results.append(CheckResult(name, bool(passed), detail, expected_failure))

    # mesh invariants
    for fam, n in (("tri", 4), ("poly", 4)):
        mesh = build_mesh(fam, n)
        issues = validate(mesh)
        record(f"mesh.validate[{fam}]", not issues, "; ".join(issues))

    # local element structure on a small mesh of each family
    k = max(cfg.k, 1)
    for fam in ("tri", "poly"):
        mesh = build_mesh(fam, 2)
        material = cfg.material_law()
        tau = cfg.tau_c / mesh.h
        disc = hdg_global.build_discretization(mesh, k)
        systems = hdg_global.build_element_systems(disc, material, tau, None, variant=variant)
        kernel_ok, psd_ok, sym_ok = True, True, True
        for cb in systems.batches:
            A = cb.matrix
            w = np.linalg.eigvalsh(A)
            top = w[:, -1:]
            kernel_ok &= bool(np.all(np.sum(w < 1e-10 * top, axis=1) == 3))
            psd_ok &= bool(np.all(w[:, :1] >= -1e-10 * top))
            asym = np.abs(A - A.swapaxes(1, 2)).max(axis=(1, 2))
            sym_ok &= bool(np.all(asym <= 1e-11 * np.maximum(np.abs(A).max(axis=(1, 2)), 1e-300)))
        record(f"hdg_local.kernel-dim-3[{fam}]", kernel_ok)
        record(f"hdg_local.positive-semidefinite[{fam}]", psd_ok)
        record(f"hdg_local.symmetry[{fam}]", sym_ok)

    # global SPD after boundary elimination
    mesh = build_mesh("tri", 4)
    material = cfg.material_law()
    tau = cfg.tau_c / mesh.h
    disc = hdg_global.build_discretization(mesh, k)
    systems = hdg_global.build_element_systems(disc, material, tau, None, variant=variant)
    system = hdg_global.assemble_global(disc, systems)
    A = system.matrix.toarray()
    if spd_perturbation is not None:
        A = spd_perturbation(A)
    sym = np.abs(A - A.T).max() <= 1e-11 * max(np.abs(A).max(), 1e-300)
    try:
        np.linalg.cholesky(0.5 * (A + A.T))
        chol = True
    except np.linalg.LinAlgError:
        chol = False
    record("hdg_global.spd", sym and chol, "" if sym and chol else "condensed matrix not SPD")

    # exactness: rigid motion data reproduced to roundoff
    exact = manufactured.rigid_motion_solution()
    bvals = hdg_global.boundary_trace_values(
        disc, lambda pts: manufactured.boundary_data(exact, pts)
    )
    sysb = hdg_global.assemble_global(disc, systems, bvals)
    trace, _ = hdg_global.solve_condensed(sysb, cfg.solver, cfg.tol)
    sol = hdg_global.recover_fields(disc, systems, trace)
    rep = postproc.error_norms(disc, sol, exact, material, tau)
    exact_ok = max(rep.err_sigma, rep.err_u, rep.trace_diag) < 1e-10
    record("hdg_global.rigid-motion-exactness", exact_ok,
           f"max error {max(rep.err_sigma, rep.err_u, rep.trace_diag):.2e}")

    # traction single-valuedness on a manufactured solve
    run_cfg = replace(cfg, mesh="tri", k=k, solution="test1",
                      material="plane_stress", E=1.0, nu=0.3, out="", vtk="")
    mesh, mat, exa, tau, disc, systems, sol, _ = _pipeline(run_cfg, 4)
    jump, scale = hdg_global.flux_jump_norm(disc, systems, sol, tau, variant=variant)
    rel = jump / max(scale, 1e-300)
    record(
        "hdg_global.flux-single-valued",
        rel <= 1e-9,
        f"relative traction jump {rel:.2e}",
        expected_failure=(variant == "plain"),
    )

    # manufactured data consistency: compliance of stress equals strain
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.05, 0.95, size=(50, 2))
    for name in ("test1", "test2"):
        s = manufactured.solution_by_name(name)
        sig = manufactured.stress(s, mat, pts)
        eps = manufactured.strain(s, pts)
        err = np.abs(mat.apply_compliance(sig) - eps).max()
        record(f"manufactured.constitutive[{name}]", err < 1e-12, f"max residual {err:.2e}")

    return results

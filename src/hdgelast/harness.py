"""Run configuration and the study drivers behind the command line.

A run is described by a flat key/value configuration (mesh family and
subdivision, polynomial degree, stabilization constant, plane stress or
strain law, manufactured solution, solver choice, output paths). The
drivers here execute single solves, refinement studies, incompressibility
sweeps and the self-check suite; the command line module is a thin wrapper.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import hdg_global, manufactured, postproc
from .errors import ConfigError
from .fespace import MAX_EXACTNESS
from .hdg_local import error_quadrature_exactness
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


# The allowed values of each choice-valued setting.
CHOICES = {
    "mesh": ("tri", "poly"),
    "material": ("plane_stress", "plane_strain"),
    "solution": ("test1", "test2", "rigid"),
    "solver": ("auto", "cholesky", "cg"),
}


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
    solution: str = "test1"
    solver: str = "auto"
    tol: float = 1e-12
    out: str = ""
    vtk: str = ""

    def problems(self) -> list[str]:
        errs = []
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                errs.append(f"{name}: expected one of {', '.join(allowed)}, got {value!r}")
        low = 2 if self.mesh == "poly" else 1
        for name, ns in (("n", (self.n,)), ("n_sequence", self.n_sequence)):
            if ns and min(ns) < low:
                errs.append(f"{name}: must be >= {low} for the {self.mesh} mesh, got {min(ns)}")
        if any(b <= a for a, b in zip(self.n_sequence, self.n_sequence[1:])):
            errs.append(f"n_sequence: levels must increase strictly, got {self.n_sequence}")
        if self.k < 1:
            errs.append(f"k: must be >= 1 (the method needs k >= 1), got {self.k}")
        elif (qe := error_quadrature_exactness(self.k)) > MAX_EXACTNESS:
            errs.append(f"k: needs quadrature exactness {qe} > {MAX_EXACTNESS}, got {self.k}")
        for name in ("tau_c", "tol", "E"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                errs.append(f"{name}: must be positive and finite, got {value}")
        if self.material == "plane_strain" and not -1.0 < self.nu < 0.5:
            errs.append(f"nu: plane strain needs nu in (-1, 0.5), got {self.nu}")
        if self.material == "plane_stress" and not -1.0 < self.nu < 1.0:
            errs.append(f"nu: plane stress needs nu in (-1, 1), got {self.nu}")
        return errs

    def material_law(self) -> ComplianceTensor:
        return getattr(ComplianceTensor, self.material)(self.E, self.nu)

    def levels(self) -> tuple[int, ...]:
        """The levels of a study: n_sequence, or 4, 8, 16, 32 when it is empty."""
        return self.n_sequence or (4, 8, 16, 32)


def _text_parser(ftype):
    """The text parser for a RunConfig field of the given type; a tuple
    field takes values separated by commas and/or whitespace."""
    if get_origin(ftype) is not tuple:
        return ftype
    item = get_args(ftype)[0]
    parse = lambda text: tuple(item(tok) for tok in text.replace(",", " ").split())
    parse.__name__ = f"{item.__name__} list"
    return parse


# One text parser per RunConfig field, for config files and flags alike.
PARSERS = {name: _text_parser(ftype) for name, ftype in get_type_hints(RunConfig).items()}

# The RunConfig fields each command's driver reads: the command line offers
# exactly these as flags, and a config file for the command may set only these.
_DISCRETE = ("k", "tau_c", "material", "E", "nu", "solver", "tol")
_STUDY = ("mesh", "n_sequence", *_DISCRETE, "solution", "out")
COMMAND_FIELDS = {
    "solve": ("mesh", "n", *_DISCRETE, "solution", "out", "vtk"),
    "convergence": _STUDY,
    # the sweep's ratios replace nu, and plane strain is its only material
    "locking": tuple(f for f in _STUDY if f not in ("material", "nu")) + ("nu_list",),
    "check": _DISCRETE,
}


def parse_config_text(text: str, base: RunConfig | None = None,
                      command: str | None = None) -> RunConfig:
    """Parse a flat 'key = value' configuration; '#' starts a comment.
    With ``command``, only the keys that command reads are accepted."""
    cfg = base if base is not None else RunConfig()
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in updates:
            raise ConfigError(f"line {lineno}: key {key!r} is set twice")
        try:
            updates[key] = PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {value!r}") from exc
        if command is not None and key not in COMMAND_FIELDS[command]:
            raise ConfigError(f"line {lineno}: key {key!r} is not read by {command}")
    return replace(cfg, **updates)


@dataclass
class SolveReport:
    errors: ErrorReport
    stats: hdg_global.SolverStats
    mesh_label: str


def _pipeline(cfg: RunConfig, n: int):
    """mesh -> condense -> solve -> recover. The element systems are freed
    on return; the solution carries the parameters they were built with."""
    mesh = build_mesh(cfg.mesh, n)
    material = cfg.material_law()
    exact = manufactured.solution_by_name(cfg.solution)
    f_fn = lambda pts: manufactured.body_force(exact, material, pts)
    g_fn = lambda pts: manufactured.boundary_data(exact, pts)
    disc = hdg_global.build_discretization(mesh, cfg.k)
    systems = hdg_global.build_element_systems(disc, material, cfg.tau_c / mesh.h, f_fn)
    bvals = hdg_global.boundary_trace_values(disc, g_fn)
    system = hdg_global.assemble_global(disc, systems, bvals)
    trace, stats = hdg_global.solve_condensed(system, cfg.solver, cfg.tol)
    sol = hdg_global.recover_fields(disc, systems, trace)
    return disc, exact, sol, stats


def _require_valid(cfg: RunConfig) -> None:
    errs = cfg.problems()
    if errs:
        raise ConfigError("; ".join(errs))


def run_solve(cfg: RunConfig, n: int | None = None) -> SolveReport:
    n = cfg.n if n is None else n
    _require_valid(replace(cfg, n=n))
    disc, exact, sol, stats = _pipeline(cfg, n)
    report = postproc.error_norms(disc, sol, exact)
    label = f"{cfg.mesh}-n{n}"
    if cfg.vtk:
        write_vtk(disc.mesh, sol, cfg.vtk)
    if cfg.out:
        write_csv(ConvergenceTable([report.as_row(label)]), cfg.out)
    return SolveReport(errors=report, stats=stats, mesh_label=label)


def run_convergence(cfg: RunConfig, ns: tuple[int, ...] | None = None) -> ConvergenceTable:
    """Refinement study at fixed degree; rows must halve h, which the two
    built-in families do when n doubles."""
    ns = tuple(ns) if ns is not None else cfg.levels()
    _require_valid(replace(cfg, n_sequence=ns))
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
    if not nus or len(set(nus)) < len(nus) or not all(0.0 < nu < 0.5 for nu in nus):
        raise ConfigError(f"nu_list: need one or more distinct values in (0, 0.5), got {nus}")
    tables = {}
    for nu in nus:
        sub = replace(cfg, nu=nu, out="", vtk="")
        tables[nu] = run_convergence(sub, ns)
    spread = {}
    for i, n in enumerate(ns if ns is not None else cfg.levels()):
        errs = [tables[nu].rows[i]["err_sigma_proj"] for nu in nus]
        lo, hi = min(errs), max(errs)
        spread[n] = (hi - lo) / hi if hi > 0 else 0.0
    if cfg.out:
        stem, ext = os.path.splitext(cfg.out)
        for nu, table in tables.items():
            write_csv(table, f"{stem}_nu{nu}{ext}")
    return tables, spread


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def run_check(cfg: RunConfig | None = None, spd_perturbation=None) -> list[CheckResult]:
    """Small-scale invariant suite across all modules; every check is
    expected to pass. The ``spd_perturbation`` hook (tests only) maps the
    condensed matrix to a perturbed one before the SPD check."""
    cfg = cfg if cfg is not None else RunConfig()
    _require_valid(cfg)
    results: list[CheckResult] = []

    def record(name, passed, detail=""):
        results.append(CheckResult(name, bool(passed), detail))

    # mesh invariants
    for fam, n in (("tri", 4), ("poly", 4)):
        mesh = build_mesh(fam, n)
        issues = validate(mesh)
        record(f"mesh.validate[{fam}]", not issues, "; ".join(issues))

    # local element structure on a small mesh of each family
    material = cfg.material_law()
    for fam in ("tri", "poly"):
        mesh = build_mesh(fam, 2)
        tau = cfg.tau_c / mesh.h
        disc = hdg_global.build_discretization(mesh, cfg.k)
        systems = hdg_global.build_element_systems(disc, material, tau)
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
    tau = cfg.tau_c / mesh.h
    disc = hdg_global.build_discretization(mesh, cfg.k)
    systems = hdg_global.build_element_systems(disc, material, tau)
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
    disc, exact, sol, _ = _pipeline(replace(cfg, mesh="tri", solution="rigid"), 4)
    rep = postproc.error_norms(disc, sol, exact)
    exact_ok = max(rep.err_sigma, rep.err_u, rep.trace_diag) < 1e-10
    record("hdg_global.rigid-motion-exactness", exact_ok,
           f"max error {max(rep.err_sigma, rep.err_u, rep.trace_diag):.2e}")

    # traction single-valuedness on a manufactured solve
    run_cfg = replace(cfg, mesh="tri", solution="test1", material="plane_stress", E=1.0, nu=0.3)
    disc, _, sol, _ = _pipeline(run_cfg, 4)
    jump, scale = hdg_global.flux_jump_norm(disc, sol)
    rel = jump / max(scale, 1e-300)
    record("hdg_global.flux-single-valued", rel <= 1e-9, f"relative traction jump {rel:.2e}")

    # manufactured data consistency: compliance of stress equals strain
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.05, 0.95, size=(50, 2))
    for name in ("test1", "test2"):
        s = manufactured.solution_by_name(name)
        sig = manufactured.stress(s, sol.material, pts)
        eps = manufactured.strain(s, pts)
        err = np.abs(sol.material.apply_compliance(sig) - eps).max()
        record(f"manufactured.constitutive[{name}]", err < 1e-12, f"max residual {err:.2e}")

    return results

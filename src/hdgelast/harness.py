"""Run configuration and the study drivers behind the command line.

A run is described by a flat key/value configuration (mesh family and
subdivision, polynomial degree, stabilization constant, plane stress or
strain law, manufactured solution, solver choice, output paths). The
drivers here execute single solves, refinement studies and incompressibility
sweeps; the command line module is a thin wrapper.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import get_args, get_origin, get_type_hints

from . import hdg_global, manufactured, postproc
from .errors import ConfigError
from .fespace import MAX_EXACTNESS
from .hdg_local import error_quadrature_exactness
from .material import ComplianceTensor
from .mesh import build_mesh
from .postproc import ConvergenceTable, ErrorReport, write_csv, write_vtk

__all__ = [
    "RunConfig",
    "ConfigError",
    "SolveReport",
    "parse_config_text",
    "run_solve",
    "run_convergence",
    "run_locking",
]


# The allowed values of each choice-valued setting.
CHOICES = {
    "mesh": ("tri", "poly"),
    "material": ("plane_stress", "plane_strain"),
    "solution": ("test1", "test2", "rigid"),
    "solver": ("cholesky", "cg"),
}


# Highest degree the tri family runs: beyond it the orthonormalization of
# the degree-(k+1) basis fails on its right triangles, which fill half of
# the bounding box the monomials are scaled to.
TRI_MAX_K = 10


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
    solver: str = "cholesky"
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
        # a study's orders are log2 of error ratios, so each level must halve h
        if any(b != 2 * a for a, b in zip(self.n_sequence, self.n_sequence[1:])):
            errs.append(f"n_sequence: each level must double the last, got {self.n_sequence}")
        if self.k < 1:
            errs.append(f"k: must be >= 1 (the method needs k >= 1), got {self.k}")
        elif (qe := error_quadrature_exactness(self.k)) > MAX_EXACTNESS:
            errs.append(f"k: needs quadrature exactness {qe} > {MAX_EXACTNESS}, got {self.k}")
        elif self.mesh == "tri" and self.k > TRI_MAX_K:
            errs.append(f"k: the tri mesh admits k <= {TRI_MAX_K}, got {self.k}")
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
    """mesh -> condense -> solve -> recover. The element systems stay alive
    through the trace solve, which sets a run's peak memory, next to the
    assembled matrix and its factorization: each element's faces, class row,
    shift, load and body-force responses, and each translation class's
    geometry and operators once. The solution keeps the batches and the
    parameters they were built with."""
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
    """Refinement study at fixed degree. Each level doubles n, which halves
    h on both built-in families, as the orders of the table assume."""
    ns = tuple(ns) if ns is not None else cfg.levels()
    _require_valid(replace(cfg, n_sequence=ns))
    if len(ns) < 2:
        raise ConfigError("n_sequence: need at least two levels for a study")
    table = ConvergenceTable()
    for n in ns:
        rep = run_solve(replace(cfg, out="", vtk=""), n=n)
        table.add_row(rep.errors.as_row(rep.mesh_label))
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

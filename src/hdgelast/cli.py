"""Command line front end.

Subcommands: solve (single run), convergence (refinement study), locking
(incompressibility sweep), check (self-check suite). Flags override values
from an optional flat key/value config file, which overrides the defaults;
locking defaults to plane strain, test2 and E = 3. Exit codes: 0 success,
2 configuration error, 3 solver failure, 4 check-suite failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .harness import (
    ConfigError,
    RunConfig,
    _parse_list,
    parse_config_text,
    run_check,
    run_convergence,
    run_locking,
    run_solve,
)
from .hdg_global import SolverError
from .postproc import write_csv

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4


def _ints(text: str) -> tuple[int, ...]:
    return _parse_list(text, int)


def _floats(text: str) -> tuple[float, ...]:
    return _parse_list(text, float)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--mesh", choices=["tri", "poly"])
    p.add_argument("--n", type=int)
    p.add_argument("--n-sequence", type=_ints, help="comma separated subdivision counts")
    p.add_argument("--k", type=int)
    p.add_argument("--tau-c", type=float, help="stabilization constant c in tau = c/h")
    p.add_argument("--material", choices=["plane_stress", "plane_strain", "deviatoric"])
    p.add_argument("--E", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--p-d", type=float, help="deviatoric compliance constant")
    p.add_argument("--p-t", type=float, help="trace compliance constant")
    p.add_argument("--nu-list", type=_floats, help="comma separated Poisson ratios")
    p.add_argument("--solution", choices=["test1", "test2", "rigid"])
    p.add_argument("--solver", choices=["auto", "cholesky", "cg"])
    p.add_argument("--tol", type=float)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--vtk", help="VTK output path")
    p.add_argument("--trace-variant", choices=["projected", "plain"])


# the locking sweep's base configuration, under --config and the flags
_LOCKING_BASE = RunConfig(material="plane_strain", solution="test2", E=3.0)


def _config_from_args(args) -> RunConfig:
    cfg = _LOCKING_BASE if args.command == "locking" else RunConfig()
    if args.config:
        with open(args.config) as fh:
            cfg = parse_config_text(fh.read(), cfg)
    # every RunConfig field has a flag of the same name; an empty list
    # keeps the configured value
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    overrides = {name: val for name, val in overrides.items() if val is not None and val != ()}
    return replace(cfg, **overrides)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hdgelast",
        description="HDG solver for 2D linear elasticity with symmetric stress",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
        ("solve", "single solve with error report"),
        ("convergence", "mesh refinement study"),
        ("locking", "near-incompressible sweep (plane strain)"),
        ("check", "run the self-check suite"),
    ):
        _add_common(sub.add_parser(name, help=descr))
    args = parser.parse_args(argv)

    try:
        cfg = _config_from_args(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "solve":
            rep = run_solve(cfg)
            e, st = rep.errors, rep.stats
            print(
                f"{rep.mesh_label} k={e.k} h={e.h:.4f} dofs={e.n_trace_dofs} "
                f"sigma_proj={e.err_sigma_proj:.3E} u_proj={e.err_u_proj:.3E} "
                f"sigma={e.err_sigma:.3E} u={e.err_u:.3E} trace={e.trace_diag:.3E} "
                f"solver={st.method} it={st.iterations} residual={st.residual:.3E}"
            )
        elif args.command == "convergence":
            ns = cfg.n_sequence if cfg.n_sequence else (4, 8, 16, 32)
            table = run_convergence(cfg, ns)
            write_csv(table, sys.stdout)
        elif args.command == "locking":
            ns = cfg.n_sequence if cfg.n_sequence else (4, 8, 16, 32)
            tables, spread = run_locking(cfg, cfg.nu_list, ns)
            for nu, table in tables.items():
                print(f"# nu = {nu}")
                write_csv(table, sys.stdout)
            print("# max relative stress-error spread across nu, per level:")
            for n, rel in spread.items():
                print(f"n={n}: {rel:.3%}")
        elif args.command == "check":
            results = run_check(cfg)
            failed = 0
            for r in results:
                if r.expected_failure:
                    status = "XFAIL (expected)" if not r.passed else "XPASS (unexpected)"
                else:
                    status = "PASS" if r.passed else "FAIL"
                if not r.ok:
                    failed += 1
                detail = f"  [{r.detail}]" if r.detail else ""
                print(f"{status:18s} {r.name}{detail}")
            if failed:
                print(f"{failed} check(s) failed", file=sys.stderr)
                return EXIT_CHECK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line front end.

Subcommands: solve (single run), convergence (refinement study) and locking
(incompressibility sweep), each with one flag per RunConfig field its driver
reads (harness.COMMAND_FIELDS). Flags override an optional flat key/value
config file, which overrides the defaults; locking defaults to plane strain,
test2 and E = 3. Exit codes: 0 success, 2 invalid input, 3 numerical failure
(see errors).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import ConfigError, HdgelastError, SolverError
from .harness import (
    CHOICES,
    COMMAND_FIELDS,
    PARSERS,
    RunConfig,
    parse_config_text,
    run_convergence,
    run_locking,
    run_solve,
)
from .postproc import write_csv

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG, EXIT_SOLVER = ConfigError.exit_code, SolverError.exit_code

_COMMANDS = {
    "solve": "single solve with error report",
    "convergence": "mesh refinement study",
    "locking": "near-incompressible sweep (plane strain)",
}

_HELP = {
    "n_sequence": "comma separated subdivision counts",
    "tau_c": "stabilization constant c in tau = c/h",
    "nu_list": "comma separated Poisson ratios",
    "out": "CSV output path",
    "vtk": "VTK output path",
}

# the locking sweep's base configuration, under --config and the flags
_LOCKING_BASE = RunConfig(material="plane_strain", solution="test2", E=3.0)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdgelast", description="HDG solver for 2D linear elasticity with symmetric stress")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, descr in _COMMANDS.items():
        # no abbreviations: --n must not stand for --n-sequence or --nu
        p = sub.add_parser(command, help=descr, allow_abbrev=False)
        p.add_argument("--config", help="flat key = value config file")
        for name in COMMAND_FIELDS[command]:
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=PARSERS[name],
                           choices=CHOICES.get(name), help=_HELP.get(name))
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = _LOCKING_BASE if args.command == "locking" else RunConfig()
    if args.config:
        with open(args.config) as fh:
            cfg = parse_config_text(fh.read(), cfg, args.command)
    # an absent flag or an empty list keeps the configured value
    given = {name: getattr(args, name) for name in COMMAND_FIELDS[args.command]}
    return replace(cfg, **{name: v for name, v in given.items() if v is not None and v != ()})


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
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
            write_csv(run_convergence(cfg), sys.stdout)
        elif args.command == "locking":
            tables, spread = run_locking(cfg)
            for nu, table in tables.items():
                print(f"# nu = {nu}")
                write_csv(table, sys.stdout)
            print("# max relative stress-error spread across nu, per level:")
            for n, rel in spread.items():
                print(f"n={n}: {rel:.3%}")
    except OSError as exc:  # an unreadable config file or unwritable output
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HdgelastError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())

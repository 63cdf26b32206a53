import importlib
from typing import get_type_hints

import numpy as np
import pytest

from hdgelast import cli
from hdgelast import harness as H
from hdgelast.errors import HdgelastError


def test_config_parse_and_overrides():
    text = """
    # study setup
    mesh = poly
    n = 6
    k = 2
    tau_c = 2.5
    nu_list = 0.49 0.4999
    n_sequence = 2, 4, 8
    """
    cfg = H.parse_config_text(text)
    assert cfg.mesh == "poly"
    assert cfg.n == 6
    assert cfg.k == 2
    assert cfg.tau_c == 2.5
    assert cfg.nu_list == (0.49, 0.4999)
    assert cfg.n_sequence == (2, 4, 8)


def test_config_text_sets_a_field_of_each_type():
    text = "n = 5\ntau_c = 1.5\nsolution = test2\nn_sequence = 2 4, 8\nnu_list = 0.49,0.4999\n"
    set_fields = ("n", "tau_c", "solution", "n_sequence", "nu_list")
    hints = get_type_hints(H.RunConfig)
    assert {hints[f] for f in set_fields} == set(hints.values())
    assert H.parse_config_text(text) == H.RunConfig(
        n=5, tau_c=1.5, solution="test2", n_sequence=(2, 4, 8), nu_list=(0.49, 0.4999)
    )


def test_config_unknown_key():
    with pytest.raises(H.ConfigError, match="unknown key"):
        H.parse_config_text("meshh = tri")


def test_config_repeated_key():
    with pytest.raises(H.ConfigError, match="^line 3: key 'k' is set twice$"):
        H.parse_config_text("k = 1\nn = 4\nk = 2")


def test_config_bad_value():
    with pytest.raises(H.ConfigError, match="cannot parse"):
        H.parse_config_text("n = three")


MALFORMED_LINES = [
    ("n_sequence = 4, x", "n_sequence"),
    ("nu_list = 0.49 abc", "nu_list"),
]


@pytest.mark.parametrize("line,key", MALFORMED_LINES)
def test_config_malformed_value_names_key(line, key):
    with pytest.raises(H.ConfigError, match=f"^{key}: cannot parse"):
        H.parse_config_text(line)


@pytest.mark.parametrize("line,key", MALFORMED_LINES)
def test_cli_malformed_config_file_is_config_error(tmp_path, capsys, line, key):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"n = 2\n{line}\n")
    assert cli.main(["solve", "--config", str(cfgfile)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: cannot parse")
    assert "Traceback" not in err


@pytest.mark.parametrize("command,flag,value", [
    pytest.param("convergence", "--n-sequence", "4,x", id="--n-sequence-4,x"),
    pytest.param("locking", "--nu-list", "0.49 abc", id="--nu-list-0.49 abc"),
])
def test_cli_malformed_list_flag_is_usage_error(command, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, value])
    assert exc.value.code == cli.EXIT_CONFIG
    assert f"argument {flag}: invalid" in capsys.readouterr().err


def test_problems_named_fields():
    cfg = H.RunConfig(k=0, tau_c=-1.0, mesh="hex")
    msgs = cfg.problems()
    joined = " ".join(msgs)
    assert "k:" in joined and "tau_c:" in joined and "mesh:" in joined


def test_problems_tri_degree_limit():
    assert H.RunConfig(mesh="tri", k=H.TRI_MAX_K).problems() == []
    assert H.RunConfig(mesh="poly", k=H.TRI_MAX_K + 1).problems() == []
    msgs = H.RunConfig(mesh="tri", k=H.TRI_MAX_K + 1).problems()
    assert msgs == [f"k: the tri mesh admits k <= {H.TRI_MAX_K}, got {H.TRI_MAX_K + 1}"]


def test_plane_strain_nu_range():
    assert any("nu:" in p for p in H.RunConfig(material="plane_strain", nu=0.5).problems())


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "field,value,material",
    [
        ("E", 0.0, "plane_stress"),
        ("E", INF, "plane_strain"),
        ("tau_c", NAN, "plane_stress"),
        ("tol", -1.0, "plane_stress"),
        ("tol", 0.0, "plane_stress"),
    ],
)
def test_problems_reject_nonpositive_or_nonfinite(field, value, material):
    msgs = H.RunConfig(material=material, **{field: value}).problems()
    assert [m for m in msgs if m.startswith(f"{field}: must be positive and finite")], msgs


def test_run_solve_smoke_and_artifacts(tmp_path):
    out = tmp_path / "row.csv"
    vtk = tmp_path / "field.vtk"
    cfg = H.RunConfig(mesh="tri", n=4, k=1, solution="test1", out=str(out), vtk=str(vtk))
    rep = H.run_solve(cfg)
    assert np.isfinite(rep.errors.err_sigma_proj)
    assert rep.errors.err_u_proj < rep.errors.err_sigma_proj
    assert out.exists() and vtk.exists()
    assert out.read_text().startswith("k,mesh,h,")


def test_run_solve_rejects_bad_config():
    with pytest.raises(H.ConfigError):
        H.run_solve(H.RunConfig(k=0))


def test_run_convergence_requires_levels():
    with pytest.raises(H.ConfigError):
        H.run_convergence(H.RunConfig(), (4,))


def test_run_locking_requires_plane_strain():
    with pytest.raises(H.ConfigError):
        H.run_locking(H.RunConfig(material="plane_stress"), (0.49,), (2, 4))


def test_run_locking_rejects_incompressible_nu():
    cfg = H.RunConfig(material="plane_strain", solution="test2", E=3.0)
    with pytest.raises(H.ConfigError):
        H.run_locking(cfg, (0.5,), (2, 4))


def test_run_locking_rejects_repeated_nu():
    cfg = H.RunConfig(material="plane_strain", solution="test2", E=3.0)
    with pytest.raises(H.ConfigError, match="^nu_list: "):
        H.run_locking(cfg, (0.49, 0.4999, 0.49), (2, 4))


def test_run_locking_spread(tmp_path):
    cfg = H.RunConfig(mesh="tri", k=1, material="plane_strain", solution="test2", E=3.0,
                      out=str(tmp_path / "lock.csv"))
    tables, spread = H.run_locking(cfg, (0.49, 0.4999), (2, 4))
    assert set(tables) == {0.49, 0.4999}
    assert all(rel < 0.10 for rel in spread.values())
    assert (tmp_path / "lock_nu0.49.csv").exists()


# --- command line ----------------------------------------------------------


def test_cli_solve_exit_zero(tmp_path, capsys):
    rc = cli.main(["solve", "--mesh", "tri", "--n", "4", "--k", "1",
                   "--solution", "test1", "--out", str(tmp_path / "o.csv")])
    assert rc == cli.EXIT_OK
    assert "sigma_proj=" in capsys.readouterr().out


def test_cli_rigid_solution_near_exact(capsys):
    rc = cli.main(["solve", "--mesh", "poly", "--n", "2", "--k", "1", "--solution", "rigid"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    err = float(out.split("u_proj=")[1].split()[0])
    assert err < 1e-10


def test_cli_solve_reports_solver(capsys):
    rc = cli.main(["solve", "--mesh", "tri", "--n", "4", "--k", "1", "--solver", "cg"])
    assert rc == cli.EXIT_OK
    tail = capsys.readouterr().out.split()[-3:]
    fields = dict(item.split("=") for item in tail)
    assert list(fields) == ["solver", "it", "residual"]
    assert fields["solver"] == "cg"
    assert int(fields["it"]) > 0
    assert float(fields["residual"]) < 1e-10


def test_cli_k0_refused(capsys):
    for command, flags in (("solve", ["--n", "2"]), ("convergence", ["--n-sequence", "2,4"]),
                           ("locking", ["--n-sequence", "2,4"])):
        rc = cli.main([command, "--k", "0", *flags])
        assert rc == cli.EXIT_CONFIG, command
        assert capsys.readouterr().err.startswith("config error: k: must be >= 1"), command


def test_cli_config_file_with_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("mesh = tri\nn = 2\nk = 1\nsolution = rigid\n")
    rc = cli.main(["solve", "--config", str(cfgfile), "--n", "3"])
    assert rc == cli.EXIT_OK
    assert "tri-n3" in capsys.readouterr().out


def test_cli_missing_config_file():
    assert cli.main(["solve", "--config", "/no/such/file.cfg"]) == cli.EXIT_CONFIG


def test_cli_convergence_deterministic_csv(tmp_path):
    args = ["convergence", "--mesh", "tri", "--k", "1", "--n-sequence", "2,4",
            "--solution", "test1", "--out", str(tmp_path / "c1.csv")]
    assert cli.main(args) == cli.EXIT_OK
    first = (tmp_path / "c1.csv").read_bytes()
    args[-1] = str(tmp_path / "c2.csv")
    assert cli.main(args) == cli.EXIT_OK
    assert first == (tmp_path / "c2.csv").read_bytes()


def test_cli_solve_csv_bytes_pinned(tmp_path):
    # the CSV of a fixed solve, byte for byte: a change that moves an error
    # norm into another printed digit changes this text
    out = tmp_path / "s.csv"
    args = ["solve", "--mesh", "tri", "--n", "8", "--k", "1", "--out", str(out)]
    assert cli.main(args) == cli.EXIT_OK
    assert out.read_bytes() == (
        b"k,mesh,h,err_sigma_proj,order,err_u_proj,order,err_sigma,err_u,trace_diag,order\n"
        b"1,tri-n8,0.1768,2.49E-02,-,2.46E-03,-,4.33E-02,2.50E-03,3.77E-02,-\n"
    )


def test_cli_convergence_stdout_equals_csv(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert cli.main(["convergence", "--mesh", "poly", "--k", "1", "--n-sequence", "2,4",
                     "--out", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_cli_locking_rejects_bad_nu(capsys):
    rc = cli.main(["locking", "--nu-list", "0.6", "--n-sequence", "2,4", "--k", "1"])
    assert rc == cli.EXIT_CONFIG


LOCKING = ["locking", "--k", "1", "--n-sequence", "2,4", "--nu-list", "0.3"]


def test_cli_locking_defaults_yield_to_config_and_flags(tmp_path, capsys):
    # plane strain, test2 and E = 3 are the sweep's defaults, not overrides
    def run(*extra):
        assert cli.main(LOCKING + list(extra)) == cli.EXIT_OK
        return capsys.readouterr().out

    bare = run()
    assert bare == run("--solution", "test2", "--E", "3")
    e1 = run("--E", "1")
    assert e1 != bare
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("E = 1\n")
    assert run("--config", str(cfgfile)) == e1
    assert run("--solution", "test1") != bare


def test_cli_locking_rejects_plane_stress(tmp_path, capsys):
    # plane strain is the sweep's only material: locking reads no material
    with pytest.raises(SystemExit) as exc:
        cli.main(LOCKING + ["--material", "plane_stress"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments: --material" in capsys.readouterr().err
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("material = plane_stress\n")
    assert cli.main(LOCKING + ["--config", str(cfgfile)]) == cli.EXIT_CONFIG
    assert "key 'material' is not read by locking" in capsys.readouterr().err


def test_cli_locking_rejects_repeated_nu(capsys):
    argv = ["locking", "--k", "1", "--n-sequence", "2,4", "--nu-list", "0.49,0.49"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: nu_list: ") and err.count("\n") == 1


def test_cli_unknown_material_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--n", "2", "--material", "deviatoric"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "argument --material: invalid choice: 'deviatoric'" in capsys.readouterr().err


def test_cli_auto_solver_is_config_error(tmp_path, capsys):
    # the direct solve is the default; there is no size-switched policy
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--n", "2", "--solver", "auto"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "argument --solver: invalid choice: 'auto'" in capsys.readouterr().err
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("solver = auto\n")
    assert cli.main(["solve", "--n", "2", "--config", str(cfgfile)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: solver: expected one of cholesky, cg")
    assert H.RunConfig().solver == "cholesky"


def test_cli_trace_variant_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--trace-variant", "plain"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments: --trace-variant" in capsys.readouterr().err


def test_cli_trace_variant_config_key_is_unknown(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("trace_variant = plain\n")
    assert cli.main(["solve", "--config", str(cfgfile)]) == cli.EXIT_CONFIG
    assert "unknown key 'trace_variant'" in capsys.readouterr().err


def test_cli_check_is_no_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "invalid choice: 'check'" in capsys.readouterr().err


def test_cli_solver_failure_exit_code(monkeypatch, capsys):
    from hdgelast.hdg_global import SolverError

    def boom(cfg):
        raise SolverError("synthetic breakdown")

    monkeypatch.setattr(cli, "run_solve", boom)
    assert cli.main(["solve", "--n", "2"]) == cli.EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,field",
    [
        (["--E", "0"], "E"),
        (["--tau-c", "nan"], "tau_c"),
        (["--tol", "-1"], "tol"),
        (["--tol", "0", "--solver", "cg"], "tol"),
    ],
)
def test_cli_bad_value_is_config_error(flags, field, capsys):
    rc = cli.main(["solve", "--mesh", "tri", "--n", "2", "--k", "1", *flags])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_CONFIG
    assert err.startswith(f"config error: {field}: must be positive and finite")
    assert "Traceback" not in err


# --- failures and flags declared once ---------------------------------------


@pytest.mark.parametrize(
    "argv,code,prefix,names",
    [
        (["solve", "--k", "25"], 2, "config error: ", "k:"),
        (["solve", "--n", "2", "--k", "12"], 2, "config error: ", "k <= 10"),
        (["solve", "--n", "2", "--E", "1e-300"], 2, "config error: ", "singular"),
        (["solve", "--material", "plane_strain", "--nu", "0.4999999999"], 3,
         "solver failure: ", "element 0"),
        (["solve", "--n", "2", "--tau-c", "1e-300"], 3, "solver failure: ", "element 0"),
        (["solve", "--mesh", "poly", "--n", "1"], 2, "config error: ", "n:"),
        (["convergence", "--n-sequence", "4,4"], 2, "config error: ", "n_sequence:"),
        # orders are log2 of error ratios: levels that do not double are refused
        (["convergence", "--n-sequence", "4,12"], 2, "config error: ", "n_sequence:"),
        (["locking", "--n-sequence", "4,6"], 2, "config error: ", "n_sequence:"),
    ],
)
def test_cli_failure_is_one_line_named_exit(argv, code, prefix, names, capsys):
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and names in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "module,name,code",
    [
        ("harness", "ConfigError", 2),
        ("mesh", "MeshConstructionError", 2),
        ("fespace", "QuadratureDegreeError", 2),
        ("material", "SingularMaterialError", 2),
        ("hdg_global", "SolverError", 3),
        ("hdg_local", "LocalSolverError", 3),
        ("hdg_local", "AssemblyError", 3),
        ("fespace", "ElementConditioningError", 3),
    ],
)
def test_package_errors_carry_exit_code(module, name, code):
    cls = getattr(importlib.import_module(f"hdgelast.{module}"), name)
    assert issubclass(cls, HdgelastError)
    assert cls.exit_code == code
    assert cls.prefix == {2: "config error", 3: "solver failure"}[code]


FLAG_VALUES = {"--n": "2", "--n-sequence": "2,4", "--nu-list": "0.3", "--vtk": "f.vtk",
               "--nu": "0.3", "--p-d": "1", "--material": "plane_strain", "--mesh": "tri",
               "--solution": "test1", "--out": "f.csv"}


@pytest.mark.parametrize(
    "command,flag",
    [("solve", f) for f in ("--n-sequence", "--nu-list", "--p-d")]
    + [("convergence", f) for f in ("--n", "--nu-list", "--vtk")]
    + [("locking", f) for f in ("--n", "--nu", "--material", "--vtk")],
)
def test_cli_flag_the_command_does_not_read_is_usage_error(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, FLAG_VALUES[flag]])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_config_key_the_command_does_not_read(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n = 2\nn_sequence = 2 4\n")
    assert cli.main(["solve", "--config", str(cfgfile)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "'n_sequence'" in err and "solve" in err


def test_cli_unwritable_output_and_empty_sweep_are_config_errors(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "row.csv"
    assert cli.main(["solve", "--n", "2", "--out", str(missing)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("nu_list =\n")
    assert cli.main(["locking", "--config", str(cfgfile), "--n-sequence", "2,4"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: nu_list:")

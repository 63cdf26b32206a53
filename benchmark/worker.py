"""One benchmark process: repeat a workload's driver call and check it.

Reads a job as JSON on stdin and prints its result as one JSON line on
stdout. The runner (run.py) starts it in a fresh interpreter with BLAS
pinned to one thread, so its peak resident memory after the first call is
that of a process which ran the workload once.

    python3 benchmark/worker.py --capture   # rewrite reference.json

`--capture` runs every workload once and stores its error norms as the
reference the benchmark checks against.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from calibrate import MIXED_REFERENCE_S, MixedUnit, SpeedProbe
from hdgelast import cli, harness, hdg_global
from hdgelast.postproc import CSV_COLUMNS, rates
from tracing import Tracer, instrument
from workloads import ERROR_KEYS, SMOKE_WORKLOADS, WORKLOADS

REFERENCE = Path(__file__).with_name("reference.json")


class Call:
    """A workload's driver call plus the per-solve output it produced."""

    def __init__(self, spec: dict, out_dir: Path):
        self.spec = spec
        self.csv = out_dir / "solve.csv"
        self.vtk = out_dir / "solve.vtk"

    def __call__(self) -> dict[str, dict]:
        """Run the driver; return error-norm rows keyed by solve label."""
        spec = self.spec
        if spec["driver"] == "convergence":
            cfg = harness.RunConfig(**spec["config"])
            table = harness.run_convergence(cfg, tuple(spec["ns"]))
            return {row["mesh"]: row for row in table.rows}
        if spec["driver"] == "locking":
            cfg = harness.RunConfig(**spec["config"])
            tables, _ = harness.run_locking(cfg, tuple(spec["nus"]), tuple(spec["ns"]))
            return {f"nu={nu}/{row['mesh']}": row for nu, t in tables.items() for row in t.rows}
        reports = []
        run_solve = cli.run_solve

        def keep(*args, **kwargs):
            reports.append(run_solve(*args, **kwargs))
            return reports[-1]

        argv = spec["argv"] + ["--out", str(self.csv), "--vtk", str(self.vtk)]
        cli.run_solve = keep
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        finally:
            cli.run_solve = run_solve
        if code != 0:
            raise RuntimeError(f"cli exit code {code}")
        return {rep.mesh_label: rep.errors.as_row(rep.mesh_label) for rep in reports}

    def files(self) -> dict:
        """Digest of the CSV/VTK files the cli workload wrote."""
        if self.spec["driver"] != "cli":
            return {}
        return {"csv": read_csv_row(self.csv), "vtk": vtk_digest(self.vtk)}


def read_csv_row(path: Path) -> dict:
    header, row = path.read_text().splitlines()
    if header.split(",") != list(CSV_COLUMNS):
        raise ValueError(f"unexpected CSV header {header!r}")
    return {name: cell for name, cell in zip(CSV_COLUMNS, row.split(",")) if name in ERROR_KEYS}


def vtk_digest(path: Path) -> dict:
    """Line count and sum of |numbers| of a legacy VTK file."""
    lines = path.read_text().splitlines()
    total = 0.0
    for line in lines[4:]:
        for tok in line.split():
            try:
                total += abs(float(tok))
            except ValueError:
                pass
    return {"lines": len(lines), "abs_sum": total}


def mismatches(rows: dict, files: dict, reference: dict, rtol: float) -> dict[str, str]:
    """Why each solve's output is off the reference, by solve label; solves
    that match are left out."""
    out = {}
    for label, ref in reference.items():
        row = rows.get(label)
        if row is None:
            out[label] = "missing"
            continue
        bad = [k for k in ERROR_KEYS if not math.isclose(row[k], ref[k], rel_tol=rtol, abs_tol=0.0)]
        if "csv" in files:
            # the CSV carries 3 significant digits
            bad += [f"csv.{k}" for k, v in files["csv"].items()
                    if not math.isclose(float(v), ref[k], rel_tol=5e-3)]
            vtk = files["vtk"]
            if vtk["lines"] != ref["vtk_lines"] or not math.isclose(
                vtk["abs_sum"], ref["vtk_abs_sum"], rel_tol=1e-7
            ):
                bad.append("vtk")
        out[label] = ", ".join(bad)
    return {k: v for k, v in out.items() if v}


def solve_health(tracer: Tracer) -> list[dict]:
    """True relative residual of every traced solve, its CG iterations, and
    the minimum pivot of the direct path on the same system (taken from the
    solve itself when it was direct)."""
    health = []
    for system, full, stats in tracer.solves:
        x = full[system.dofmap.interior_index >= 0]
        bnorm = np.linalg.norm(system.rhs)
        res = np.linalg.norm(system.matrix @ x - system.rhs) / bnorm if bnorm > 0 else 0.0
        pivot = stats.min_pivot
        if stats.method != "cholesky":
            pivot = hdg_global.solve_condensed(system, "cholesky")[1].min_pivot
        health.append({"method": stats.method, "n": stats.n, "nnz": stats.nnz,
                       "cg_iterations": stats.iterations, "residual": float(res),
                       "min_pivot": float(pivot)})
    return health


def layer_metrics(tracer: Tracer, wall: float, health: list[dict]) -> dict[str, float]:
    m = tracer.layer_self_times()
    accounted = sum(m.values())
    if not math.isclose(accounted, tracer.spans[0].duration, rel_tol=1e-9):
        raise AssertionError(f"self times sum to {accounted}, root span {tracer.spans[0].duration}")
    elements = sum(mesh.num_elements for mesh in tracer.meshes)
    m.update({
        "mesh.elements": elements,
        "mesh.faces": sum(mesh.num_faces for mesh in tracer.meshes),
        "hdg_local.us_per_element": 1e6 * m["hdg_local.element_s"] / elements,
        "manufactured.calls": tracer.manufactured_calls(),
        "hdg_global.nnz": sum(h["nnz"] for h in health),
        "hdg_global.trace_dofs": sum(h["n"] for h in health),
        "hdg_global.cg_iterations": sum(h["cg_iterations"] for h in health),
        "hdg_global.residual_max": max(h["residual"] for h in health),
        "hdg_global.min_pivot": min(h["min_pivot"] for h in health),
        "postproc.bytes_written": tracer.bytes_written,
        "trace.wall_s": wall,
    })
    return m


def blas_info() -> list[dict]:
    """Every OpenBLAS loaded in this process with its thread count."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    info.update(threads=threads(), config=config().decode())
        out.append(info)
    return out


def timed_call(call: Call, reference: dict, rtol: float, tracer: Tracer | None,
               probe: SpeedProbe | None = None):
    """One driver call: (wall seconds, normalized seconds or None, rows,
    mismatches by solve label). With a probe, the wall time leaves out the
    time spent in its samples."""
    t0 = time.perf_counter()
    norm = None
    try:
        if probe is not None:
            rows, wall, norm = probe.time(call)
        elif tracer is None:
            rows = call()
            wall = time.perf_counter() - t0
        else:
            with instrument(tracer):
                root = tracer.wrap("harness", call)
                t0 = time.perf_counter()
                rows = root()
                wall = time.perf_counter() - t0
        return wall, norm, rows, mismatches(rows, call.files(), reference, rtol)
    except Exception as exc:  # a failed driver call fails all of its solves
        wall = time.perf_counter() - t0
        return wall, None, {}, {label: f"{type(exc).__name__}: {exc}" for label in reference}


def run(job: dict) -> dict:
    """Repeat the driver call while at least half of the next round fits
    before the deadline, so a run ends within half a round of it.

    Untraced, a round is one timed call, sampled by a SpeedProbe (see
    calibrate.py) for its normalized time. Traced, a round is one untraced
    and one traced call, in alternating order and without the probe, so the
    two medians give the tracing overhead. The process's peak memory is read
    after its first call, which is always untraced."""
    spec, reference = job["spec"], job["reference"]
    call = Call(spec, Path(job["out_dir"]))
    result = {"attempted": 0, "failed": 0, "failures": {}, "walls": [], "norm_walls": [],
              "traced_walls": [], "layers": [], "health": [], "spans": {}, "levels": {},
              "orders": {}}
    probe = None if job["trace"] else SpeedProbe(MixedUnit(), MIXED_REFERENCE_S)

    def record(tracer: Tracer | None) -> None:
        wall, norm, rows, bad = timed_call(call, reference, spec["rtol"], tracer, probe)
        result["attempted"] += len(reference)
        result["failed"] += len(bad)
        result["failures"].update(bad)
        if not rows:  # the call raised: nothing was measured
            return
        if spec["driver"] == "convergence":
            result["orders"] = {k: rates([row[k] for row in rows.values()])
                                for k in ("err_sigma_proj", "err_u_proj")}
        if tracer is None:
            result["walls"].append(wall)
            if norm is not None:
                result["norm_walls"].append(norm)
            result.setdefault(
                "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
        else:
            health = solve_health(tracer)
            result["layers"].append(layer_metrics(tracer, wall, health))
            result["traced_walls"].append(wall)
            result["health"], result["spans"] = health, tracer.span_summary()
            result["levels"] = dict(zip(rows, tracer.level_self_times()))

    deadline = time.perf_counter() + job["seconds"]
    rounds = 0
    with probe.sampling() if probe else contextlib.nullcontext():
        while True:
            start = time.perf_counter()
            if probe:
                record(None)
            else:
                for traced in (rounds % 2 == 1, rounds % 2 == 0):
                    record(Tracer() if traced else None)
            rounds += 1
            now = time.perf_counter()
            if now + (now - start) / 2 > deadline:
                break
    if probe:
        result["probe_units"] = len(probe.units)
        result["probe_unit_s"] = statistics.median(probe.units) if probe.units else None
    return result


def environment() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_info(),
            "hdgelast": harness.__file__}


def capture() -> None:
    """Store every workload's error norms (and the cli's file digests)."""
    out_dir = Path(__file__).resolve().parent / ".capture"
    out_dir.mkdir(exist_ok=True)
    ref = {}
    try:
        for name, spec in {**WORKLOADS, **SMOKE_WORKLOADS}.items():
            call = Call(spec, out_dir)
            rows = call()
            files = call.files()
            ref[name] = {label: {k: row[k] for k in ERROR_KEYS} for label, row in rows.items()}
            if files:
                for entry in ref[name].values():
                    entry.update(vtk_lines=files["vtk"]["lines"], vtk_abs_sum=files["vtk"]["abs_sum"])
    finally:
        for f in out_dir.iterdir():
            f.unlink()
        out_dir.rmdir()
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--capture"]:
        capture()
    else:
        job = json.load(sys.stdin)
        result = run(job)
        result["env"] = environment()
        print(json.dumps(result))

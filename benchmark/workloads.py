"""Workload definitions and metric names shared by the runner and worker.

Every workload is one call into a public hdgelast driver. The meshes are
structured, so a workload's inputs are fixed; the seed only orders the
run: it sets where the set-up probes fall relative to the workload process.

Sizes are cut down from the full studies so that a 35-second run repeats
each driver call several times. Each cut keeps the workload's purpose:

- study_tri_k2: levels 4, 8, 16 (the full study adds 32). Element stage
  plus error evaluation still do most of the work; the direct solve is a
  few percent.
- locking_poly_cg: the sweep keeps only its most incompressible ratio,
  0.49999, at levels 12, 24 (the full sweep adds 0.49 and 0.4999 and runs
  8, 16, 32). At n=24 the block-Jacobi CG solve is still the largest
  layer; at n=20 it no longer is, so the finest level cannot shrink
  further. Dropping the milder ratios doubles the calls per run, which
  the host's timing noise needs.
- solve_tri_io: n=32 (the full run uses 64). It keeps the largest peak
  memory and the largest direct factorization of the three, and is the
  only workload writing CSV and VTK files.
"""

from __future__ import annotations

# `rtol` is the relative tolerance on the stored error norms. Direct solves
# reproduce them to about 1e-12. CG at nu=0.49999 stops at a true residual
# near 1e-8, and its error norms then sit up to 5e-8 away from the direct
# solution of the same system, so any change in summation order moves them
# by that much.
WORKLOADS: dict[str, dict] = {
    "study_tri_k2": {
        "driver": "convergence",
        "config": {"mesh": "tri", "k": 2, "solution": "test1",
                   "material": "plane_stress", "solver": "cholesky"},
        "ns": [4, 8, 16],
        "rtol": 1e-9,
    },
    "locking_poly_cg": {
        "driver": "locking",
        "config": {"mesh": "poly", "k": 2, "solution": "test2",
                   "material": "plane_strain", "E": 3.0, "solver": "cg"},
        "ns": [12, 24],
        "nus": [0.49999],
        "rtol": 1e-6,
    },
    "solve_tri_io": {
        "driver": "cli",
        "argv": ["solve", "--mesh", "tri", "--n", "32", "--k", "1"],
        "rtol": 1e-9,
    },
}

# Seconds-long versions of the same drivers, for the benchmark's smoke test.
SMOKE_WORKLOADS: dict[str, dict] = {
    "smoke_study": {**WORKLOADS["study_tri_k2"], "ns": [2, 4]},
    "smoke_locking": {**WORKLOADS["locking_poly_cg"], "ns": [2, 4]},
    "smoke_cli": {**WORKLOADS["solve_tri_io"],
                  "argv": ["solve", "--mesh", "tri", "--n", "4", "--k", "1"]},
}

ERROR_KEYS = ("err_sigma_proj", "err_u_proj", "err_sigma", "err_u", "trace_diag")

END_TO_END = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "mesh.build_s": "s",
    "mesh.elements": "count",
    "mesh.faces": "count",
    "fespace.discretize_s": "s",
    "fespace.boundary_s": "s",
    "hdg_local.element_s": "s",
    "hdg_local.us_per_element": "us",
    "manufactured.eval_s": "s",
    "manufactured.calls": "count",
    "hdg_global.assemble_s": "s",
    "hdg_global.recover_s": "s",
    "hdg_global.nnz": "count",
    "hdg_global.trace_dofs": "count",
    "hdg_global.solve_s": "s",
    "hdg_global.cg_iterations": "count",
    "hdg_global.residual_max": "ratio",
    "hdg_global.min_pivot": "1",
    "postproc.errors_s": "s",
    "postproc.write_s": "s",
    "postproc.bytes_written": "bytes",
    "harness.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

"""hdgelast benchmark runner.

    python3 benchmark/run.py --workload study_tri_k2 --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout: the package is imported from
`src/`, nothing is installed. Load is closed loop: one worker process
makes one driver call at a time, with BLAS pinned to one thread.

With `--trace 0` it reports the end-to-end metrics: the median
normalized time of the workload's driver call (its time at a reference
host speed, see calibrate.py), the set-up time of a fresh interpreter
(median of several probes), and the peak resident memory of a fresh
process that ran the workload once. With `--trace 1` it alternates
untraced and traced calls and reports per-layer self times and counts
(see tracing.py), plus the tracing overhead. Every solve of every call is
checked against the error norms in reference.json.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
the environment, the sample counts and the per-solve details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import MIXED_REFERENCE_S, PYTHON_REFERENCE_S, SpeedProbe, python_unit
from workloads import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
# Imports only the standard library before sampling starts, so the probe
# does not load numpy ahead of hdgelast.
SETUP_CODE = (
    "import json, sys\n"
    f"sys.path.insert(0, {str(HERE)!r})\n"
    "from calibrate import PYTHON_REFERENCE_S, SpeedProbe, python_unit\n"
    "probe = SpeedProbe(python_unit, PYTHON_REFERENCE_S)\n"
    "with probe.sampling():\n"
    "    from hdgelast import harness\n"
    "    harness.run_solve(harness.RunConfig(mesh='tri', n=2, k=1))\n"
    "print(json.dumps(probe.units))\n"
)
# the whole run must end within 180 s; this leaves room for the probes
WORKER_TIMEOUT_S = 140


class BenchmarkError(Exception):
    """The benchmark could not measure (missing sources, crashed worker)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "HDG_THREADS"):
        env[var] = "1"
    return env


def setup_probe(env: dict[str, str]) -> tuple[float, float]:
    """Seconds for a fresh interpreter to import hdgelast and finish a
    tri n=2 k=1 solve: (wall time less the speed probe's units, the same
    normalized by the probe)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    units = json.loads(proc.stdout.strip().splitlines()[-1])
    return SpeedProbe(python_unit, PYTHON_REFERENCE_S).normalize(elapsed, units)


def run_worker(job: dict, env: dict[str, str]) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    src = ROOT / "src"
    if not Path(result["env"]["hdgelast"]).resolve().is_relative_to(src):
        raise BenchmarkError(f"hdgelast imported from {result['env']['hdgelast']}, not {src}")
    return result


def measure(spec: dict, reference: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Run the worker (and, untraced, the set-up probes in an order drawn
    from the seed). Returns the worker result plus `setup` times."""
    if not (ROOT / "src" / "hdgelast" / "__init__.py").is_file():
        raise BenchmarkError(f"no hdgelast sources under {ROOT / 'src'}")
    env = child_env()
    out_dir = ROOT / ".bench_run" / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    job = {"spec": spec, "reference": reference, "seconds": seconds, "trace": trace,
           "out_dir": str(out_dir)}
    probes = 0 if trace else SETUP_PROBES
    worker_at = random.Random(seed).randrange(probes + 1)
    setup, result = [], None
    try:
        for i in range(probes + 1):
            if i == worker_at:
                result = run_worker(job, env)
            else:
                setup.append(setup_probe(env))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if out_dir.parent.exists() and not any(out_dir.parent.iterdir()):
            out_dir.parent.rmdir()
    result["setup"] = setup
    return result


def metrics_of(result: dict, trace: bool) -> dict[str, float]:
    if trace:
        if not result["layers"] or not result["walls"]:
            raise BenchmarkError("no traced call completed")
        m = {name: statistics.median(layer[name] for layer in result["layers"])
             for name in PER_LAYER if name != "trace.overhead_s"}
        m["trace.overhead_s"] = (statistics.median(result["traced_walls"])
                                 - statistics.median(result["walls"]))
        return m
    if not result["norm_walls"]:
        raise BenchmarkError("no driver call completed")
    return {"norm_wall_s": statistics.median(result["norm_walls"]),
            "setup_s": statistics.median(norm for _, norm in result["setup"]),
            "peak_rss_mb": result["peak_rss_mb"]}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment(result: dict, seed: int, argv: list[str]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": result["env"]["numpy"],
        "scipy": result["env"]["scipy"],
        "blas": result["env"]["blas"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "command": [Path(sys.argv[0]).as_posix()] + argv,
        "load": "closed loop, 1 worker process, 1 driver call at a time",
    }


def report(result: dict, metrics: dict, units: dict, seed: int, argv: list[str]) -> dict:
    """Print the detail lines; return the final result object."""
    print("env " + json.dumps(environment(result, seed, argv)))
    walls = result["walls"]
    print(f"samples: {len(walls)} untraced driver calls, wall time median "
          f"{statistics.median(walls):.4f} s, max {max(walls):.4f} s (too few samples for "
          f"a high percentile with 10 beyond it): " + " ".join(f"{w:.4f}" for w in walls))
    if result["norm_walls"]:
        norm = result["norm_walls"]
        print(f"samples: normalized call times, median {statistics.median(norm):.4f} s, max "
              f"{max(norm):.4f} s: " + " ".join(f"{w:.4f}" for w in norm))
        if result["probe_unit_s"] is not None:
            print(f"speed probe: {result['probe_units']} units, median "
                  f"{result['probe_unit_s'] * 1e3:.4f} ms "
                  f"(reference {MIXED_REFERENCE_S * 1e3:.4f} ms)")
    if result["traced_walls"]:
        print(f"samples: {len(result['traced_walls'])} traced driver calls: "
              + " ".join(f"{w:.4f}" for w in result["traced_walls"]))
    if result["setup"]:
        print("setup_s probes, own / normalized seconds: "
              + " ".join(f"{own:.4f}/{norm:.4f}" for own, norm in result["setup"]))
    for key, orders in result["orders"].items():
        cells = " ".join("-" if o is None else f"{o:.2f}" for o in orders)
        print(f"observed order {key} (information only): {cells}")
    for h in result["health"]:
        print("solve " + json.dumps(h))
    for label, layers in result["levels"].items():
        total = sum(layers.values())
        top = sorted(layers.items(), key=lambda kv: -kv[1])[:4]
        print(f"level {label}: {total:.4f} s; "
              + ", ".join(f"{name} {t / total:.0%}" for name, t in top))
    for name, row in result["spans"].items():
        print(f"span {name}: calls={row['calls']} total={row['total_s']:.4f} s "
              f"self={row['self_s']:.4f} s")
    for label, why in sorted(result["failures"].items()):
        print(f"FAILED {label}: {why}")
    fail_rate = result["failed"] / result["attempted"]
    print(f"fail_rate: {fail_rate:.6f} (1) = {result['failed']} failed / "
          f"{result['attempted']} attempted solves")
    for name, value in metrics.items():
        print(f"metric {name}: {value:.6g} {units[name]}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    try:
        reference = json.loads((HERE / "reference.json").read_text())[args.workload]
        result = measure(WORKLOADS[args.workload], reference, args.seed, args.seconds, trace)
        metrics = metrics_of(result, trace)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER if trace else END_TO_END
    print(json.dumps(report(result, metrics, units, args.seed, argv)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

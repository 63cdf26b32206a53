"""Layer spans recorded from outside the hdgelast package.

`instrument(tracer)` replaces the public functions each layer is entered
through with wrappers that record one span per call (name, parent, start,
end) and restores them afterwards. The package itself is not edited: the
wrappers are installed on the module attributes the drivers look up at
call time, which is why `build_mesh`, `write_csv` and `write_vtk` are
patched on `harness` (which imports them by name) and the `hdg_global`
functions on `hdg_global` (which `harness` reaches through the module).

Exact-data evaluation is reached through callbacks: `harness` builds its
body-force and boundary-data closures over `manufactured.body_force` and
`manufactured.boundary_data`, `postproc` binds `stress` by name, and every
other evaluation goes through the `u`/`grad`/`hess` callables of the
`ExactSolution` returned by `manufactured.solution_by_name`, which is
wrapped to hand out traced callables.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time

# span name -> per-layer metric that receives its self time
SELF_TIME_METRIC = {
    "harness": "harness.self_s",
    "mesh.build": "mesh.build_s",
    "fespace.discretize": "fespace.discretize_s",
    "fespace.boundary": "fespace.boundary_s",
    "hdg_local.element": "hdg_local.element_s",
    "hdg_global.assemble": "hdg_global.assemble_s",
    "hdg_global.solve": "hdg_global.solve_s",
    "hdg_global.recover": "hdg_global.recover_s",
    "postproc.errors": "postproc.errors_s",
    "postproc.write": "postproc.write_s",
    "manufactured.body_force": "manufactured.eval_s",
    "manufactured.boundary_data": "manufactured.eval_s",
    "manufactured.stress": "manufactured.eval_s",
    "manufactured.u": "manufactured.eval_s",
    "manufactured.grad": "manufactured.eval_s",
    "manufactured.hess": "manufactured.eval_s",
}


@dataclasses.dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for the root
    start: float
    end: float = 0.0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Spans of one traced driver call, kept in memory.

    Calls are single-threaded and nested, so a stack gives each span its
    parent, and the children of a span never overlap: self time is the
    duration minus the summed child durations."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.solves: list[tuple] = []  # (system, full trace, SolverStats)
        self.meshes: list = []
        self.bytes_written = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent].child_time += span.duration
            if after is not None:
                after(args, result)
            return result

        return traced

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(SELF_TIME_METRIC.values(), 0.0)
        for span in self.spans:
            out[SELF_TIME_METRIC[span.name]] += span.self_time
        return out

    def level_self_times(self) -> list[dict[str, float]]:
        """Layer self times per solve, in call order. A solve's spans run
        from its mesh.build span to the next one; the root is left out."""
        levels: list[dict[str, float]] = []
        for span in self.spans[1:]:
            if span.name == "mesh.build":
                levels.append({})
            if levels:
                metric = SELF_TIME_METRIC[span.name]
                levels[-1][metric] = levels[-1].get(metric, 0.0) + span.self_time
        return levels

    def manufactured_calls(self) -> int:
        """Calls into exact-data evaluation from another layer; nested
        evaluations (stress -> grad) are part of the same call."""
        return sum(
            1
            for s in self.spans
            if s.name.startswith("manufactured.")
            and (s.parent < 0 or not self.spans[s.parent].name.startswith("manufactured."))
        )

    def span_summary(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.self_time
        return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the layer wrappers for the duration of the block."""
    from hdgelast import harness, hdg_global, manufactured, postproc

    def keep_mesh(args, mesh):
        tracer.meshes.append(mesh)

    def keep_solve(args, result):
        full, stats = result
        tracer.solves.append((args[0], full, stats))

    def count_bytes(args, result):
        path = [a for a in args if isinstance(a, str)][-1]
        tracer.bytes_written += os.path.getsize(path)

    solution_by_name = manufactured.solution_by_name

    def traced_solution(name):
        sol = solution_by_name(name)
        return dataclasses.replace(
            sol,
            u=tracer.wrap("manufactured.u", sol.u),
            grad=tracer.wrap("manufactured.grad", sol.grad),
            hess=tracer.wrap("manufactured.hess", sol.hess),
        )

    patches = [
        (harness, "build_mesh", "mesh.build", keep_mesh),
        (harness, "write_csv", "postproc.write", count_bytes),
        (harness, "write_vtk", "postproc.write", count_bytes),
        (hdg_global, "build_discretization", "fespace.discretize", None),
        (hdg_global, "boundary_trace_values", "fespace.boundary", None),
        (hdg_global, "build_element_systems", "hdg_local.element", None),
        (hdg_global, "assemble_global", "hdg_global.assemble", None),
        (hdg_global, "solve_condensed", "hdg_global.solve", keep_solve),
        (hdg_global, "recover_fields", "hdg_global.recover", None),
        (postproc, "error_norms", "postproc.errors", None),
        (postproc, "stress", "manufactured.stress", None),
        (manufactured, "body_force", "manufactured.body_force", None),
        (manufactured, "boundary_data", "manufactured.boundary_data", None),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in patches]
    saved.append((manufactured, "solution_by_name", solution_by_name))
    try:
        for module, attr, name, after in patches:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), after))
        manufactured.solution_by_name = traced_solution
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)

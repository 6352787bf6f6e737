"""Span tracing of oscthin from outside the package.

``Tracer.install`` replaces the public functions of each oscthin module by
wrappers, as module attributes, so the package's own calls go through
them; ``uninstall`` puts every original object back.  Each call records a
span (name, start, end, parent index) in memory; the spans are written out
once the traced pass is over.

Text readers and writers (``write_*``, ``read_*``, ``format_*``,
``parse_*``) are left unwrapped: their time is the I/O share of the layer
that calls them, which is how ``cli.main`` self time covers config parsing
and report, mesh and field writing.
"""

import functools
import importlib
import math
import time
import types
from collections import defaultdict

MODULES = ("geometry", "fem", "solve", "homogenize", "limit1d", "study", "cli")
IO_PREFIXES = ("write_", "read_", "format_", "parse_")
ASSEMBLY = ("fem.assemble_energy", "fem.assemble_residual",
            "fem.assemble_jacobian")


class _Overlay:
    """Stand-in for a module: the given attributes, the rest from the module."""

    def __init__(self, base, **attrs):
        self._base = base
        self.__dict__.update(attrs)

    def __getattr__(self, name):
        return getattr(self._base, name)


class _CountingLU:
    """SuperLU factor whose solve calls are counted."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        self._tracer.counts["solve.lu_solves"] += 1
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.replaced = []       # (owner, attribute, original object)
        self._stack = []

    # -- installation -----------------------------------------------------

    def install(self):
        hooks = {name: self._count_triangles for name in ASSEMBLY}
        hooks["solve.newton_solve"] = self._count_newton
        hooks["limit1d.solve_homogenized"] = self._count_limit
        for short in MODULES:
            module = importlib.import_module(f"oscthin.{short}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or attr.startswith(IO_PREFIXES)
                        or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                self._replace(module, attr,
                              self.wrap(name, obj, hooks.get(name)))
        solve = importlib.import_module("oscthin.solve")
        splu = self.wrap("solve.splu", solve.spla.splu, self._count_lu)
        self._replace(solve, "spla", _Overlay(solve.spla, splu=splu))
        return self

    def _replace(self, owner, attr, new):
        self.replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        while self.replaced:
            owner, attr, original = self.replaced.pop()
            setattr(owner, attr, original)

    def wrap(self, name, fn, on_return=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                result = on_return(args, kwargs, result)
            return result

        return traced

    # -- counters taken from arguments and results ------------------------

    def _count_triangles(self, args, kwargs, result):
        self.counts["fem.triangles"] += len(args[0].triangles)
        return result

    def _count_newton(self, args, kwargs, result):
        # the step length is backtrack ** halvings, with the factor the
        # solver was given (newton_solve(problem, init, constraints, opts))
        opts = kwargs.get("opts", args[3] if len(args) > 3 else None)
        if opts is None:
            opts = importlib.import_module("oscthin.solve").SolveOptions()
        backtrack = opts.ls_backtrack
        for stage in result[1].stages:
            self.counts["solve.newton_iters"] += stage.iterations
            for t in stage.step_lengths:
                halvings = (round(math.log(t) / math.log(backtrack))
                            if t < 1.0 else 0)
                self.counts["solve.ls_halvings"] += halvings
                self.counts["solve.ls_trials"] += halvings + 1
        return result

    def _count_limit(self, args, kwargs, result):
        self.counts["limit1d.newton_iters"] += result[1].total_iterations
        return result

    def _count_lu(self, args, kwargs, lu):
        self.counts["solve.lu_nnz"] += lu.L.nnz + lu.U.nnz
        self.counts["solve.a_nnz"] += args[0].nnz
        return _CountingLU(lu, self)

    # -- reduction --------------------------------------------------------

    def self_times(self):
        """Per-span duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def layer_metrics(tracer, pass_wall, bytes_written):
    """The per-layer metrics of one traced pass, by name."""
    total = defaultdict(float)
    calls = defaultdict(int)
    own = defaultdict(float)
    for (name, start, end, _), self_s in zip(tracer.spans,
                                              tracer.self_times()):
        total[name] += end - start
        calls[name] += 1
        own[name] += self_s
    counts = tracer.counts
    assembly_s = sum(total[name] for name in ASSEMBLY)
    lu_calls = calls["solve.splu"]
    trials = counts["solve.ls_trials"]
    metrics = {
        "geometry.fiber_segments.s": (total["geometry.fiber_segments"], "s"),
        "geometry.fiber_segments.calls": (calls["geometry.fiber_segments"],
                                          "count"),
        "geometry.locate_points.s": (total["geometry.locate_points"], "s"),
        "geometry.build_mesh.s": (total["geometry.build_cell_mesh"]
                                  + total["geometry.build_thin_mesh"], "s"),
        "study.corrector_field.s": (total["study.corrector_field"], "s"),
    }
    for name in ASSEMBLY:
        metrics[f"{name}.s"] = (total[name], "s")
        metrics[f"{name}.calls"] = (calls[name], "count")
    metrics.update({
        "fem.triangles_per_s": (
            counts["fem.triangles"] / assembly_s if assembly_s else 0.0, "1/s"),
        "solve.splu.s": (total["solve.splu"], "s"),
        "solve.splu.calls": (lu_calls, "count"),
        "solve.lu_fill": (counts["solve.lu_nnz"] / counts["solve.a_nnz"]
                          if counts["solve.a_nnz"] else 0.0, "ratio"),
        "solve.linear_solve.s": (total["solve.linear_solve"], "s"),
        "solve.linear_solve.calls": (calls["solve.linear_solve"], "count"),
        "solve.constrained_linear_solve.s": (
            total["solve.constrained_linear_solve"], "s"),
        "solve.constrained_linear_solve.calls": (
            calls["solve.constrained_linear_solve"], "count"),
        "solve.refine_steps": (int(counts["solve.lu_solves"]) - lu_calls,
                               "count"),
        "solve.newton_solve.self_s": (own["solve.newton_solve"], "s"),
        "solve.newton_iters": (int(counts["solve.newton_iters"]), "count"),
        "solve.ls_halvings": (int(counts["solve.ls_halvings"]), "count"),
        "solve.ls_accept_ratio": (counts["solve.newton_iters"] / trials
                                  if trials else 0.0, "ratio"),
        "homogenize.solve_cell.s": (total["homogenize.solve_cell"], "s"),
        "limit1d.solve_homogenized.s": (total["limit1d.solve_homogenized"],
                                        "s"),
        "limit1d.newton_iters": (int(counts["limit1d.newton_iters"]), "count"),
        "study.solve_thin.s": (total["study.solve_thin"], "s"),
        "study.flux_profile.s": (total["study.flux_profile"], "s"),
        "study.errors.s": (total["study.error_u"]
                           + total["study.error_corrector"], "s"),
        "study.run_study.self_s": (own["study.run_study"], "s"),
        "cli.main.self_s": (own["cli.main"], "s"),
        "cli.bytes_written": (bytes_written, "bytes"),
    })
    unaccounted = pass_wall - sum(own.values())
    metrics["trace.unaccounted_s"] = (unaccounted, "s")
    metrics["trace.unaccounted_frac"] = (unaccounted / pass_wall, "ratio")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}

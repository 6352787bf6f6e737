"""Self-test of the benchmark harness on a tiny config.

Usage (from the repository root): python3 bench/selftest.py

Runs a study (``--resolution 8``, eps 1/2 and 1/4) and a cell solve twice
through the worker's pass, traced, and checks that

* every wrapped module attribute is the original object again afterwards;
* self times are nonnegative and sum to the root-span durations, and the
  reported unaccounted time is the pass wall time minus those durations;
* a cell-only pass records no fiber or flux-profile work;
* the gate passes against outputs recorded from the first pass and fails
  once one stored value is perturbed or one output is NaN;
* line-search halvings are counted with the solver's backtracking factor.

Exits 0 when every check holds.
"""

import contextlib
import copy
import importlib
import io
import json
import os
import shutil
import sys
import tempfile

import gate
import worker
from spans import MODULES, Tracer

ROOT = worker.ROOT
TOLERANCE_S = 1e-9


def _tiny_ops(work):
    with open(os.path.join(ROOT, "configs", "reference.json")) as fh:
        config = json.load(fh)
    config["epsilons"] = [0.5, 0.25]
    path = os.path.join(work, "tiny.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    return [
        {"label": "study", "config": path,
         "argv": ["study", "--config", path, "--resolution", "8"]},
        {"label": "cell", "config": path,
         "argv": ["cell", "--config", path, "--resolution", "8"]},
    ]


def _snapshot():
    mods = [importlib.import_module(f"oscthin.{name}") for name in MODULES]
    return {(mod.__name__, attr): obj
            for mod in mods for attr, obj in vars(mod).items()}


def _traced_pass(ops, work, tag):
    spec = {"ops": ops, "out": os.path.join(work, tag), "trace": True,
            "spans_path": os.path.join(work, f"spans_{tag}.json")}
    with contextlib.redirect_stdout(io.StringIO()):
        result = worker.run_pass(spec)
    return result, spec["spans_path"]


def _recorded(ops):
    """A stored-reference document built from one pass's outputs."""
    return {"workloads": {"tiny": {
        op["label"]: ({"rows": op["outputs"]["rows"]} if "rows" in op["outputs"]
                      else {"summary": op["outputs"]["summary"]})
        for op in ops}}}


def _halvings(backtrack, step_lengths):
    """Halvings the tracer counts for one Newton stage with these steps."""
    from oscthin import solve

    tracer = Tracer()
    opts = solve.SolveOptions(ls_backtrack=backtrack)
    stage = solve.StageDiagnostics(delta=0.0)
    stage.step_lengths.extend(step_lengths)
    stage.iterations = len(step_lengths)
    diagnostics = solve.NewtonDiagnostics()
    diagnostics.stages.append(stage)
    tracer._count_newton((None, None, None), {"opts": opts},
                         (None, diagnostics))
    return tracer.counts["solve.ls_halvings"]


def main():
    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-",
                            dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        ops = _tiny_ops(work)
        before = _snapshot()
        first, spans_path = _traced_pass(ops, work, "first")
        after = _snapshot()
        changed = [key for key, obj in before.items() if after.get(key) is not obj]
        check(not changed and first["restored"] and first["wrapped"] > 0,
              f"{first['wrapped']} wrapped attributes restored "
              f"(changed: {changed[:3]})")

        with open(spans_path) as fh:
            spans = json.load(fh)["spans"]
        wall = first["wall_s"]
        roots = sum(end - start for _, start, end, parent in spans
                    if parent < 0)
        unaccounted = first["layers"]["trace.unaccounted_s"]["value"]
        check(first["self_s"]["min"] >= -TOLERANCE_S,
              f"self times nonnegative (min {first['self_s']['min']:.3g} s)")
        check(abs(first["self_s"]["sum"] - roots) <= TOLERANCE_S * len(spans),
              f"self times {first['self_s']['sum']:.6f} s = root spans "
              f"{roots:.6f} s")
        check(unaccounted >= 0.0
              and abs(wall - roots - unaccounted) <= TOLERANCE_S * len(spans),
              f"unaccounted {unaccounted:.6f} s = pass wall {wall:.6f} s "
              f"- root spans, from the written spans")

        cell_only, _ = _traced_pass(ops[1:], work, "cell")
        layers = cell_only["layers"]
        check(layers["geometry.fiber_segments.calls"]["value"] == 0
              and layers["study.flux_profile.s"]["value"] == 0.0
              and layers["solve.constrained_linear_solve.calls"]["value"] > 0,
              "cell pass: no fiber or flux-profile spans, constrained solves")

        second, _ = _traced_pass(ops, work, "second")
        reference = _recorded(first["ops"])
        agreement = first["coeff_agreement"]
        clean = gate.evaluate("tiny", 0, second["ops"], agreement, reference)
        check(clean["correct"] and clean["max_rel_dev"] == 0.0,
              f"gate passes on a repeated pass (max_rel_dev "
              f"{clean['max_rel_dev']})")
        for label, where in (("study", ("rows", 0, "err_u")),
                             ("cell", ("summary", "coeff_flux"))):
            bad = copy.deepcopy(reference)
            node = bad["workloads"]["tiny"][label]
            for key in where[:-1]:
                node = node[key]
            node[where[-1]] *= 1.0 + 1e-6
            verdict = gate.evaluate("tiny", 0, second["ops"], agreement, bad)
            check(not verdict["correct"],
                  f"gate fails when stored {label} {where[-1]} is perturbed "
                  f"(max_rel_dev {verdict['max_rel_dev']:.3g})")
        broken = copy.deepcopy(second["ops"])
        broken[0]["outputs"]["rows"][-1]["err_corrector"] = float("nan")
        verdict = gate.evaluate("tiny", 0, broken, agreement, reference)
        check(not verdict["correct"],
              f"gate fails when one output is NaN "
              f"(max_rel_dev {verdict['max_rel_dev']})")
        broken = copy.deepcopy(second["ops"])
        broken[1]["cells"][0]["coeff_flux"] = float("nan")
        verdict = gate.evaluate("tiny", 1, broken, agreement)
        check(not verdict["correct"],
              f"gate fails when a cell coefficient is NaN "
              f"(coeff_gap {verdict['coeff_gap']})")
        check(_halvings(0.25, [1.0, 0.25 ** 2, 0.25 ** 3]) == 5,
              "line-search halvings use the solver's backtracking factor")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

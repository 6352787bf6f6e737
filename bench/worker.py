"""One benchmark process: set up, then run one pass of a workload.

Usage: python3 bench/worker.py SPEC.json RESULT.json

The spec names the ops of the pass (argv for ``oscthin.cli.main``), the
output directory and whether to trace.  The worker imports oscthin from the
checkout's ``src``, reads the first config and records the monotonic time
at which the first op could start: the parent started its clock just
before spawning, so the difference is the set-up time.  A setup-only spec
stops there.  Otherwise the ops run in this process, one after the other,
as a user of the package would call them, and the result file gets the
pass wall time, the peak resident memory, every op's outputs and, when
traced, the per-layer metrics.
"""

import json
import os
import resource
import sys
import time

from gate import ROW_FIELDS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _study_rows(out_dir):
    with open(os.path.join(out_dir, "study.json")) as fh:
        rows = json.load(fh)["rows"]
    return [{key: row[key] for key in ROW_FIELDS + ("status",)}
            for row in rows]


def _cell_summary(out_dir):
    with open(os.path.join(out_dir, "cell_summary.txt")) as fh:
        return {key: float(value) for key, value in
                (line.split() for line in fh if line.strip())}


def _bytes_written(out_dir):
    return sum(os.path.getsize(os.path.join(base, name))
               for base, _, names in os.walk(out_dir) for name in names)


def _outputs(command, out_dir):
    if command == "study":
        return {"rows": _study_rows(out_dir)}
    return {"summary": _cell_summary(out_dir)}


def run_pass(spec):
    from oscthin import cli, homogenize

    tracer = None
    if spec["trace"]:
        from spans import Tracer, layer_metrics
        tracer = Tracer().install()
        replaced = list(tracer.replaced)

    # output probe: the cell solve's coefficients, which a study does not
    # write out; one wrapper call per cell solve
    cells = []
    solve_cell = homogenize.solve_cell

    def capture(*args, **kwargs):
        cell = solve_cell(*args, **kwargs)
        cells.append({"p": cell.p, "coeff_flux": cell.coeff_flux,
                      "coeff_energy": cell.coeff_energy,
                      "cell_measure": cell.cell_measure})
        return cell

    ops = []
    homogenize.solve_cell = capture
    start = time.perf_counter()
    try:
        for op in spec["ops"]:
            out_dir = os.path.join(spec["out"], op["label"])
            record = {"label": op["label"], "rc": None, "error": None}
            del cells[:]
            t0 = time.perf_counter()
            try:
                record["rc"] = cli.main(op["argv"] + ["--out", out_dir])
            except SystemExit as exc:
                record["rc"] = exc.code
            except Exception as exc:  # an op that raises counts as failed
                record["error"] = f"{type(exc).__name__}: {exc}"
            record["wall_s"] = time.perf_counter() - t0
            record["cells"] = list(cells)
            record["out_dir"] = out_dir
            ops.append(record)
        wall = time.perf_counter() - start
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        homogenize.solve_cell = solve_cell
        if tracer is not None:
            tracer.uninstall()

    written = 0
    for record, op in zip(ops, spec["ops"]):
        out_dir = record.pop("out_dir")
        record["outputs"] = {}
        if record["rc"] == 0 and record["error"] is None:
            try:
                record["outputs"] = _outputs(op["argv"][0], out_dir)
            except (OSError, ValueError, KeyError) as exc:
                record["error"] = f"unreadable output: {exc}"
        written += _bytes_written(out_dir) if os.path.isdir(out_dir) else 0

    result = {"wall_s": wall, "peak_rss_mb": peak_kb / 1024.0, "ops": ops,
              "bytes_written": written,
              "coeff_agreement": homogenize.COEFF_AGREEMENT}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, wall, written)
        result["restored"] = all(getattr(owner, attr) is original
                                 for owner, attr, original in replaced)
        result["wrapped"] = len(replaced)
        own = tracer.self_times()
        result["self_s"] = {"min": min(own, default=0.0), "sum": sum(own)}
        with open(spec["spans_path"], "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[name, s - start, e - start, parent]
                                 for name, s, e, parent in tracer.spans]},
                      fh)
    return result


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import numpy
    import scipy
    import oscthin
    from oscthin import cli
    cli.parse_config(spec["ops"][0]["config"])
    result = {"ready": time.monotonic()}
    result["versions"] = {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "oscthin": oscthin.__version__,
        "oscthin_path": os.path.relpath(oscthin.__file__, ROOT)}
    if not spec["setup_only"]:
        result.update(run_pass(spec))
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

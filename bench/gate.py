"""Correctness gate and the paper's convergence quantities.

Seed 0 is compared with the outputs stored in ``reference/seed0.json``:
every canonical study row field, and the cell summary's ``coeff_flux``,
``coeff_energy`` and ``cell_measure``.  Other seeds have no stored values;
they are gated on internal consistency only: every op succeeds, every row
is ``ok`` and both effective-coefficient formulas agree to the package's
``COEFF_AGREEMENT``.
"""

import json
import math
import os

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference", "seed0.json")

# every StudyRow field of the canonical report (wall_time is zeroed there)
ROW_FIELDS = ("eps", "level", "node_count", "err_u", "err_corrector",
              "err_naive", "flux_discrepancy", "newton_iterations")
CELL_FIELDS = ("coeff_flux", "coeff_energy", "cell_measure")

# largest relative deviation from the stored values the gate accepts: far
# below any change a solver or discretization edit makes, above the
# roundoff a reordered sum leaves behind
GATE_RTOL = 1e-8


def load_reference():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def op_failure(op):
    """Why one CLI command failed, or None when it succeeded."""
    if op.get("error"):
        return op["error"]
    if op["rc"] != 0:
        return f"exit code {op['rc']}"
    bad = [row["status"] for row in op["outputs"].get("rows", ())
           if row["status"] != "ok"]
    if bad:
        return f"{len(bad)} rows not ok: {bad[0]}"
    return None


def _rel_dev(value, stored):
    """Relative deviation; inf when only one side is missing or non-finite.

    Never NaN, so that folding deviations with ``max`` cannot drop one.
    """
    if value == stored:
        return 0.0
    if value is None or stored is None:
        return math.inf
    if not (math.isfinite(value) and math.isfinite(stored)):
        return 0.0 if math.isnan(value) and math.isnan(stored) else math.inf
    return abs(value - stored) / abs(stored) if stored else abs(value)


def _coeff_gap(cell):
    gap = abs(cell["coeff_flux"] - cell["coeff_energy"]) / abs(cell["coeff_energy"])
    return math.inf if math.isnan(gap) else gap


def max_rel_dev(outputs, stored):
    """Largest relative deviation of one op's gated outputs from stored ones."""
    worst = 0.0
    rows, ref_rows = outputs.get("rows"), stored.get("rows")
    if ref_rows is not None:
        if rows is None or len(rows) != len(ref_rows):
            return math.inf
        for row, ref in zip(rows, ref_rows):
            for name in ROW_FIELDS:
                worst = max(worst, _rel_dev(row.get(name), ref[name]))
    ref_summary = stored.get("summary")
    if ref_summary is not None:
        summary = outputs.get("summary") or {}
        for name in CELL_FIELDS:
            worst = max(worst, _rel_dev(summary.get(name), ref_summary[name]))
    return worst


def evaluate(workload, seed, ops, coeff_agreement, reference=None):
    """Gate every pass's ops; returns the gate record.

    ``ops`` is the flat list of op results of all passes.  The record holds
    attempted/failed counts, max_rel_dev (seed 0 only), the worst
    coefficient gap and the verdict ``correct``.
    """
    failures = [(op["label"], why) for op in ops
                if (why := op_failure(op)) is not None]
    gaps = [_coeff_gap(c) for op in ops for c in op.get("cells", ())]
    coeff_gap = max(gaps) if gaps else math.inf
    record = {"attempted": len(ops), "failed": len(failures),
              "failures": failures[:5], "coeff_gap": coeff_gap,
              "coeff_agreement": coeff_agreement, "max_rel_dev": None,
              "gate_rtol": None}
    correct = not failures and coeff_gap <= coeff_agreement
    if seed == 0:
        stored = (reference or load_reference())["workloads"][workload]
        devs = [max_rel_dev(op["outputs"], stored[op["label"]])
                if op["label"] in stored else math.inf for op in ops]
        record["max_rel_dev"] = max(devs)
        record["gate_rtol"] = GATE_RTOL
        correct = correct and record["max_rel_dev"] <= GATE_RTOL
    record["correct"] = correct
    return record


def _order(e_coarse, e_fine, eps_coarse, eps_fine):
    if e_coarse > 0.0 and e_fine > 0.0:
        return math.log(e_coarse / e_fine) / math.log(eps_coarse / eps_fine)
    return None


def paper_quantities(ops):
    """Per op: q and the observed orders between consecutive ladder entries.

    Orders are log(e_i / e_{i+1}) / log(eps_i / eps_{i+1}) for err_u,
    err_corrector at the finest partition level and flux_discrepancy.
    """
    out = {}
    for op in ops:
        entry = {"q": [c["coeff_flux"] for c in op.get("cells", ())]}
        rows = op["outputs"].get("rows")
        if rows:
            finest = max(row["level"] for row in rows)
            ladder = [row for row in rows if row["level"] == finest]
            for name in ("err_u", "err_corrector", "flux_discrepancy"):
                entry[f"order_{name}"] = [
                    _order(a[name], b[name], a["eps"], b["eps"])
                    for a, b in zip(ladder, ladder[1:])]
        out[op["label"]] = entry
    return out

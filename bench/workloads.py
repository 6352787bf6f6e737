"""Workload definitions: which CLI commands one pass runs, built from a seed.

Every workload starts from ``configs/reference.json``.  Seed 0 gives exactly
the inputs the stored reference outputs were recorded from.  Any other seed
changes the profile and the load while mesh sizes and ladders stay fixed,
so the work per pass stays about the same while the numbers change:

* study workloads draw the profile's first cosine coefficient in
  [0.4, 0.6] and the load wavenumber ``k`` in {1, 2};
* ``cell`` keeps the amplitude at the reference 0.5 and draws the profile's
  phase in [0, 1), which breaks the mirror symmetry of the reference
  profile.  The cell problem has no load, and its Newton iteration count
  grows with the amplitude (25 to 30 per pass over [0.4, 0.6]), so
  an amplitude draw would make the seed, not the code, set the pass time.
"""

import copy
import json
import math
import os
import random

REFERENCE_CONFIG = os.path.join("configs", "reference.json")

# name -> (why it exists, the ops of one pass).  An op is
# (label, command, config overrides, extra CLI arguments).
WORKLOADS = {
    "reference": (
        "the ROADMAP headline: study on the reference config at p 1.5, 2 "
        "and 3; mixed fibers, thin Newton, cell, limit and corrector",
        [(f"study_p{p}", "study", {}, ["--p", p]) for p in ("1.5", "2", "3")],
    ),
    "fine_ladder": (
        "study at p=3 on eps 1/128 and 1/256 (69,649 and 139,281 thin "
        "nodes): cost that grows with the triangle count, and peak memory",
        [("study_fine", "study",
          {"p": 3.0, "epsilons": [1.0 / 128, 1.0 / 256]}, [])],
    ),
    "cell": (
        "cell problem at resolution 64 for p 1.5 and 3: periodic reduction "
        "and bordered LU only; no fibers, thin meshes, limit or corrector",
        [(f"cell_p{p}", "cell", {}, ["--resolution", "64", "--p", p])
         for p in ("1.5", "3")],
    ),
}


def seeded_config(base, workload, seed):
    """The reference config as the given seed perturbs it (seed 0: unchanged)."""
    config = copy.deepcopy(base)
    if seed == 0:
        return config
    rng = random.Random(seed)
    profile = config["profile"]
    if workload == "cell":
        amplitude = profile["cos_coeffs"][0]
        phase = 2.0 * math.pi * rng.random()
        profile["cos_coeffs"] = [amplitude * math.cos(phase)]
        profile["sin_coeffs"] = [amplitude * math.sin(phase)]
    else:
        profile["cos_coeffs"] = [rng.uniform(0.4, 0.6)]
        config["load"]["k"] = rng.choice([1, 2])
    return config


def build_ops(root, workload, seed, work_dir):
    """Write the configs of one pass under work_dir and return its ops.

    Each op is a dict with its label, the argv for ``oscthin.cli.main``
    (output directory excluded), the config path and the overrides applied.
    """
    with open(os.path.join(root, REFERENCE_CONFIG)) as fh:
        base = seeded_config(json.load(fh), workload, seed)
    ops = []
    for label, command, overrides, extra in WORKLOADS[workload][1]:
        config = dict(base, **overrides)
        path = os.path.join(work_dir, f"{label}.json")
        with open(path, "w") as fh:
            json.dump(config, fh, indent=2)
        ops.append({"label": label, "config": path,
                    "argv": [command, "--config", path] + extra,
                    "inputs": {"profile": config["profile"],
                               "load": config["load"],
                               "overrides": overrides, "args": extra}})
    return ops

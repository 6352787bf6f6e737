"""The oscthin benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload reference --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Load model: a closed loop with one client.  Each pass runs in a fresh
worker process (``bench/worker.py``) that imports oscthin from ``src`` and
calls ``oscthin.cli.main`` once per op, one call at a time, with BLAS
threads pinned to 1 and ``OSCTHIN_THREADS`` unset.  A run makes as many
passes as fit in ``--seconds``, and at least one.

``--trace 0`` measures the end-to-end metrics with tracing off: the mean
pass wall time over the run, the median set-up time (several set-up-only
starts plus the start of every pass) and the median peak resident memory.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (medians over the traced passes), the unaccounted share
of the pass and the tracing overhead (mean traced minus mean untraced pass
time).

Every run gates the outputs (see gate.py), writes a BENCH record and, when
traced, the spans under ``.bench_out/``, prints a summary and ends with one
JSON line: correct, attempted, failed and the metrics.  The exit code is 0
only when the gate passes.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import gate
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
THREADS_ENV = "OSCTHIN_THREADS"


class WorkerError(RuntimeError):
    """A worker process failed before it could report a result."""


def worker_env():
    env = dict(os.environ)
    for name in BLAS_THREAD_VARS:
        env[name] = "1"
    env.pop(THREADS_ENV, None)
    # an installed package has its bytecode compiled; let the warm-up start
    # write it so that set-up time does not depend on the caller's shell
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


class Session:
    """The worker processes of one benchmark run, sharing a scratch dir."""

    def __init__(self, workload, seed, trace, deadline):
        self.trace = trace
        self.deadline = deadline
        self.work = tempfile.mkdtemp(prefix=f"{workload}-",
                                     dir=os.path.join(ROOT, ".bench_tmp"))
        self.ops = workloads.build_ops(ROOT, workload, seed, self.work)
        self.spans_path = os.path.join(
            OUT_DIR, f"spans_{workload}_seed{seed}.json")
        self.env = worker_env()
        self.count = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def start(self, setup_only=False, traced=False):
        """Spawn one worker and return (setup_s, result)."""
        self.count += 1
        tag = os.path.join(self.work, f"w{self.count}")
        spec = {"ops": self.ops, "out": tag + "_out", "trace": traced,
                "setup_only": setup_only, "spans_path": self.spans_path}
        with open(tag + "_spec.json", "w") as fh:
            json.dump(spec, fh)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerError("time limit of the run reached")
        with open(tag + "_log.txt", "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
                 tag + "_spec.json", tag + "_result.json"],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                raise WorkerError(
                    "worker exceeded the time limit of the run") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0:
            with open(tag + "_log.txt") as fh:
                tail = fh.read()[-2000:]
            raise WorkerError(f"worker exited with {proc.returncode}:\n{tail}")
        with open(tag + "_result.json") as fh:
            result = json.load(fh)
        shutil.rmtree(tag + "_out", ignore_errors=True)
        return result["ready"] - spawned, result


def _median(samples):
    return statistics.median(samples) if samples else None


def _rounds(session, seconds, kinds):
    """As many rounds as fit in ``seconds``, and at least one.

    A round is one pass per entry of ``kinds`` (traced or not).  A round
    starts only when, at the mean round time so far, it would end inside
    the window, so a run takes about ``seconds`` unless one round is longer.
    Returns the set-up samples and the pass results by kind.
    """
    setups, results = [], {traced: [] for traced in kinds}
    start = time.monotonic()
    rounds = 0
    while True:
        for traced in kinds:
            setup_s, result = session.start(traced=traced)
            setups.append(setup_s)
            results[traced].append(result)
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / rounds > seconds:
            return setups, results


def measure(session, seconds):
    """Run the passes of one run; returns the samples and the pass results."""
    if session.trace:
        # untraced and traced passes alternate, so that drift in the host's
        # speed does not land in the tracing overhead
        _, results = _rounds(session, seconds, (False, True))
        return {"untraced": results[False], "passes": results[True]}
    session.start(setup_only=True)   # fills the bytecode and file caches
    setups = [session.start(setup_only=True)[0] for _ in range(SETUP_PROBES)]
    pass_setups, results = _rounds(session, seconds, (False,))
    return {"setups": setups + pass_setups, "passes": results[False]}


def end_to_end(samples, record):
    passes = samples["passes"]
    walls = [r["wall_s"] for r in passes]
    rss = [r["peak_rss_mb"] for r in passes]
    setups = samples["setups"]
    attempted = record["attempted"]
    return {
        # the mean over the run's passes: the host's speed drifts on a scale
        # of seconds, which a mean over the whole window averages and a
        # median of three passes does not; runs are compared by medians
        "wall_s": {"value": _mean_wall(passes), "unit": "s",
                   "n": len(walls), "statistic": "mean of passes",
                   "median": _median(walls), "samples": walls,
                   "op_samples": [[op["wall_s"] for op in r["ops"]]
                                  for r in passes]},
        "setup_s": {"value": _median(setups), "unit": "s", "n": len(setups),
                    "samples": setups},
        "peak_rss_mb": {"value": _median(rss), "unit": "MB", "n": len(rss),
                        "samples": rss},
        "max_rel_dev": {"value": record["max_rel_dev"], "unit": "ratio",
                        "n": attempted},
        "failed_frac": {"value": record["failed"] / attempted,
                        "unit": "ratio", "n": attempted},
    }


def _mean_wall(passes):
    return statistics.fmean(r["wall_s"] for r in passes)


def per_layer(samples):
    passes = samples["passes"]
    names = passes[0]["layers"]
    metrics = {name: {"value": _median([r["layers"][name]["value"]
                                        for r in passes]),
                      "unit": names[name]["unit"], "n": len(passes)}
               for name in names}
    metrics["trace.overhead_s"] = {
        "value": _mean_wall(passes) - _mean_wall(samples["untraced"]),
        "unit": "s", "n": len(passes)}
    return metrics


def environment(seed, env):
    """What makes two BENCH records comparable; thread settings as the
    workers see them."""
    return {"git_commit": git_commit(), "nproc": os.cpu_count(),
            "seed": seed,
            "thread_env": {name: env.get(name)
                           for name in BLAS_THREAD_VARS + (THREADS_ENV,)}}


def run_workload(workload, seed, seconds, trace, started):
    """One benchmark run of one workload; returns the BENCH record."""
    session = Session(workload, seed, trace, started + RUN_LIMIT_S)
    try:
        samples = measure(session, seconds)
    finally:
        session.close()
    passes = samples["passes"] + samples.get("untraced", [])
    ops = [op for r in passes for op in r["ops"]]
    record = gate.evaluate(workload, seed, ops, passes[0]["coeff_agreement"])
    bench = {
        "workload": workload, "why": workloads.WORKLOADS[workload][0],
        "seed": seed, "trace": int(trace), "seconds": seconds,
        "environment": dict(environment(seed, session.env),
                            **passes[0]["versions"]),
        "inputs": [op["inputs"] for op in session.ops],
        "gate": record,
        "paper": gate.paper_quantities(passes[0]["ops"]),
        "outputs": {op["label"]: op["outputs"] for op in passes[0]["ops"]},
    }
    if trace:
        bench["per_layer"] = per_layer(samples)
        bench["tracing"] = {
            "spans_file": os.path.relpath(session.spans_path, ROOT),
            "restored": all(r["restored"] for r in samples["passes"]),
            "wrapped": samples["passes"][0]["wrapped"],
            "untraced_wall_s": _mean_wall(samples["untraced"])}
    else:
        bench["end_to_end"] = end_to_end(samples, record)
    path = os.path.join(
        OUT_DIR, f"BENCH_{workload}_seed{seed}{'_trace' if trace else ''}.json")
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    bench["path"] = os.path.relpath(path, ROOT)
    return bench


def _fmt(value):
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_summary(bench):
    rec = bench["gate"]
    print(f"== {bench['workload']} (seed {bench['seed']}, trace "
          f"{bench['trace']}): {bench['why']}")
    table = bench.get("end_to_end") or bench["per_layer"]
    for name, m in table.items():
        print(f"  {name:38s} {_fmt(m['value']):>14s} {m['unit']:6s} "
              f"n={m['n']}")
    print(f"  gate: {'PASS' if rec['correct'] else 'FAIL'}  "
          f"{rec['failed']}/{rec['attempted']} ops failed, max_rel_dev "
          f"{_fmt(rec['max_rel_dev'])} (limit {_fmt(rec['gate_rtol'])}), "
          f"coefficient gap {_fmt(rec['coeff_gap'])}")
    for failure in rec["failures"]:
        print(f"    failed {failure[0]}: {failure[1]}")
    for label, quantities in bench["paper"].items():
        parts = [f"q={_fmt(v)}" for v in quantities["q"]]
        parts += [f"{k}={'/'.join(_fmt(v) for v in vals)}"
                  for k, vals in quantities.items() if k != "q"]
        print(f"  paper {label}: {' '.join(parts)}")
    print(f"  record: {bench['path']}")


def result_line(bench):
    table = bench.get("end_to_end") or bench["per_layer"]
    keep = _declared("end_to_end" if "end_to_end" in bench else "per_layer")
    return {"correct": bench["gate"]["correct"],
            "attempted": bench["gate"]["attempted"],
            "failed": bench["gate"]["failed"],
            "metrics": {name: {"value": table[name]["value"],
                               "unit": table[name]["unit"]}
                        for name in keep}}


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[section]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # a terminated run still stops its worker and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in ("src/oscthin/cli.py", workloads.REFERENCE_CONFIG,
                           "BENCHMARK.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"benchmark: cannot run, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)

    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    lines = []
    for name in names:
        start = started if len(names) == 1 else time.monotonic()
        try:
            bench = run_workload(name, args.seed, args.seconds,
                                 bool(args.trace), start)
        except WorkerError as exc:
            print(f"benchmark: {name}: {exc}", file=sys.stderr)
            return 3
        print_summary(bench)
        lines.append((name, result_line(bench)))
    if len(lines) == 1:
        line = lines[0][1]
    else:
        line = {"correct": all(l["correct"] for _, l in lines),
                "attempted": sum(l["attempted"] for _, l in lines),
                "failed": sum(l["failed"] for _, l in lines),
                "metrics": {f"{name}.{metric}": m for name, l in lines
                            for metric, m in l["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark harness as tier-1 tests: its self-test traces a tiny
study and cell solve through the package's hooks (solve.spla, the
homogenize.solve_cell probe, the position of newton_solve's opts), so a
package change that breaks them fails here; and every config a benchmark
pass writes must parse, so a key the reader no longer knows fails here,
named, not inside a benchmark run."""

import importlib.util
import os
import subprocess
import sys

import pytest

from oscthin import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _workloads():
    """bench/workloads.py, loaded from its file (bench is no package)."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, os.path.join("bench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("selftest: PASS")


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_benchmark_configs_parse(tmp_path, workload, seed):
    """Each op's config parses and takes its command-line overrides;
    nothing is solved."""
    ops = workloads.build_ops(ROOT, workload, seed, str(tmp_path))
    assert ops
    for op in ops:
        args = cli.build_parser().parse_args(op["argv"])
        cli._apply_overrides(cli.parse_config(op["config"]), args)

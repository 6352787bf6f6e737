"""The benchmark harness's self-test as a tier-1 test: it traces a tiny
study and cell solve through the package's hooks (solve.spla, the
homogenize.solve_cell probe, the position of newton_solve's opts), so a
package change that breaks them fails here."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, os.path.join("bench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("selftest: PASS")

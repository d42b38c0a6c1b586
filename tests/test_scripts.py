import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("argv", [
    ["scripts/distributed_demo.py", "--n", "8", "--pool", "4"],
    ["scripts/run_line_example.py"],
    ["scripts/trend_tables.py"],
    # the benchmark's own self-test: every entry point it wraps still exists
    ["bench/selftest.py"],
])
def test_example_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_reproduce_example_runs_and_both_routes_agree():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "reproduce_example.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    pairs = [re.search(r"matrix (-?\d+), enumerated (-?\d+)", line) for line in lines]
    pairs = [m.groups() for m in pairs if m]
    assert len(pairs) == 5
    assert all(a == b for a, b in pairs)
    checks = [line for line in lines if line.startswith("cross-check")]
    assert len(checks) == 2
    assert all(" 0 mismatches " in line for line in checks)

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LAZY_EVOLVE = """
import sys
import hyperlap
assert "numpy" not in sys.modules
operator = hyperlap.evolution_operator
assert "numpy" in sys.modules
import hyperlap.evolve
assert operator is hyperlap.evolve.evolution_operator
names = {}
exec("from hyperlap import *", names)
assert sorted(set(names) - {"__builtins__"}) == sorted(hyperlap.__all__)
try:
    hyperlap.no_such_name
except AttributeError:
    pass
else:
    raise SystemExit("hyperlap.no_such_name did not raise AttributeError")
"""


def _python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_only_the_evolution_layer_imports_numpy():
    # a fresh interpreter each time: numpy is already loaded in this one
    assert _python("import sys, hyperlap.cli; print('numpy' in sys.modules)") == "False\n"
    assert _python("import sys, hyperlap; print('numpy' in sys.modules)") == "False\n"
    count = "hyperlap.cli.main(['count', '--fixture', 'fig1', '--kind', 'vertex', '--from', '1', '--to', '3', '--length', '4'])"
    assert _python(f"import sys, hyperlap.cli; {count}; print('numpy' in sys.modules)") == "5886\nFalse\n"
    _python(LAZY_EVOLVE)

"""The names the benchmark harness in ``perfbench/`` wraps must exist.

The tracer monkeypatches the package in place, so it runs in a fresh
interpreter and nothing leaks into the rest of the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys, warnings
sys.path.insert(0, {perfbench!r})
import tracer
t = tracer.Tracer()
missing = tracer.install(t)
assert missing == [], missing
from cos2phi import hamiltonians
from cos2phi.model import BasisTruncation, BiasPoint, CircuitParams
warnings.simplefilter("ignore")
hamiltonians.full_hamiltonian(CircuitParams(15.0, 2.0, 1.0, 0.02),
                              BiasPoint(), BasisTruncation(2, 2, 6))
assert t.maxima["hamiltonians.nnz_max"] > 0, t.maxima
"""


def test_tracer_targets_present():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    code = SCRIPT.format(perfbench=str(ROOT / "perfbench"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

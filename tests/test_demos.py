"""Smoke tests: the narrative demos run to completion, and importing the
library stays light."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(script):
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)],
                          cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr == ""


# The plane solve loads scipy's compiled NNLS kernel under the bare name
# `_slsqplib`; under scipy's dotted name a later `import scipy.optimize`
# would lack that attribute.
RECONSTRUCT_THEN_IMPORT = """
import sys, varifold_lab.cli
print('scipy.optimize' in sys.modules)
from varifold_lab import BandOracle, reconstruct_conic
from varifold_lab.fixtures import balanced_y_cone
recon = reconstruct_conic(BandOracle(balanced_y_cone(3)), 3)
print(recon.n_atoms, 'scipy.optimize' in sys.modules)
import importlib.util, scipy.optimize
print(hasattr(scipy.optimize, '_slsqplib')
      or importlib.util.find_spec('scipy.optimize._slsqplib') is None)
"""


def test_import_defers_scipy_optimize():
    proc = subprocess.run([sys.executable, "-c", RECONSTRUCT_THEN_IMPORT], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["False", "3 False", "True", ""]

"""Smoke test: every demo script runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

NORMAL_MATRIX_OUTPUT = """\
covariance matrix D:
[[ 1.        0.        0.566574  0.606531]
 [ 0.        2.        0.283287 -0.      ]
 [ 0.566574  0.283287  0.364696  0.329504]
 [ 0.606531 -0.        0.329504  0.432332]]
first derivative Gram matrix H:
[[ 1.       -0.        0.566574  0.606531]
 [-0.        4.        0.566574 -0.      ]
 [ 0.566574  0.566574  0.41218   0.301577]
 [ 0.606531 -0.        0.301577  0.567668]]
eigenvalues of H - D (all must be >= 0): [-0.00000000e+00  1.50085000e-03  1.41039740e-01  2.04027915e+00]

chain for g = x^3 (Var = 15):
  n=1: S_1 =  27.0000  (upper bound, defect min-eig = 1.20e+01)
  n=2: S_2 =   9.0000  (lower bound, defect min-eig = 6.00e+00)
  n=3: S_3 =  15.0000  (upper bound, defect min-eig = -3.55e-15)
equality at n = 3: the cubic is a polynomial of degree 3.
"""

CLASS_MEMBERSHIP_OUTPUT = """\
beta(2.0,3.0): logit in class
beta(0.5,0.5): logit fails at (i,k)=[(0, 1)]
beta(5.0,1.0): logit fails at (i,k)=[(0, 1)]

beta(2.0,3.0): kept 3 of 3 functions (dropped []), verdict PASS
beta(0.5,0.5): kept 2 of 3 functions (dropped [2]), verdict PASS

heavy-tail member (delta=0.3): x^2 in class
heavy-tail member (delta=0.3): x^3 diverges
"""


def run_demo(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr
    if path.name == "01_normal_matrix_bounds.py":
        assert result.stdout == NORMAL_MATRIX_OUTPUT
    if path.name == "04_class_membership.py":
        assert result.stdout == CLASS_MEMBERSHIP_OUTPUT
    if path.name == "05_monte_carlo_crosscheck.py":
        comparisons = [line for line in result.stdout.splitlines()
                       if "max-dev=" in line]
        # D, H1, B1, H2, B2 on each of the four members
        assert len(comparisons) == 20
        assert all(line.endswith(" OK") for line in comparisons)
        assert "EXCEEDS" not in result.stdout

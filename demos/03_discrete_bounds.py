"""Discrete members: forward differences, rising products, and the
null-matrix convention.

For integer-valued members the derivative is replaced by the forward
difference and the k-th power of the quadratic by the rising product
q(x) q(x+1) ... q(x+k-1).  When E[q^[k]] vanishes, the k-th summand of a
bound is the null matrix by convention; the run records the substitution
instead of dividing by zero.
"""

import math

import numpy as np

from varbounds import (DiscreteCO, EngineConfig, FunctionTuple, Quadratic,
                       bound_report, eigenvalues, parse_function)

cfg = EngineConfig()
LOG2 = math.log(2.0)

# --- Poisson: D <= lam * (E[Delta g_i Delta g_j]) -----------------------
g = FunctionTuple([parse_function("x^2"), parse_function(f"exp({-LOG2}*x)")])
from varbounds import catalog
for lam in (0.5, 2.0, 7.0):
    spec = catalog("poisson", {"lam": lam})
    report = bound_report(spec, g, 1, cfg)
    poin = report.verdicts["poincare"]
    print(f"poisson(lam={lam}): defect min-eig {poin.min_eigenvalue:+.3e} "
          f"(tol {poin.tol:.1e}) -> {'PASS' if poin.ok else 'FAIL'}")

# --- a two-point member where the rising product dies -------------------
theta = 0.3


def pmf(k):
    k = np.asarray(k, dtype=float)
    out = np.zeros(k.shape)
    out[k == 0] = 1.0 - theta
    out[k == 1] = theta
    return out


two_point = DiscreteCO(theta, Quadratic(0.0, -theta, theta), (0.0, 1.0), pmf,
                       None, "two-point")
report = bound_report(two_point, g, 2, cfg)
print("\ntwo-point member, order 2:")
for tw in report.bessel_weights:
    label = "NULL (E[q^[k]] = 0)" if tw.null else f"weight {tw.weight:.4f}"
    print(f"  k={tw.k}: {label}")
print("lower-bound matrix L_2:")
print(np.array_str(report.L.to_array(), precision=6, suppress_small=True))
print("eigenvalues of D - L_2:",
      np.round(eigenvalues(report.D - report.L), 8))

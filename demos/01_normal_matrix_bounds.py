"""Matrix variance bounds for functions of a standard normal variable.

The covariance matrix D of a vector of test functions g = (g_1, ..., g_p)
is sandwiched by weighted Gram matrices of derivatives: odd orders bound D
from above, even orders from below, and the gap closes exactly when the
functions are polynomials of degree <= n.
"""

import numpy as np

from varbounds import (EngineConfig, FunctionTuple, bound_report, catalog,
                       eigenvalues, parse_function)

cfg = EngineConfig()
normal = catalog("normal")

# --- first-order bound: D <= H in the Loewner order --------------------
g = FunctionTuple([parse_function(e)
                   for e in ("x", "x^2", "exp(0.5*x)", "sin(x)")])
first = bound_report(normal, g, 1, cfg, theorems=("poincare",))
d, h = first.D, first.H[0]
gap = h - d
print("covariance matrix D:")
print(np.array_str(d.to_array(), precision=6, suppress_small=True))
print("first derivative Gram matrix H:")
print(np.array_str(h.to_array(), precision=6, suppress_small=True))
print("eigenvalues of H - D (all must be >= 0):",
      np.round(eigenvalues(gap), 8))

# --- higher orders: the chain for a single cubic ------------------------
cubic = FunctionTuple([parse_function("x^3")])
print("\nchain for g = x^3 (Var = 15):")
for n in (1, 2, 3):
    report = bound_report(normal, cubic, n, cfg, theorems=("poincare",))
    side = "upper" if n % 2 else "lower"
    print(f"  n={n}: S_{n} = {report.S[0, 0]:8.4f}  ({side} bound, "
          f"defect min-eig = {report.verdicts['poincare'].min_eigenvalue:.2e})")
print("equality at n = 3: the cubic is a polynomial of degree 3.")

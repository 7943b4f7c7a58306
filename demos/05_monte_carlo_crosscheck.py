"""Seeded Monte Carlo as an independent route to the bound matrices.

``varbounds mc-verify`` recomputes D, H_k and B_k as means over seeded
samples and compares each entry with the quadrature or summation value,
within four 99% confidence half-widths.  The sampler stream is a
counter-mode splitmix64 generator, so a (seed, samples) pair pins down every
draw exactly; rerunning a cross-check gives byte-identical numbers.
"""

import json
import os
import tempfile

import numpy as np

from varbounds import splitmix64_uniforms
from varbounds.cli import main

print("first five uniforms from seed 42:",
      np.round(splitmix64_uniforms(42, 5), 6))
print("(identical on every run and every machine)\n")

cases = [
    ("normal", ("x", "x^2")),
    ("gamma:shape=3,scale=2", ("x", "x^2")),
    ("poisson:lam=2", ("x", "x^2 - x")),
    ("binomial:n=12,theta=0.35", ("x", "exp(-0.6931471805599453*x)")),
]

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "functions.json")
    for dist, exprs in cases:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": [{"expr": e} for e in exprs]}, fh)
        print(f"{dist}  g = ({', '.join(exprs)})")
        code = main(["mc-verify", "--dist", dist, "--functions", path,
                     "--n", "2", "--mc-samples", "200000", "--mc-seed", "7"])
        print(f"exit code {code}\n")

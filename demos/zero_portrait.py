"""Zeros of the residual polynomials for a small spectral measure.

The optimal degree-N residual polynomial is orthogonal to the reweighted
error measure; its zeros are the Ritz values of the iteration. Printed
below: the zeros marching over the spectrum as N grows (smallest one
decreasing, largest increasing, consecutive sets interlacing), the series
delta_N = 1/z_1 + 2 sum 1/z_k, and one full tail-bound report.
"""

import numpy as np

from powercg.diagnostics import rho
from powercg.krylov import spectral_iterates
from powercg.measures import DiscreteSpectralMeasure, weight_by_power
from powercg.orthopoly import chain_table, residual_polynomials
from powercg.runs import build_custom_case

prob = build_custom_case({"eigenvalues": [0.01, 0.1, 0.5, 1.0, 4.0, 25.0],
                          "error": [1.0, -0.5, 2.0, 1.0, -1.0, 0.3]})
base = DiscreteSpectralMeasure(prob.operator.eigenvalues(),
                               np.abs(prob.e0) ** 2)
nu = weight_by_power(base, 2.0)  # orthogonality measure for xi = 1

table = residual_polynomials(nu, 6)
print("atoms:", np.array2string(base.support, precision=3))
for N, (z, d) in enumerate(zip(table.zeros, table.delta), 1):
    print(f"N={N}: zeros {np.array2string(z, precision=4, suppress_small=False)}"
          f"  delta_N={d:.4f}")

# the chain over every degree at one sigma; row N - 1 is degree N
N = 3
sigma = 1.0
iterates = list(spectral_iterates(prob, 1.0, 6))[1:]
mu1 = weight_by_power(base, sigma)
t = chain_table([rho(prob, f, sigma) for f in iterates], table, mu1, 1.0,
                sigma)
i = N - 1
print(f"\nbound chain at N={N}, sigma={sigma} "
      f"(z1={table.zeros[i][0]:.4f}, delta={table.delta[i]:.4f}, "
      f"mass below z1 = {t.below[i]:.4f}):")
for name, lhs, rhs, ok in t.steps:
    print(f"  {name:22s} {lhs[i]:.6e} <= {rhs[i]:.6e}  "
          f"{'ok' if ok[i] else 'VIOLATED'}")
assert t.ok[i]

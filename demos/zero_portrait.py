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
from powercg.orthopoly import bound_chain, delta_n, residual_polynomials
from powercg.runs import build_custom_case

prob = build_custom_case({"eigenvalues": [0.01, 0.1, 0.5, 1.0, 4.0, 25.0],
                          "error": [1.0, -0.5, 2.0, 1.0, -1.0, 0.3]})
e0 = prob.error_coefficients(prob.f0)
base = DiscreteSpectralMeasure(prob.operator.eigenvalues(), np.abs(e0) ** 2)
nu = weight_by_power(base, 2.0)  # orthogonality measure for xi = 1

polys = residual_polynomials(nu, 6)
print("atoms:", np.array2string(base.support, precision=3))
for N in range(1, 7):
    z = polys[N].zeros
    print(f"N={N}: zeros {np.array2string(z, precision=4, suppress_small=False)}"
          f"  delta_N={delta_n(polys[N]):.4f}")

N = 3
sigma = 1.0
f = spectral_iterates(prob, 1.0, N)[N]
mu1 = weight_by_power(base, sigma)
rep = bound_chain(rho(prob, f, sigma), polys[N], mu1, 1.0, sigma)
print(f"\nbound chain at N={N}, sigma={sigma} "
      f"(z1={rep.ritz_min:.4f}, delta={rep.delta:.4f}, "
      f"mass below z1 = {rep.mass_below:.4f}):")
for step in rep.steps:
    print(f"  {step.name:22s} {step.lhs:.6e} <= {step.rhs:.6e}  "
          f"{'ok' if step.ok else 'VIOLATED'}")
assert rep.ok

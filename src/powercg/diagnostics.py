"""Error functionals and rate monitors.

rho_sigma(x) = ||A^{sigma/2}(x - P x)||^2 with P the projection onto the
solution set; sigma = 0 is the squared error, sigma = 1 the energy error,
sigma = 2 the squared residual. At the initial guess rho_sigma is the
magnitude of e0 in D(A^{sigma/2}), the paper's regularity assumption.
Negative sigma probes smoothness classes and only makes sense for
kernel-orthogonal errors.
"""

from dataclasses import dataclass

import numpy as np

from .linop import KernelComponentError, SpectralAccessError, _as_vector
from .measures import _power_weights

_KER_DRIFT_REL = 1e-10


@dataclass
class ConvergenceRecord:
    N: int
    rho: dict
    n_sq_rho1: float
    delta_n: float = float("nan")
    ritz_min: float = float("nan")
    ritz_max: float = float("nan")
    bound_chain_ok: bool = None
    lemma_ok: bool = None

    def __post_init__(self):
        self.rho = {float(k): float(v) for k, v in self.rho.items()}
        for s, v in self.rho.items():
            if not np.isfinite(v) or v < 0:
                raise ValueError(
                    f"rho_{s:g} at N={self.N} is {v}, must be finite and >= 0")


def _kernel_drift_guard(problem, x, sigma):
    """sigma < 0 is meaningless when the vector drifted inside the kernel
    relative to the initial guess (it is then not an iterate and its error
    has genuine kernel content). Called on kernel-bearing problems only."""
    drift = problem.operator.coefficients(np.asarray(x) - problem.f0)
    dn = float(np.linalg.norm(drift[problem.kernel_mask]))
    xn = float(np.linalg.norm(x))
    if dn > _KER_DRIFT_REL * max(xn, 1e-300):
        raise KernelComponentError(
            f"rho with sigma = {sigma} < 0: kernel drift {dn:.6e} exceeds "
            f"{_KER_DRIFT_REL:g} * ||x|| = {_KER_DRIFT_REL * xn:.6e}")


def rho(problem, f_n, sigma):
    """||A^{sigma/2}(f_n - P f_n)||^2.

    Spectral path: any real sigma, a sum over the error coefficients
    against the operator's own discrete solution set. Matrix-free path:
    sigma in {0, 1, 2}, from the error d = f_n - s against s, the supplied
    known solution (which must share the iterate's kernel component) or 0
    without one; sigma < 2 needs s. sigma = 2 is ||A d + (A s - g)||^2,
    A f_n - g in exact arithmetic, with A s - g kept from the problem's
    consistency check (exactly -g without a known solution). The image A d
    comes from the operator's _apply_rows, batched with the problem's other
    pending iterates (see rho_evaluator).
    """
    sigma = float(sigma)
    return rho_evaluator(problem, (sigma,))(f_n)[sigma]


def rho_evaluator(problem, sigmas):
    """f_n -> {sigma: rho(problem, f_n, sigma)} for every sigma in sigmas,
    the one code path of rho. Each call transforms its iterate once and
    takes every spectral sigma, 2 included, from that one vector; a
    negative sigma adds the kernel-drift guard's one transform of f_n - f0.
    Each call checks f_n's shape, realness and finiteness before any path
    reads it. lambda^sigma is taken here, once, so an overflowing sigma
    raises before any iterate, as does a sigma the matrix-free path cannot
    measure.

    On the matrix-free path sigma = 1 and 2 read one image A d of the error
    d = f_n - s, which the problem keeps from the first read to the second
    or until f_n is collected, whether one evaluator or two rho calls ask
    for them. The first read of an iterate without an image images it
    together with every live iterate that run_cg and theta_iterate have
    handed out on the problem since, in one _apply_rows call: a series
    measured after it is made costs one product of one row per distinct
    iterate, and MatrixOperator computes it as one matrix product. An
    iterate changed in place is measured afresh.
    """
    sigmas = tuple(float(s) for s in sigmas)
    op = problem.operator
    if op.spectral:
        live = ~problem.kernel_mask
        lam_live = op.eigenvalues()[live]
        power = {s: _power_weights(lam_live, s, 1.0) for s in sigmas}
    else:
        for sigma in sigmas:
            if sigma not in (0.0, 1.0, 2.0):
                raise SpectralAccessError(
                    "matrix-free rho supports sigma in {0, 1, 2}, "
                    f"got {sigma}")
            if sigma != 2.0 and problem.known_solution is None:
                raise ValueError(
                    "matrix-free rho with sigma < 2 needs known_solution")
    # the drift guard does not depend on sigma: it runs once per iterate on
    # a kernel-bearing problem, named by the first negative sigma
    drift_sigma = (next((s for s in sigmas if s < 0), None)
                   if op.spectral and problem.kernel_mask.any() else None)

    def evaluate(f_n):
        f_n = _as_vector(f_n, problem.dimension, "f_n")
        if drift_sigma is not None:
            _kernel_drift_guard(problem, f_n, drift_sigma)
        out = {}
        mag = None
        for sigma in sigmas:
            if op.spectral:
                if mag is None:
                    mag = np.abs(problem.error_coefficients(f_n)[live]) ** 2
                out[sigma] = float(np.sum(power[sigma] * mag))
            elif sigma == 2.0:
                r = problem._error_image(f_n) + problem._residual_s
                out[sigma] = float(np.dot(r, r))
            else:
                d = f_n - problem.known_solution
                out[sigma] = (float(np.dot(d, d)) if sigma == 0.0
                              else float(np.dot(d, problem._error_image(f_n))))
        return out
    return evaluate


def np_rate_monitor(records, sigma, sigma_prime):
    """Check the classical decay rate between two error indices.

    Builds the series (2N+1)^{2(sigma'-sigma)} rho_{sigma'}(N) / rho_sigma(0)
    over N >= 1; the classical rate bound says it stays below a constant.
    Returns (bounded, sup, slope). "bounded" compares the last quartile's
    maximum against twice the first quartile's maximum; a heuristic, which is
    why the sup and the log-log trend slope ship with it. Zero entries
    (post-termination) are excluded from the slope fit; an all-zero series is
    bounded with slope 0.
    """
    sigma = float(sigma)
    sigma_prime = float(sigma_prime)
    if not sigma < sigma_prime:
        raise ValueError(f"need sigma < sigma', got {sigma} >= {sigma_prime}")
    if len(records) < 8:
        raise ValueError(f"need at least 8 records, got {len(records)}")
    recs = sorted(records, key=lambda r: r.N)
    if recs[0].N != 0:
        raise ValueError("records must include N = 0 (the denominator)")
    rho0 = recs[0].rho.get(sigma)
    if rho0 is None or rho0 <= 0:
        raise ValueError(f"rho_{sigma:g} at N = 0 must be positive, got {rho0}")
    ns = np.array([r.N for r in recs[1:]], dtype=float)
    vals = np.array([r.rho[sigma_prime] for r in recs[1:]])
    series = (2.0 * ns + 1.0) ** (2.0 * (sigma_prime - sigma)) * vals / rho0
    q = max(1, series.size // 4)
    bounded = series[-q:].max() <= 2.0 * series[:q].max()
    pos = series > 0
    if pos.sum() >= 2:
        slope = float(np.polyfit(np.log(ns[pos]), np.log(series[pos]), 1)[0])
    else:
        slope = 0.0
    return bool(bounded), float(series.max()), slope

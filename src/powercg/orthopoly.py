"""Residual-minimizing node polynomials of a discrete measure.

The degree-N residual polynomial is the measure's N-th orthogonal polynomial
normalized to 1 at the origin; it is represented by its zeros (all simple,
strictly positive for a measure supported in (0, inf)). The zero-sum
functional delta_n, the split-integral orthogonality identity, and the tail
bound chain built on them are verified numerically step by step.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .krylov import lanczos
from .linop import DiagonalOperator
from .measures import mass_below

# product evaluation switches to log-magnitude accumulation above this degree;
# 60 factors of size up to lambda_max/z_1 ~ 1e10 overflow a float64 product
_LOG_EVAL_DEGREE = 50
# relative slack of the lemma's weighted left bound
LEMMA_SLACK = 1e-10
# measures up to this many atoms get their zeros from an extended-precision
# Stieltjes pass: double-precision Lanczos places a zero that has captured an
# isolated atom only ~1e-8 relative to it, and the split integrals amplify
# that offset by prod (lambda/z_k)^2, which can reach 1e19 on weights spanning
# twelve decades. Large smooth measures stay on the fast double path.
_MP_MAX_ATOMS = 64


def _product_eval(lam, zeros):
    """prod_k (1 - lam/zeros_k), vectorized over lam, overflow-safe."""
    lam = np.asarray(lam, dtype=float)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    if zeros.size == 0:
        out = np.ones_like(lam)
        return out[0] if scalar else out
    factors = 1.0 - lam[:, None] / zeros[None, :]
    if zeros.size <= _LOG_EVAL_DEGREE:
        out = np.prod(factors, axis=1)
    else:
        mag = np.abs(factors)
        dead = np.any(mag == 0.0, axis=1)
        sign = np.prod(np.sign(factors), axis=1)
        with np.errstate(divide="ignore"):
            logs = np.sum(np.log(np.where(mag > 0, mag, 1.0)), axis=1)
        with np.errstate(over="ignore"):
            out = sign * np.exp(logs)
        out[dead] = 0.0
    return out[0] if scalar else out


class ResidualPolynomial:
    """s(lambda) = prod_k (1 - lambda / zeros_k); s(0) = 1 by construction.

    split, when present, holds the (left, right) split integrals against the
    measure the polynomial is orthogonal to, computed by
    residual_polynomials where the zeros are made. A polynomial built by
    hand from its zeros has no measure and no split.
    """

    def __init__(self, zeros, split=None):
        z = np.asarray(zeros, dtype=float)
        if z.ndim != 1:
            raise ValueError("zeros must be a 1-d array")
        if z.size and (np.any(z <= 0) or np.any(np.diff(z) <= 0)):
            raise ValueError(
                "zeros must be strictly positive and strictly increasing, "
                f"got min={z.min() if z.size else None}")
        self.zeros = z
        self.degree = z.size
        self.split = split

    def __repr__(self):
        return f"ResidualPolynomial(degree={self.degree})"

    def evaluate(self, lam):
        return _product_eval(lam, self.zeros)


def _mp_zero_table(measure, n_max):
    """(zeros, split integrals) of every degree 1..reached, the zeros in
    extended precision rounded to double at the end. Working precision
    covers the weight dynamic range, so a zero that has captured an atom
    lands on the atom's double exactly instead of 1e-8 off it; the split
    identity is infinitely sensitive to the sub-ulp rest of that offset,
    so the split integrals use the unrounded zeros."""
    from mpmath import mp

    lam = measure.support
    w = measure.weights
    m = lam.size
    n_max = min(n_max, m)
    wpos = w[w > 0]
    span = float(wpos.max() / wpos.min()) if wpos.size else 1.0
    dps = 40 + int(np.log10(max(span, 1.0)))
    with mp.workdps(dps):
        lamm = [mp.mpf(float(v)) for v in lam]
        wm = [mp.mpf(float(v)) for v in w]
        scale = max(lamm) if lamm else mp.mpf(1)
        tol = scale * mp.mpf(10) ** (-(dps - 10))
        q = [mp.mpf(1) / mp.sqrt(mp.fsum(wm))] * m
        Q = [q]
        alphas, betas = [], []
        for k in range(n_max):
            v = [lamm[j] * Q[k][j] for j in range(m)]
            if k > 0:
                v = [v[j] - betas[k - 1] * Q[k - 1][j] for j in range(m)]
            a = mp.fsum(wm[j] * v[j] * Q[k][j] for j in range(m))
            v = [v[j] - a * Q[k][j] for j in range(m)]
            for t in range(k + 1):
                c = mp.fsum(wm[j] * v[j] * Q[t][j] for j in range(m))
                v = [v[j] - c * Q[t][j] for j in range(m)]
            alphas.append(a)
            b = mp.sqrt(mp.fsum(wm[j] * v[j] * v[j] for j in range(m)))
            if k == n_max - 1:
                break
            if b <= tol:
                break
            betas.append(b)
            Q.append([v[j] / b for j in range(m)])
        reached = len(alphas)
        table = []
        for N in range(1, reached + 1):
            T = mp.zeros(N)
            for k in range(N):
                T[k, k] = alphas[k]
                if k + 1 < N:
                    T[k, k + 1] = betas[k]
                    T[k + 1, k] = betas[k]
            ev = sorted(mp.eigsy(T, eigvals_only=True))
            table.append((np.array([float(e) for e in ev]),
                          _split_integrals_hp(ev, dps, measure)))
    return table


def residual_polynomials(nu, n_max):
    """First residual polynomials of nu: degrees 0..n_max, so the list index
    is the degree. Fewer atoms than requested degrees truncates the list
    (the degree-(atom count) polynomial already vanishes on the support);
    a warning flags the truncation. Each polynomial of degree >= 1 carries
    its split integrals against nu.

    nu must have no atom at 0 (it is a power-reweighted measure with the
    kernel mass removed).
    """
    if nu.support.size and nu.support[0] == 0.0:
        raise ValueError("measure has an atom at 0")
    m = nu.support.size
    if m == 0 or n_max <= 0:
        zero_table = []
    elif m <= _MP_MAX_ATOMS:
        zero_table = _mp_zero_table(nu, n_max)
    else:
        # Lanczos on the measure (atoms, weights) is Lanczos on diag(atoms)
        # started from sqrt(weights); it stops on breakdown, 1e-13 of the
        # largest atom
        T, _, _ = lanczos(DiagonalOperator(nu.support), np.sqrt(nu.weights),
                          min(n_max, m))
        zero_table = []
        for N in range(1, T.order + 1):
            z = np.sort(eigh_tridiagonal(T.alphas[:N], T.betas[:N - 1],
                                         eigvals_only=True))
            zero_table.append((z, _split_integrals(z, nu)))
    reached = len(zero_table)
    if reached < n_max:
        warnings.warn(
            f"measure supports only {reached} orthogonal polynomials, "
            f"requested {n_max}; truncating", stacklevel=2)
    polys = [ResidualPolynomial(np.empty(0))]
    for z, split in zero_table:
        polys.append(ResidualPolynomial(z, split))
    return polys


def delta_n(p):
    """1/z_1 + 2 * sum_{k >= 2} 1/z_k over the polynomial's zeros."""
    if p.degree == 0:
        raise ValueError("delta_n undefined for the degree-0 polynomial")
    inv = 1.0 / p.zeros
    return float(inv[0] + 2.0 * inv[1:].sum())


def check_separation(p_n, p_n1, slack=1e-10):
    """Strict interlacing of consecutive zero sets.

    Verifies z^{(N+1)}_k < z^{(N)}_k < z^{(N+1)}_{k+1} for all k, with
    relative slack. Returns (ok, max_violation) where the violation is the
    largest signed relative overshoot (negative values mean margin).
    """
    if p_n1.degree != p_n.degree + 1:
        raise ValueError(
            f"need degrees N and N+1, got {p_n.degree} and {p_n1.degree}")
    if p_n.degree == 0:
        return True, 0.0
    zn = p_n.zeros
    zn1 = p_n1.zeros
    lower = (zn1[:-1] - zn) / zn
    upper = (zn - zn1[1:]) / zn
    worst = float(max(lower.max(), upper.max()))
    return worst <= slack, worst


def _split_integrals_hp(zeros, dps, nu):
    """_split_integrals in extended precision against the unrounded zeros
    (mp numbers at dps working digits). Atoms a zero has captured
    contribute zero on either side (s vanishes there to working precision;
    the leftover 10^-dps junk would otherwise be blown up by the other
    factors)."""
    from mpmath import mp

    with mp.workdps(dps):
        z1 = zeros[0]
        cut = mp.mpf(10) ** (-(dps - 15))
        lhs = mp.mpf(0)
        rhs = mp.mpf(0)
        for lam_j, w_j in zip(nu.support, nu.weights):
            lj = mp.mpf(float(lam_j))
            if any(abs(lj - z) <= cut * max(lj, z) for z in zeros):
                continue
            term = mp.mpf(float(w_j)) * abs(1 - lj / z1)
            for z in zeros[1:]:
                fac = 1 - lj / z
                term *= fac * fac
            if lj < z1:
                lhs += term
            else:
                rhs += term
        return float(lhs), float(rhs)


def _split_integrals(zeros, nu):
    """The two sides of the split orthogonality identity for the smallest
    zero z1: integral over [0, z1) of s^2 * z1/(z1-lambda) d nu, and over
    (z1, inf) of s^2 * z1/(lambda-z1) d nu. Uses the factored form
    s^2 * z1/|z1-lambda| = |1 - lambda/z1| * prod_{k>=2}(1-lambda/z_k)^2,
    exact where the naive quotient cancels. Atoms at z1 contribute zero."""
    z1 = zeros[0]
    lam = nu.support
    w = nu.weights
    at = np.abs(lam - z1) <= 1e-12 * max(1.0, z1)
    rest2 = _product_eval(lam, zeros[1:]) ** 2
    frac = np.abs(1.0 - lam / z1)
    left = (lam < z1) & ~at
    right = (lam > z1) & ~at
    lhs = float(np.sum(w[left] * frac[left] * rest2[left]))
    rhs = float(np.sum(w[right] * frac[right] * rest2[right]))
    return lhs, rhs


def _split_of(p):
    if p.split is None:
        raise ValueError(
            "split integrals need a polynomial of degree >= 1 from "
            "residual_polynomials")
    return p.split


def orthogonality_gap(p):
    """(left integral, right integral, relative gap) of the split identity
    against the measure p is orthogonal to.

    For an exactly orthogonal polynomial the two sides agree; the gap is
    |l - r| / max(l, r, tiny).
    """
    lhs, rhs = _split_of(p)
    gap = abs(lhs - rhs) / max(lhs, rhs, 1e-300)
    return lhs, rhs, gap


def lemma_bound(p, mu_sigma, xi, sigma):
    """Weighted left integral against the mass-below bound.

    lhs = integral over [0, z1) of s^2 * z1/(z1 - lambda) d nu, with nu the
    measure p is orthogonal to (lambda^q mu_sigma),
    rhs = mu_sigma([0, z1)) * (q / delta_n)^q with q = xi - sigma + 1 >= 0.
    Returns (lhs, rhs, satisfied with slack 1 + LEMMA_SLACK).
    """
    q = xi - sigma + 1.0
    if q < 0:
        raise ValueError(f"requires xi - sigma + 1 >= 0, got {q}")
    lhs, _ = _split_of(p)
    below = mass_below(mu_sigma, p.zeros[0])
    d = delta_n(p)
    rhs = below * (q / d) ** q
    return lhs, rhs, lhs <= rhs * (1.0 + LEMMA_SLACK)


def rho_integral_identity(p, mu_sigma):
    """integral of s^2 d mu_sigma as a plain atom sum."""
    s = p.evaluate(mu_sigma.support)
    return float(np.sum(s * s * mu_sigma.weights))


@dataclass
class ChainStep:
    name: str
    lhs: float
    rhs: float
    ok: bool


@dataclass
class ChainReport:
    steps: list = field(default_factory=list)
    ok: bool = True
    first_failure: str = None
    exponent: float = None
    ritz_min: float = None
    delta: float = None
    mass_below: float = None

    def add(self, name, lhs, rhs, ok):
        # inf <= slack * inf holds: an overflowed operand must fail the step
        lhs, rhs = float(lhs), float(rhs)
        ok = bool(ok and np.isfinite(lhs) and np.isfinite(rhs))
        self.steps.append(ChainStep(name, lhs, rhs, ok))
        if not ok and self.first_failure is None:
            self.first_failure = name
            self.ok = False


def bound_chain(rho_value, p, mu_sigma, xi, sigma, slack=1e-8):
    """Verify every inequality linking rho to the mass below the smallest
    zero, reporting the first failure if any.

    Needs xi >= sigma (the tail-to-left step divides by lambda^{xi-sigma+1}
    with exponent >= 1). p must come from residual_polynomials of the
    (xi - sigma + 1) power reweighting of mu_sigma, the measure its split
    integrals are taken against. A scale-aware absolute epsilon keeps the
    finite-termination case (everything 0 up to roundoff) from tripping the
    comparisons.
    """
    if xi < sigma:
        raise ValueError(f"requires xi >= sigma, got xi={xi}, sigma={sigma}")
    q = xi - sigma + 1.0
    leftint, rightint = _split_of(p)
    z1 = p.zeros[0]
    d = delta_n(p)
    mass = mu_sigma.total_mass()
    atol = 1e-12 * max(mass, 1e-300)

    s_vals = p.evaluate(mu_sigma.support)
    # an overflow here (double-path zeros near termination) leaves an
    # infinite operand, which ChainReport.add already fails
    with np.errstate(over="ignore"):
        s2w = s_vals * s_vals * mu_sigma.weights
    integral = float(s2w.sum())
    above = float(s2w[mu_sigma.support >= z1].sum())
    below = mass_below(mu_sigma, z1)
    lemma_rhs = below * (q / d) ** q

    rep = ChainReport(exponent=q, ritz_min=float(z1), delta=d,
                      mass_below=below)

    def leq(a, b):
        return a <= b * (1.0 + slack) + atol

    near = abs(rho_value - integral) <= slack * max(abs(rho_value),
                                                    abs(integral)) + atol
    rep.add("integral_identity", rho_value, integral, near)
    rep.add("split_bound", rho_value, below + above, leq(rho_value, below + above))
    rep.add("tail_bound", above, z1 ** (-q) * leftint,
            leq(above, z1 ** (-q) * leftint))
    gap_ok = abs(leftint - rightint) <= slack * max(leftint, rightint) + atol
    rep.add("split_orthogonality", leftint, rightint, gap_ok)
    rep.add("weighted_left_bound", leftint, lemma_rhs, leq(leftint, lemma_rhs))
    assembled = below * (1.0 + z1 ** (-q) * (q / d) ** q)
    rep.add("assembled_bound", rho_value, assembled, leq(rho_value, assembled))
    rep.add("edge_times_delta", 1.0, z1 * d, z1 * d >= 1.0 - 1e-10)
    coarse = (1.0 + q ** q) * below
    rep.add("coarse_bound", rho_value, coarse, leq(rho_value, coarse))
    return rep

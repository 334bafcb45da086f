"""Residual-minimizing node polynomials of a discrete measure.

The degree-N residual polynomial is the measure's N-th orthogonal polynomial
normalized to 1 at the origin; it is represented by its zeros (all simple,
strictly positive for a measure supported in (0, inf)). The zero-sum
functional delta_n, the split-integral orthogonality identity, and the tail
bound chain built on them are verified numerically step by step.
"""

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
# relative slack of bound_chain's comparisons
CHAIN_SLACK = 1e-8
# relative slack of the zero interlacing check
SEPARATION_SLACK = 1e-10
# measures up to this many atoms get their zeros in extended precision (stdlib
# decimal at dps digits: an RKPW Jacobi matrix, double starting zeros, a
# Newton polish):
# double-precision Lanczos places a zero that has captured an isolated atom
# only ~1e-8 relative to it, and the split integrals amplify that offset by
# prod (lambda/z_k)^2, which can reach 1e19 on weights spanning twelve
# decades. Large smooth measures stay on the fast double path.
_MP_MAX_ATOMS = 64
# Newton corrections allowed per polished zero; from its double start every
# zero of the seeded diagonal pool (16, 40 and 64 atoms) settles within four
_NEWTON_MAX_STEPS = 20


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


def _rkpw(lam, w):
    """Jacobi matrix of the discrete measure sum_j w_j delta(lam_j), order m,
    by RKPW (Gragg & Harrod 1984; Gautschi 2004, §2.2): the atoms join
    one at a time, each by a sweep of rational rotations over the matrix
    built so far. Returns (alphas, beta2) with beta2[0] the total mass and
    beta2[k] the squared coupling of degrees k-1 and k. lam and w are
    Decimals, and the arithmetic runs in the caller's current decimal
    context; no reorthogonalization is needed."""
    from decimal import Decimal

    zero, one = Decimal(0), Decimal(1)
    alphas = list(lam)
    beta2 = [zero] * len(lam)
    beta2[0] = w[0]
    for n in range(1, len(lam)):
        pn, gam, sig, t, x = w[n], one, zero, zero, lam[n]
        for k in range(n + 1):
            rho = beta2[k] + pn
            tmp = gam * rho
            tsig = sig
            if rho <= 0:
                gam, sig = one, zero
            else:
                gam, sig = beta2[k] / rho, pn / rho
            tk = sig * (alphas[k] - x) - gam * t
            alphas[k] -= tk - t
            t = tk
            pn = t * t / sig if sig > 0 else tsig * beta2[k]
            beta2[k] = tmp
    return alphas, beta2


def _newton_polish(x, alphas, beta2, tol):
    """Newton from x on the monic polynomial of degree len(alphas) that the
    three-term recurrence defines (value and derivative from the same
    recurrence), until the correction is below tol relative; None if it has
    not got there after _NEWTON_MAX_STEPS corrections."""
    for _ in range(_NEWTON_MAX_STEPS):
        p_prev, p, d_prev, d = 0, 1, 0, 0
        for a, b2 in zip(alphas, beta2):
            u = x - a
            p_prev, p, d_prev, d = (p, u * p - b2 * p_prev,
                                    d, u * d + p - b2 * d_prev)
        step = p / d
        x -= step
        if abs(step) <= tol * abs(x):
            return x
    return None


def _mp_zero_table(measure, n_max):
    """(zeros, split integrals) of every degree 1..reached, the zeros in
    extended precision rounded to double at the end. Working precision
    covers the weight dynamic range, so a zero that has captured an atom
    lands on the atom's double exactly instead of 1e-8 off it; the split
    identity is infinitely sensitive to the sub-ulp rest of that offset,
    so the split integrals use the unrounded zeros.

    The arithmetic is stdlib decimal at dps significant digits, in a fresh
    context (round half even, no trap on inexact results) whatever the
    caller's context is. Decimal(float) is exact and float(Decimal)
    correctly rounded. The Jacobi matrix comes from RKPW. The recurrence
    stops where a squared coupling falls to tol^2, tol = 10^-(dps-10) of the
    largest atom. Each degree's zeros start from the double eigenvalues of
    the rounded leading block and are polished by Newton to 10^-(dps-3)
    relative; a zero that does not settle raises RuntimeError.
    """
    import decimal
    from decimal import Decimal

    lam = measure.support
    w = measure.weights
    m = lam.size
    n_max = min(n_max, m)
    wpos = w[w > 0]
    span = float(wpos.max() / wpos.min()) if wpos.size else 1.0
    dps = 40 + int(np.log10(max(span, 1.0)))
    context = decimal.Context(
        prec=dps, rounding=decimal.ROUND_HALF_EVEN,
        traps=[decimal.InvalidOperation, decimal.DivisionByZero,
               decimal.Overflow])
    with decimal.localcontext(context):
        lamd = [Decimal(float(v)) for v in lam]
        wd = [Decimal(float(v)) for v in w]
        tol = max(lamd) * Decimal(10) ** (-(dps - 10))
        alphas, beta2 = _rkpw(lamd, wd)
        reached = next((k for k in range(1, n_max) if beta2[k] <= tol * tol),
                       n_max)
        diag = np.array([float(a) for a in alphas[:reached]])
        off = np.sqrt([float(b) for b in beta2[1:reached]])
        newton_tol = Decimal(10) ** (-(dps - 3))
        table = []
        for N in range(1, reached + 1):
            start = eigh_tridiagonal(diag[:N], off[:N - 1], eigvals_only=True)
            zeros = []
            for x0 in start:
                z = _newton_polish(Decimal(float(x0)), alphas[:N], beta2[:N],
                                   newton_tol)
                if z is None:
                    raise RuntimeError(
                        f"Newton polish of a degree-{N} zero did not settle "
                        f"to 1e-{dps - 3} relative at dps={dps}")
                zeros.append(z)
            zeros.sort()
            table.append((np.array([float(z) for z in zeros]),
                          _split_integrals_hp(zeros, dps, lam, lamd, wd)))
    return table


def residual_polynomials(nu, n_max):
    """First residual polynomials of nu: degrees 0..n_max, so the list index
    is the degree. Fewer atoms than requested degrees, or a recurrence that
    breaks down first, truncates the list (the degree-(atom count)
    polynomial already vanishes on the support), so len(polys) - 1 is the
    degree reached. Each polynomial of degree >= 1 carries its split
    integrals against nu.

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


def check_separation(p_n, p_n1):
    """Strict interlacing of consecutive zero sets.

    Verifies z^{(N+1)}_k < z^{(N)}_k < z^{(N+1)}_{k+1} for all k, with
    relative slack SEPARATION_SLACK. Returns (ok, max_violation) where the
    violation is the largest signed relative overshoot (negative values
    mean margin).
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
    return worst <= SEPARATION_SLACK, worst


def _split_integrals_hp(zeros, dps, lam, lamd, wd):
    """_split_integrals in extended precision against the unrounded zeros
    (Decimals, in the caller's decimal context of dps digits); lam holds the
    atoms in double, lamd and wd the atoms and weights as Decimals. Atoms a
    zero has captured, within 10^-(dps-15) relative, contribute zero on
    either side (s vanishes there to working precision; the leftover
    10^-dps junk would otherwise be blown up by the other factors). An atom
    can only have been captured by a zero whose rounded value is within
    1e-12 relative of it, so the Decimal test runs on those pairs only."""
    from decimal import Decimal

    zd = np.array([float(z) for z in zeros])
    near = (np.abs(lam[:, None] - zd[None, :])
            <= 1e-12 * np.maximum(lam[:, None], zd[None, :]))
    z1 = zeros[0]
    cut = Decimal(10) ** (-(dps - 15))
    lhs = Decimal(0)
    rhs = Decimal(0)
    for lj, w_j, row in zip(lamd, wd, near):
        if any(abs(lj - zeros[k]) <= cut * max(lj, zeros[k])
               for k in np.flatnonzero(row)):
            continue
        term = w_j * abs(1 - lj / z1)
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
    frac = np.abs(1.0 - lam / z1)
    left = (lam < z1) & ~at
    right = (lam > z1) & ~at
    # an overflow (double-path zeros near termination) leaves an infinite
    # integral, which fails its bound-chain steps
    with np.errstate(over="ignore"):
        rest2 = _product_eval(lam, zeros[1:]) ** 2
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


def bound_chain(rho_value, p, mu_sigma, xi, sigma, s_vals=None):
    """Verify every inequality linking rho to the mass below the smallest
    zero, reporting the first failure if any.

    Needs xi >= sigma (the tail-to-left step divides by lambda^{xi-sigma+1}
    with exponent >= 1). p must come from residual_polynomials of the
    (xi - sigma + 1) power reweighting of mu_sigma, the measure its split
    integrals are taken against. A scale-aware absolute epsilon keeps the
    finite-termination case (everything 0 up to roundoff) from tripping the
    comparisons. s_vals, when given, are p's values on mu_sigma's support
    (a caller checking several sigma evaluates p once on a common superset
    and indexes it); by default the chain evaluates p itself.
    """
    if xi < sigma:
        raise ValueError(f"requires xi >= sigma, got xi={xi}, sigma={sigma}")
    q = xi - sigma + 1.0
    leftint, rightint = _split_of(p)
    z1 = p.zeros[0]
    d = delta_n(p)
    mass = mu_sigma.total_mass()
    atol = 1e-12 * max(mass, 1e-300)

    if s_vals is None:
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
        return a <= b * (1.0 + CHAIN_SLACK) + atol

    near = abs(rho_value - integral) <= CHAIN_SLACK * max(abs(rho_value),
                                                          abs(integral)) + atol
    rep.add("integral_identity", rho_value, integral, near)
    rep.add("split_bound", rho_value, below + above, leq(rho_value, below + above))
    rep.add("tail_bound", above, z1 ** (-q) * leftint,
            leq(above, z1 ** (-q) * leftint))
    gap_ok = (abs(leftint - rightint)
              <= CHAIN_SLACK * max(leftint, rightint) + atol)
    rep.add("split_orthogonality", leftint, rightint, gap_ok)
    rep.add("weighted_left_bound", leftint, lemma_rhs, leq(leftint, lemma_rhs))
    assembled = below * (1.0 + z1 ** (-q) * (q / d) ** q)
    rep.add("assembled_bound", rho_value, assembled, leq(rho_value, assembled))
    rep.add("edge_times_delta", 1.0, z1 * d, z1 * d >= 1.0 - 1e-10)
    coarse = (1.0 + q ** q) * below
    rep.add("coarse_bound", rho_value, coarse, leq(rho_value, coarse))
    return rep

"""Residual-minimizing node polynomials of a discrete measure.

The degree-N residual polynomial is the measure's N-th orthogonal polynomial
normalized to 1 at the origin; it is represented by its zeros (all simple,
strictly positive for a measure supported in (0, inf)). The zero-sum
functional delta_n, the split-integral orthogonality identity, and the tail
bound chain built on them are verified numerically step by step.
"""

from typing import NamedTuple

import numpy as np

from .krylov import JacobiMatrix, lanczos
from .linop import DiagonalOperator

# the normal double range; a product outside it is recomputed rescaled
_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max
# relative slack of the lemma's weighted left bound
LEMMA_SLACK = 1e-10
# relative slack of the bound chain's comparisons
CHAIN_SLACK = 1e-8
# relative slack of the zero interlacing check
SEPARATION_SLACK = 1e-10
# relative slack of the edge check z_1 * delta_n >= 1
EDGE_SLACK = 1e-10
# measures up to this many atoms get their zeros in extended precision (stdlib
# decimal at dps digits: an RKPW Jacobi matrix, double starting zeros, a
# Newton polish): double-precision Lanczos leaves a zero that has captured an
# isolated atom a few ulps off it (at most 5.5e-14 relative on a 72-atom pool
# spectrum), and the other factors amplify that offset, in the split
# integrals by up to prod (lambda/z_k)^2, which can reach 1e19 on weights
# spanning twelve decades. Large smooth measures stay on the fast double path.
_MP_MAX_ATOMS = 64
# Newton corrections allowed per polished zero; from its double start a zero
# of the seeded diagonal pool (16-64 atoms) is mostly accepted after two
_NEWTON_MAX_STEPS = 20


def _column_products(G):
    """Sequential products down the columns of G, whose rows are factors
    (1 - lambda/z_k) by ascending zero: a column's running product rises
    while |factor| > 1 and falls after, so its final value shows any
    intermediate overflow or underflow. A column that is not finite, or
    below the normal range without an exactly-zero factor, is recomputed
    rescaled by an exact power of two after each factor (the plain
    product's bits wherever that stays in range), its exponent applied at
    the end: a signed inf above the double range, a subnormal or 0 below."""
    out = np.prod(G, axis=0)
    mag = np.abs(out)
    if not mag.size or (mag.min() >= _TINY and mag.max() <= _HUGE):
        return out
    # an exactly-zero factor (a captured atom) makes 0 the value
    cols = np.flatnonzero(~(mag <= _HUGE)
                          | ((mag < _TINY) & ~(G == 0.0).any(axis=0)))
    if cols.size:
        m, e = np.ones(cols.size), 0
        for row in G[:, cols]:
            m, step = np.frexp(m * row)
            e = e + step
        out[cols] = np.ldexp(m, e)
    return out


def _factor_products(lam, zeros, rest=False):
    """prod_k (1 - lam/zeros_k) on the 1-d array lam; with rest=True also
    prod_{k>=2} (1 - lam/zeros_k), from the same factor matrix.

    The factors are laid out zeros x atoms and multiplied down the columns
    (_column_products): a sequential product, vectorized over the atoms,
    that rounds like a product along each atom's row. A slice of the rows
    reduces bit for bit like a matrix built from those zeros alone, so s
    and the rest product agree with separate evaluations.
    """
    G = lam[None, :] / zeros[:, None]
    np.subtract(1.0, G, out=G)
    # an overflowing or an inf * 0 product is recomputed, silently
    with np.errstate(over="ignore", invalid="ignore"):
        s = _column_products(G)
        return (s, _column_products(G[1:])) if rest else s


def _rows_in(support, lam):
    """Indices of lam's entries in the ascending support; None if one lacks."""
    rows = np.searchsorted(support, lam)
    if rows.size and (rows[-1] >= support.size
                      or not np.array_equal(support[rows], lam)):
        return None
    return rows


class ResidualPolynomial:
    """s(lambda) = prod_k (1 - lambda / zeros_k); s(0) = 1 by construction.

    split, when present, holds the (left, right) split integrals against the
    measure the polynomial is orthogonal to, and values holds s on support,
    the ascending array residual_polynomials was given; both are computed
    where the zeros are made, from one factor matrix. A polynomial built by
    hand from its zeros has no measure, no split and no values.
    """

    def __init__(self, zeros, split=None, values=None, support=None):
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
        self.values = values
        self.support = support

    def __repr__(self):
        return f"ResidualPolynomial(degree={self.degree})"

    def evaluate(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = _factor_products(np.atleast_1d(lam), self.zeros)
        return out[0] if lam.ndim == 0 else out


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


def _recurrence(x, alphas, beta2):
    """(p(x), p'(x)), p the recurrence's monic polynomial of len(alphas)."""
    p_prev, p, d_prev, d = 0, 1, 0, 0
    for a, b2 in zip(alphas, beta2):
        u = x - a
        p_prev, p, d_prev, d = (p, u * p - b2 * p_prev,
                                d, u * d + p - b2 * d_prev)
    return p, d


def _newton_polish(x, alphas, beta2, tol, floor_tol):
    """Newton from x on the monic polynomial of degree len(alphas) that the
    three-term recurrence defines, until the correction r_k = |step_k| /
    |x_k| is below tol, or until r_k < r_{k-1} and r_k^3 <= tol/1000 *
    r_{k-1}^2: quadratic convergence then puts the next correction, about
    r_k^3 / r_{k-1}^2, three decades below tol, and the pass that would
    only confirm it is skipped (a stalling polish never gets here). Once
    _NEWTON_MAX_STEPS corrections are spent, the zero is accepted if the
    last correction is below floor_tol relative (the recurrence's own
    rounding floor: evaluating a high degree loses a few digits, and the
    corrections then stall just above tol); None otherwise."""
    r_prev = 0
    for _ in range(_NEWTON_MAX_STEPS):
        p, d = _recurrence(x, alphas, beta2)
        step = p / d
        x -= step
        if abs(step) <= tol * abs(x):
            return x
        r = abs(step) / abs(x)
        if r < r_prev and r ** 3 <= tol / 1000 * r_prev ** 2:
            return x
        r_prev = r
    return x if abs(step) <= floor_tol * abs(x) else None


def _ritz_values(T):
    """Eigenvalues, ascending, of every leading N x N block of the dense
    Jacobi matrix T, N = 1..order. LAPACK's dsyevd leaves a block that is
    already tridiagonal unchanged (every Householder tau is 0) and hands it
    to dsterf, the root-free QR of the tridiagonal eigenvalue drivers."""
    return [np.linalg.eigvalsh(T[:N, :N]) for N in range(1, len(T) + 1)]


def _mp_zero_table(measure, n_max):
    """(zeros, split integrals) of every degree 1..reached, the zeros in
    extended precision rounded to double at the end. Working precision
    covers the weight dynamic range, so a zero that has captured an atom
    lands on the atom's double exactly, not a few ulps off it; the split
    identity is infinitely sensitive to the sub-ulp rest of that offset,
    so the split integrals use the unrounded zeros.

    The arithmetic is stdlib decimal at dps significant digits, in a fresh
    context (round half even, no trap on inexact results) whatever the
    caller's context is. Decimal(float) is exact and float(Decimal)
    correctly rounded. The Jacobi matrix comes from RKPW. The recurrence
    stops where a squared coupling falls to tol^2, tol = 10^-(dps-10) of the
    largest atom. Each degree's zeros start from the double eigenvalues of
    the rounded leading block and are polished by Newton to 10^-(dps-3)
    relative, or to a predicted next correction three decades below that,
    or to 10^-(dps-6) once _NEWTON_MAX_STEPS corrections are spent; a zero
    that settles to none raises RuntimeError.
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
        starts = _ritz_values(JacobiMatrix(diag, off).dense())
        newton_tol = Decimal(10) ** (-(dps - 3))
        floor_tol = Decimal(10) ** (-(dps - 6))
        table = []
        for N, start in enumerate(starts, 1):
            zeros = []
            for x0 in start:
                z = _newton_polish(Decimal(float(x0)), alphas[:N], beta2[:N],
                                   newton_tol, floor_tol)
                if z is None:
                    raise RuntimeError(
                        f"Newton polish of a degree-{N} zero did not settle "
                        f"to 1e-{dps - 3} relative, nor to 1e-{dps - 6} in "
                        f"{_NEWTON_MAX_STEPS} corrections, at dps={dps}")
                zeros.append(z)
            zeros.sort()
            table.append((np.array([float(z) for z in zeros]),
                          _split_integrals_hp(zeros, dps, lam, lamd, wd)))
    return table


def residual_polynomials(nu, n_max, support=None):
    """First residual polynomials of nu: degrees 0..n_max, so the list index
    is the degree. Fewer atoms than requested degrees, or a recurrence that
    breaks down first, truncates the list (the degree-(atom count)
    polynomial already vanishes on the support), so len(polys) - 1 is the
    degree reached. Each polynomial carries support, one array for the
    whole list, its values there (values) and, from degree 1 on, its split
    integrals against nu (split).

    support is ascending and contains nu's support (ValueError otherwise);
    it defaults to nu's support. On the double path one factor matrix per
    degree on support gives both s and the split's rest product, whose
    rows on nu's atoms are found by searchsorted. nu must have no atom at 0
    (it is a power-reweighted measure with the kernel mass removed).
    """
    if nu.support.size and nu.support[0] == 0.0:
        raise ValueError("measure has an atom at 0")
    support = (nu.support if support is None
               else np.asarray(support, dtype=float))
    rows = _rows_in(support, nu.support)
    if rows is None:
        raise ValueError("support does not contain the measure's support")
    polys = [ResidualPolynomial(np.empty(0), values=np.ones(support.size),
                                support=support)]
    m = nu.support.size
    if m == 0 or n_max <= 0:
        return polys
    if m <= _MP_MAX_ATOMS:
        for z, split in _mp_zero_table(nu, n_max):
            polys.append(ResidualPolynomial(
                z, split, _factor_products(support, z), support))
        return polys
    # Lanczos on the measure (atoms, weights) is Lanczos on diag(atoms)
    # started from sqrt(weights); it stops on breakdown, 1e-13 of the
    # largest atom
    T, _, _ = lanczos(DiagonalOperator(nu.support), np.sqrt(nu.weights),
                      min(n_max, m))
    for z in _ritz_values(T.dense()):
        s, rest = _factor_products(support, z, rest=True)
        polys.append(ResidualPolynomial(
            z, _split_integrals(z[0], nu, rest[rows]), s, support))
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
    for lj, w_j, row, hit in zip(lamd, wd, near, near.any(axis=1)):
        if hit and any(abs(lj - zeros[k]) <= cut * max(lj, zeros[k])
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


def _split_integrals(z1, nu, rest):
    """The two sides of the split orthogonality identity for the smallest
    zero z1: integral over [0, z1) of s^2 * z1/(z1-lambda) d nu, and over
    (z1, inf) of s^2 * z1/(lambda-z1) d nu. Uses the factored form
    s^2 * z1/|z1-lambda| = |1 - lambda/z1| * prod_{k>=2}(1-lambda/z_k)^2,
    exact where the naive quotient cancels; rest holds the product over
    k >= 2 on nu's atoms. Atoms at z1 contribute zero."""
    lam = nu.support
    w = nu.weights
    at = np.abs(lam - z1) <= 1e-12 * max(1.0, z1)
    frac = np.abs(1.0 - lam / z1)
    left = (lam < z1) & ~at
    right = (lam > z1) & ~at
    # an overflow (double-path zeros near termination) leaves an infinite
    # integral, which fails its bound-chain steps
    with np.errstate(over="ignore"):
        rest2 = rest ** 2
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


class ChainTable(NamedTuple):
    """The bound chain at one sigma, one entry per polynomial: steps holds
    the eight (name, lhs, rhs, ok) arrays, ok whether all eight hold,
    first_failure the name of the first step that fails (None where none
    does), lemma_ok the lemma's own verdict (weighted_left_bound at
    LEMMA_SLACK, with neither the chain's slack nor its absolute epsilon),
    delta the delta_n values and mass_below the mu_sigma mass below z_1."""
    steps: list
    ok: np.ndarray
    first_failure: list
    lemma_ok: np.ndarray
    delta: np.ndarray
    mass_below: np.ndarray


def chain_table(rhos, polys, mu_sigma, xi, sigma):
    """Verify every inequality linking rho_sigma to the mass below the
    smallest zero for each polynomial of polys (degree >= 1), given its
    rho_sigma value in rhos; chain_table([rho], [p], mu_sigma, xi, sigma)
    checks one degree.

    Needs xi >= sigma (the tail-to-left step divides by lambda^{xi-sigma+1}
    with exponent >= 1). Each polynomial must come from residual_polynomials
    of the (xi - sigma + 1) power reweighting of mu_sigma, the measure its
    split integrals are taken against. A scale-aware absolute epsilon keeps
    the finite-termination case (everything 0 up to roundoff) from tripping
    the comparisons. s on mu_sigma's support is looked up, by one
    searchsorted per table, in the values on polys[0]'s support (which
    residual_polynomials shares across its list) if that holds every atom,
    else evaluated by the same column products: the same bits either way.
    The three atom sums of a polynomial are 1-d sums over the ascending
    support, so each entry is bit for bit the one-degree table of its
    polynomial; all else is elementwise over the polynomials.
    """
    if xi < sigma:
        raise ValueError(f"requires xi >= sigma, got xi={xi}, sigma={sigma}")
    q = xi - sigma + 1.0
    left, right = np.array([_split_of(p) for p in polys]).reshape(-1, 2).T
    z1 = np.array([p.zeros[0] for p in polys])
    rho = np.asarray(rhos, dtype=float)
    d = np.array([delta_n(p) for p in polys], dtype=float)
    lam, w = mu_sigma.support, mu_sigma.weights
    atol = 1e-12 * max(mu_sigma.total_mass(), 1e-300)
    integral, above, below = np.empty((3, z1.size))
    support = polys[0].support if len(polys) else None
    rows = None if support is None else _rows_in(support, lam)

    def leq(a, b):
        return a <= b * (1.0 + CHAIN_SLACK) + atol

    def near(a, b):
        return (np.abs(a - b)
                <= CHAIN_SLACK * np.maximum(np.abs(a), np.abs(b)) + atol)

    # double-path zeros near termination overflow the sums, and a tiny z_1
    # overflows z_1^-q: the inf or nan operand fails its step. float_power
    # is C pow, as on a scalar; ** on an array may take a SIMD pow that
    # differs from it in the last bit
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (p, k) in enumerate(zip(polys, np.searchsorted(lam, z1))):
            s = (p.values[rows] if rows is not None and p.support is support
                 else p.evaluate(lam))
            s2w = s * s * w
            integral[i] = s2w.sum()
            above[i] = s2w[k:].sum()
            below[i] = w[:k].sum()
        zq = np.float_power(z1, -q)
        lemma_rhs = below * np.float_power(q / d, q)
        assembled = below * (1.0 + zq * np.float_power(q / d, q))
        coarse = (1.0 + q ** q) * below
        steps = [
            ("integral_identity", rho, integral, near(rho, integral)),
            ("split_bound", rho, below + above, leq(rho, below + above)),
            ("tail_bound", above, zq * left, leq(above, zq * left)),
            ("split_orthogonality", left, right, near(left, right)),
            ("weighted_left_bound", left, lemma_rhs, leq(left, lemma_rhs)),
            ("assembled_bound", rho, assembled, leq(rho, assembled)),
            ("edge_times_delta", np.ones(z1.size), z1 * d,
             z1 * d >= 1.0 - EDGE_SLACK),
            ("coarse_bound", rho, coarse, leq(rho, coarse)),
        ]
        lemma_ok = left <= lemma_rhs * (1.0 + LEMMA_SLACK)
    # inf <= slack * inf holds: an overflowed operand must fail the step
    steps = [(name, lhs, rhs, ok & np.isfinite(lhs) & np.isfinite(rhs))
             for name, lhs, rhs, ok in steps]
    first = [next((name for name, *_, ok in steps if not ok[i]), None)
             for i in range(z1.size)]
    return ChainTable(steps, np.all([ok for *_, ok in steps], axis=0), first,
                      lemma_ok, d, below)

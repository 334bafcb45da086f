"""Residual-minimizing node polynomials of a discrete measure.

The degree-N residual polynomial is the measure's N-th orthogonal polynomial
normalized to 1 at the origin; it is represented by its zeros (all simple,
strictly positive for a measure supported in (0, inf)), and the first ones
of a measure are made together as one ZeroTable. The zero-sum
functional delta_n, the split-integral orthogonality identity, and the tail
bound chain built on them are verified numerically step by step.
"""

from typing import NamedTuple

import numpy as np

from .krylov import _Lanczos
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


def _ritz_values(alphas, betas):
    """Eigenvalues, ascending, of every leading N x N block of the Jacobi
    matrix with diagonal alphas and off-diagonal betas (one fewer), N =
    1..len(alphas), from the one dense tridiagonal built here. LAPACK's
    dsyevd leaves a block that is already tridiagonal unchanged (every
    Householder tau is 0) and hands it to dsterf, the root-free QR of the
    tridiagonal eigenvalue drivers."""
    T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    return [np.linalg.eigvalsh(T[:N, :N]) for N in range(1, len(T) + 1)]


def _mp_zero_table(measure, n_max):
    """(zeros, split integrals, down) of every degree 1..reached, the zeros
    in extended precision rounded to double at the end. Working precision
    covers the weight dynamic range, so a zero that has captured an atom
    lands on the atom's double exactly, not a few ulps off it; the split
    identity is infinitely sensitive to the sub-ulp rest of that offset,
    so the split integrals use the unrounded zeros, and down tells whether
    rounding moved z1 down (an atom on the rounded z1 is then below it).

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
    # a margin, measured: at a fixed 32 digits all 152,576 zeros of 80
    # seeded pool tables (8-96 atoms, xi = 1, 2) round to the same doubles
    # as at these 47-62 digits. What moves first as dps falls is the split
    # integrals' capture cut, 10^-(dps-15)
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
        starts = _ritz_values([float(a) for a in alphas[:reached]],
                              np.sqrt([float(b) for b in beta2[1:reached]]))
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
                          _split_integrals_hp(zeros, dps, lam, lamd, wd),
                          Decimal(float(zeros[0])) < zeros[0]))
    return table


class ZeroTable(NamedTuple):
    """The residual polynomials of a measure nu, degrees N = 1..reached at
    index N - 1, made where their zeros are made. support is the ascending
    array the values are on, one for the whole table. Per degree: zeros,
    ascending; values, s on support (one array per degree, never stacked);
    left and right, the split integrals against nu; delta, delta_n of the
    zeros; and k, the number of support atoms below the smallest zero z1,
    classified as the split integrals classify them: strictly below the
    rounded z1, or at or below it where the extended path's rounding moved
    z1 down."""
    support: np.ndarray
    zeros: list
    values: list
    left: np.ndarray
    right: np.ndarray
    delta: np.ndarray
    k: np.ndarray


def residual_polynomials(nu, n_max, support=None):
    """The ZeroTable of nu's first residual polynomials, degrees 1..n_max.
    Fewer atoms than requested degrees, or a recurrence that breaks down
    first, truncates the table (the degree-(atom count) polynomial already
    vanishes on the support), so len(table.zeros) is the degree reached.
    Every degree's zeros must be strictly positive and strictly increasing
    (ValueError otherwise).

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
    m = nu.support.size
    if m == 0 or n_max <= 0:
        found = []
    elif m <= _MP_MAX_ATOMS:
        found = _mp_zero_table(nu, n_max)
    else:
        # Lanczos on the measure (atoms, weights) is Lanczos on diag(atoms)
        # started from sqrt(weights); it stops on breakdown, 1e-13 of the
        # largest atom
        state = _Lanczos(DiagonalOperator(nu.support), np.sqrt(nu.weights))
        state.extend(min(n_max, m))
        # only the coefficients are read: the basis, atoms x steps, is freed
        # before any other work
        alphas, betas = state.alphas, state.betas
        del state
        found = [(z, None, False) for z in _ritz_values(alphas, betas)]
    zeros, values, split, k = [], [], [], []
    for z, lr, down in found:
        if np.any(z <= 0) or np.any(np.diff(z) <= 0):
            raise ValueError(
                f"degree-{z.size} zeros must be strictly positive and "
                f"strictly increasing, got min={z.min()}")
        if lr is None:
            s, rest = _factor_products(support, z, rest=True)
            lr = _split_integrals(z[0], nu, rest[rows])
        else:
            s = _factor_products(support, z)
        zeros.append(z)
        values.append(s)
        split.append(lr)
        k.append(np.searchsorted(support, z[0], "right" if down else "left"))
    left, right = np.array(split, dtype=float).reshape(-1, 2).T
    return ZeroTable(support, zeros, values, left, right,
                     np.array([delta_n(z) for z in zeros], dtype=float),
                     np.array(k, dtype=int))


def delta_n(zeros):
    """1/z_1 + 2 * sum_{k >= 2} 1/z_k over the ascending array zeros."""
    inv = 1.0 / zeros
    return float(inv[0] + 2.0 * inv[1:].sum())


def check_separation(zn, zn1):
    """Strict interlacing of the zero arrays of degrees N and N + 1.

    Verifies z^{(N+1)}_k < z^{(N)}_k < z^{(N+1)}_{k+1} for all k, with
    relative slack SEPARATION_SLACK. Returns (ok, max_violation) where the
    violation is the largest signed relative overshoot (negative values
    mean margin).
    """
    if zn1.size != zn.size + 1:
        raise ValueError(
            f"need degrees N and N+1, got {zn.size} and {zn1.size}")
    if zn.size == 0:
        return True, 0.0
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
    at = np.abs(lam - z1) <= 1e-12 * z1
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


class ChainTable(NamedTuple):
    """The bound chain at one sigma, one entry per degree of a zero table:
    steps holds the eight (name, lhs, rhs, ok) arrays, ok whether all eight
    hold, first_failure the name of the first step that fails (None where
    none does), lemma_ok the lemma's own verdict (weighted_left_bound at
    LEMMA_SLACK, with neither the chain's slack nor its absolute epsilon)
    and below the mu_sigma mass below z_1."""
    steps: list
    ok: np.ndarray
    first_failure: list
    lemma_ok: np.ndarray
    below: np.ndarray


def chain_table(rhos, table, mu_sigma, xi, sigma):
    """Verify every inequality linking rho_sigma to the mass below the
    smallest zero for each degree of the ZeroTable table, given its
    rho_sigma value in rhos (one per degree).

    Needs xi >= sigma (the tail-to-left step divides by lambda^{xi-sigma+1}
    with exponent >= 1). The table must come from residual_polynomials of
    the (xi - sigma + 1) power reweighting of mu_sigma, the measure its
    split integrals are taken against, on a support holding every atom of
    mu_sigma (ValueError otherwise). A scale-aware absolute epsilon keeps
    the finite-termination case (everything 0 up to roundoff) from tripping
    the comparisons. s on mu_sigma's atoms and the count of them below z_1
    are read from the table's values and k through one searchsorted. The
    three atom sums of a degree are 1-d sums over the ascending support, so
    each entry is bit for bit the table of that degree alone; all else is
    elementwise over the degrees.
    """
    if xi < sigma:
        raise ValueError(f"requires xi >= sigma, got xi={xi}, sigma={sigma}")
    lam, w = mu_sigma.support, mu_sigma.weights
    rows = _rows_in(table.support, lam)
    if rows is None:
        raise ValueError("mu_sigma has an atom outside the table's support")
    q = xi - sigma + 1.0
    left, right, d = table.left, table.right, table.delta
    z1 = np.array([z[0] for z in table.zeros], dtype=float)
    rho = np.asarray(rhos, dtype=float)
    if rho.shape != z1.shape:
        raise ValueError(f"need one rho per degree, got {rho.size} for "
                         f"{z1.size} degrees")
    atol = 1e-12 * max(mu_sigma.total_mass(), 1e-300)
    integral, above, below = np.empty((3, z1.size))

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
        for i, (s, k) in enumerate(zip(table.values,
                                       np.searchsorted(rows, table.k))):
            s = s[rows]
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
                      lemma_ok, below)

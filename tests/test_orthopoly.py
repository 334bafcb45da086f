import decimal

import numpy as np
import pytest

import powercg as pc
from powercg.measures import (WEIGHT_FLOOR, DiscreteSpectralMeasure,
                              weight_by_power)
from powercg import orthopoly
from powercg.orthopoly import (CHAIN_SLACK, _factor_products, chain_table,
                               check_separation, delta_n, orthogonality_gap,
                               residual_polynomials)

from mp_reference import lemma_bound, reference_zero_table


def rho_integral_identity(zeros, mu_sigma):
    """integral of s^2 d mu_sigma as a plain atom sum, s the residual
    polynomial with the given zeros."""
    s = _factor_products(mu_sigma.support, zeros)
    return float(np.sum(s * s * mu_sigma.weights))


# the two-atom worked case: nu has atoms (1,1) and (2,4)
NU2 = DiscreteSpectralMeasure(np.array([1.0, 2.0]), np.array([1.0, 4.0]))
MU0_2 = DiscreteSpectralMeasure(np.array([1.0, 2.0]), np.array([1.0, 1.0]))


def test_first_zero_hand():
    # s1 orthogonal to constants in nu: z = (1*1 + 2*4) / (1 + 4) = 9/5,
    # with the atom at 1 below it (k counts the support atoms below z1)
    t = residual_polynomials(NU2, 1)
    assert len(t.zeros) == 1 and t.zeros[0].size == 1
    assert abs(t.zeros[0][0] - 9.0 / 5.0) < 1e-14
    assert t.k.tolist() == [np.searchsorted(t.support, t.zeros[0][0])] == [1]
    assert np.array_equal(t.support, NU2.support)
    # a table of no degree
    t = residual_polynomials(NU2, 0)
    assert t.zeros == t.values == [] and t.left.size == t.k.size == 0


def test_degree_zero_polynomial_is_one():
    x = np.array([0.0, 1.0, 17.3])
    assert np.array_equal(_factor_products(x, np.empty(0)), [1.0, 1.0, 1.0])


def test_evaluate_at_zero_is_one():
    zeros = np.array([2.0, 5.0])
    assert _factor_products(np.array([0.0]), zeros)[0] == 1.0
    assert abs(_factor_products(np.array([1.0]), zeros)[0] - 0.5 * 0.8) < 1e-15


def test_zeros_validation(monkeypatch):
    # the one builder refuses zeros that are not strictly positive or not
    # strictly increasing, on either zero path (8 atoms: decimal, 72:
    # double), before it uses them
    for bad in ([-1.0, 2.0], [2.0, 1.0], [0.0, 2.0], [2.0, 2.0]):
        z = np.array(bad)
        monkeypatch.setattr(orthopoly, "_mp_zero_table",
                            lambda nu, n_max: [(z, (1.0, 1.0), False)])
        monkeypatch.setattr(orthopoly, "_ritz_values",
                            lambda alphas, betas: [z])
        for m in (8, 72):
            with pytest.raises(ValueError, match="strictly positive and "
                                                 "strictly increasing"):
                residual_polynomials(_pool_like(m, 0), 2)


def test_sympy_hankel_oracle():
    # independent construction: monic orthogonal polynomial from the exact
    # Hankel determinant of the moments, rational arithmetic throughout
    sympy = pytest.importorskip("sympy")
    lam = [1, 2, 3, 5, 7]
    wts = [1, 1, 2, 1, 3]
    x = sympy.Symbol("x")
    mom = [sum(sympy.Integer(w) * sympy.Integer(l) ** k
               for l, w in zip(lam, wts)) for k in range(8)]
    for deg in (2, 3):
        rows = [[mom[i + j] for j in range(deg + 1)] for i in range(deg)]
        rows.append([x ** j for j in range(deg + 1)])
        poly = sympy.expand(sympy.Matrix(rows).det())
        roots = sorted(float(r) for r in sympy.Poly(poly, x).nroots(n=30))
        nu = DiscreteSpectralMeasure(np.array(lam, float),
                                     np.array(wts, float))
        got = residual_polynomials(nu, deg).zeros[deg - 1]
        assert np.allclose(got, roots, rtol=1e-10), (got, roots)


def _pool_like(m, seed):
    # atoms log-uniform on [1e-3, 1e3] and weights lambda^3 |e0|^2, the
    # xi = 2 measure of a seeded diagonal series
    rng = np.random.default_rng(seed)
    lam = np.sort(np.exp(rng.uniform(np.log(1e-3), np.log(1e3), m)))
    return DiscreteSpectralMeasure(lam, lam ** 3 * rng.standard_normal(m) ** 2)


def test_mp_zero_table_matches_reference_route(monkeypatch):
    # the RKPW + Newton table against the reorthogonalized Stieltjes + eigsy
    # route: table length, every rounded zero and both split integrals
    # bit-equal. The 16-atom measure has weights over twelve decades and
    # zeros that have captured atoms; the 40- and 64-atom ones are cut short
    # to keep the dense reference eigensolves cheap. Newton skips the pass
    # that would only confirm a zero: at most 2.25 recurrence passes per
    # zero (a confirming pass on every zero made 2.9-3.0)
    passes = []
    recurrence = orthopoly._recurrence

    def spy(*args):
        passes.append(1)
        return recurrence(*args)
    monkeypatch.setattr(orthopoly, "_recurrence", spy)
    captured = _pool_like(16, 5)
    assert captured.weights.max() / captured.weights.min() >= 1e12
    cases = [(NU2, 5), (captured, 16), (_pool_like(40, 2), 24),
             (_pool_like(64, 3), 12)]
    for nu, n_max in cases:
        passes.clear()
        got = orthopoly._mp_zero_table(nu, n_max)
        zeros = sum(z.size for z, *_ in got)
        assert len(passes) <= 2.25 * zeros, (len(nu), len(passes), zeros)
        want = reference_zero_table(nu, n_max)
        assert len(got) == len(want) == min(n_max, len(nu))
        for N, ((z, split, _), (z_ref, split_ref)) in enumerate(
                zip(got, want), 1):
            assert np.array_equal(z, z_ref), (len(nu), N)
            assert split == split_ref, (len(nu), N, split, split_ref)
        if nu is captured:
            assert sum(np.isin(nu.support, z).sum() for z, *_ in got) > 0


def test_mp_path_ends_at_64_atoms(monkeypatch):
    # a measure of _MP_MAX_ATOMS = 64 atoms gets its zeros in extended
    # precision; one more atom takes the double path
    calls = []
    mp_zero_table = orthopoly._mp_zero_table

    def spy(nu, n_max):
        calls.append(len(nu))
        return mp_zero_table(nu, n_max)
    monkeypatch.setattr(orthopoly, "_mp_zero_table", spy)
    for m, want in ((64, [64]), (65, [])):
        calls.clear()
        nu = _pool_like(m, 11)
        assert len(nu) == m
        assert len(residual_polynomials(nu, 2).zeros) == 2
        assert calls == want, m


def test_newton_polish_that_does_not_settle_raises(monkeypatch):
    # from a double start one Newton correction is still far above the
    # 10^-(dps-3) stopping rule and the 10^-(dps-6) floor
    monkeypatch.setattr(orthopoly, "_NEWTON_MAX_STEPS", 1)
    with pytest.raises(RuntimeError, match=r"degree-1 zero .* dps=\d+"):
        orthopoly._mp_zero_table(_pool_like(8, 1), 4)


def _base_measure(prob):
    """The base measure |e0|^2 on the problem's eigenvalues."""
    return DiscreteSpectralMeasure(prob.operator.eigenvalues(),
                                   np.abs(prob.e0) ** 2)


def _orthogonality_measure(prob, xi):
    """The measure run() takes the node polynomials of at xi."""
    return weight_by_power(_base_measure(prob), xi + 1.0)


def _pool_problem(m, index):
    """Member (m, index) of the benchmark's diagonal pool: m distinct atoms
    log-uniform on [1e-3, 1e3] and a standard-normal initial error, from the
    pool's seed."""
    from powercg.runs import build_custom_case

    rng = np.random.default_rng([20261017, m, index])
    while True:
        lam = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=m))
        if np.unique(lam).size == m:
            break
    return build_custom_case({"eigenvalues": lam,
                              "error": rng.standard_normal(m)})


def _pool_measure(m, index, xi):
    """_orthogonality_measure of pool member (m, index)."""
    return _orthogonality_measure(_pool_problem(m, index), xi)


def test_double_path_zeros_match_scipy_eigh_tridiagonal():
    # the double path's Ritz values come from numpy's eigvalsh on each
    # leading block of the dense Lanczos matrix; scipy's tridiagonal
    # eigensolver on the same recurrence is the oracle, to 4 ulps at every
    # degree. 2b at its default size (4096 atoms) and pool member (96, 0)
    # are both above the extended-precision cutoff
    from scipy.linalg import eigh_tridiagonal
    from powercg.krylov import _Lanczos
    from powercg.linop import DiagonalOperator
    from powercg.runs import RunConfig, build_test_case

    config = RunConfig(test="2b", xi=1.0).resolve()
    cases = [(_orthogonality_measure(build_test_case("2b"), 1.0),
              config.n_max), (_pool_measure(96, 0, 1.0), 96)]
    for nu, n_max in cases:
        assert len(nu) > orthopoly._MP_MAX_ATOMS
        table = residual_polynomials(nu, n_max)
        st = _Lanczos(DiagonalOperator(nu.support), np.sqrt(nu.weights))
        st.extend(n_max)
        assert len(table.zeros) == st.steps
        for N in range(1, st.steps + 1):
            want = eigh_tridiagonal(st.alphas[:N], st.betas[:N - 1],
                                    eigvals_only=True)
            got = table.zeros[N - 1]
            assert np.all(np.abs(got - want) <= 4 * np.spacing(want)), N


def test_newton_accepts_a_zero_at_the_recurrences_rounding_floor():
    # member (72, 4) of the benchmark's diagonal pool, at xi = 1: one
    # degree-53 zero's corrections stall at 1.2e-51 relative against the
    # 1e-51 stopping rule (dps = 54), because the degree-53 recurrence loses
    # about three digits; the 10^-(dps-6) floor accepts it
    table = orthopoly._mp_zero_table(_pool_measure(72, 4, 1.0), 72)
    assert len(table) == 72
    left, right = np.array([split for _, split, _ in table]).T
    gap = orthogonality_gap(left, right)
    assert np.all(gap <= CHAIN_SLACK), np.flatnonzero(gap > CHAIN_SLACK) + 1
    for N in range(1, 72):
        assert check_separation(table[N - 1][0], table[N][0])[0], N


def test_extended_path_classifies_the_atom_at_z1_once(monkeypatch):
    # pool member (72, 1) at xi = 1, forced onto the extended path: at
    # N = 71 the smallest zero rounds down onto the smallest atom. The split
    # integrals put that atom below the unrounded z1 (left = right = 4e-30),
    # so the mass below z1 must count it too, or the lemma compares 4e-30
    # with a bound of 0
    monkeypatch.setattr(orthopoly, "_MP_MAX_ATOMS", 72)
    base = _base_measure(_pool_problem(72, 1))
    table = residual_polynomials(weight_by_power(base, 2.0), 72, base.support)
    assert len(table.zeros) == 72
    assert table.zeros[70][0] == base.support[0] and table.k[70] == 1
    assert table.left[70] > 0.0
    t = chain_table(np.zeros(72), table, base, 1.0, 0.0)
    assert t.lemma_ok[70] and t.below[70] == base.weights[0]
    assert t.lemma_ok.all(), np.flatnonzero(~t.lemma_ok) + 1


def test_mp_zero_table_ignores_the_callers_decimal_context():
    # the table runs in a context of its own: a caller's low precision,
    # floor rounding and inexact trap neither change nor break it, and the
    # caller's context comes back untouched (no precision, rounding, trap or
    # flag changed)
    nu = _pool_like(16, 5)
    want = orthopoly._mp_zero_table(nu, 16)
    ambient = decimal.Context(prec=5, rounding=decimal.ROUND_FLOOR,
                              traps=[decimal.Inexact])
    with decimal.localcontext(ambient) as ctx:
        before = repr(ctx)
        got = orthopoly._mp_zero_table(nu, 16)
        assert decimal.getcontext() is ctx
        assert repr(ctx) == before
    assert len(got) == len(want) == 16
    for (z, split, down), (z_ref, split_ref, down_ref) in zip(got, want):
        assert np.array_equal(z, z_ref)
        assert split == split_ref and down == down_ref


def test_zeros_inside_support_hull():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = int(rng.integers(4, 30))
        lam = np.sort(rng.uniform(0.01, 100.0, m))
        w = rng.uniform(0.1, 2.0, m)
        nu = DiscreteSpectralMeasure(lam, w)
        deg = int(rng.integers(1, min(m, 9)))
        t = residual_polynomials(nu, deg)
        z = t.zeros[deg - 1]
        assert z.size == deg
        # the decimal path's k, as the double path's, counts the support
        # atoms below the rounded z1
        assert t.k[deg - 1] == np.searchsorted(nu.support, z[0])
        assert np.all(np.diff(z) > 0)
        assert z[0] > nu.support[0] - 1e-12 * nu.support[0]
        assert z[-1] < nu.support[-1] + 1e-12 * nu.support[-1]


def test_separation_and_monotone_zero_sequences():
    rng = np.random.default_rng(22)
    for _ in range(10):
        m = int(rng.integers(10, 40))
        lam = np.sort(rng.uniform(0.01, 50.0, m))
        w = rng.uniform(0.1, 2.0, m)
        nu = DiscreteSpectralMeasure(lam, w)
        zeros = residual_polynomials(nu, min(m - 1, 10)).zeros
        for N in range(1, len(zeros)):
            ok, viol = check_separation(zeros[N - 1], zeros[N])
            assert ok, (N, viol)
        z1 = [z[0] for z in zeros]
        zm = [z[-1] for z in zeros]
        assert all(z1[i + 1] <= z1[i] * (1 + 1e-10) for i in range(len(z1) - 1))
        assert all(zm[i + 1] >= zm[i] * (1 - 1e-10) for i in range(len(zm) - 1))


def test_separation_vacuous_for_degree_zero():
    t = residual_polynomials(NU2, 1)
    ok, viol = check_separation(np.empty(0), t.zeros[0])
    assert ok and viol == 0.0
    with pytest.raises(ValueError, match="degrees N and N"):
        check_separation(t.zeros[0], t.zeros[0])


def test_delta_hand():
    t = residual_polynomials(NU2, 1)
    assert abs(t.delta[0] - 5.0 / 9.0) < 1e-15
    assert abs(delta_n(np.array([2.0, 4.0, 8.0]))
               - (0.5 + 2 * (0.25 + 0.125))) < 1e-15


def test_edge_zero_times_delta_at_least_one():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = int(rng.integers(4, 25))
        lam = np.sort(rng.uniform(0.01, 100.0, m))
        nu = DiscreteSpectralMeasure(lam, rng.uniform(0.1, 2.0, m))
        deg = int(rng.integers(1, min(m, 8)))
        t = residual_polynomials(nu, deg)
        assert t.zeros[-1][0] * t.delta[-1] >= 1.0 - 1e-12
        assert t.delta[-1] == delta_n(t.zeros[-1])


def test_orthogonality_gap_hand():
    # both split integrals equal 4/9 for the two-atom case at N = 1
    t = residual_polynomials(NU2, 1)
    assert abs(t.left[0] - 4.0 / 9.0) < 1e-14
    assert abs(t.right[0] - 4.0 / 9.0) < 1e-14
    assert orthogonality_gap(t.left, t.right)[0] < 1e-14


def test_orthogonality_gap_sweep():
    rng = np.random.default_rng(24)
    for _ in range(10):
        m = int(rng.integers(8, 40))
        lam = np.sort(rng.uniform(0.01, 200.0, m))
        nu = DiscreteSpectralMeasure(lam, rng.uniform(0.01, 1.0, m))
        t = residual_polynomials(nu, min(m - 1, 12))
        gap = orthogonality_gap(t.left, t.right)
        assert gap.size == min(m - 1, 12)
        assert np.all(gap <= 1e-8), gap


def test_split_integrals_against_mpmath():
    # high-precision recomputation of both split integrals, raw formula
    # s^2 z1/|z1 - lambda|; 25 atoms take the mp path, 72 the double path
    # with its factored form
    from mpmath import mp
    rng = np.random.default_rng(25)
    for m in (25, 72):
        lam = np.sort(rng.uniform(0.5, 300.0, m))
        w = rng.uniform(0.1, 1.0, m)
        nu = DiscreteSpectralMeasure(lam, w)
        t = residual_polynomials(nu, 6)
        lhs, rhs = t.left[5], t.right[5]
        with mp.workdps(60):
            z = [mp.mpf(float(v)) for v in t.zeros[5]]
            left = mp.mpf(0)
            right = mp.mpf(0)
            for li, wi in zip(lam, w):
                lm = mp.mpf(float(li))
                s = mp.mpf(1)
                for zz in z:
                    s *= (1 - lm / zz)
                val = mp.mpf(float(wi)) * s ** 2 * z[0] / abs(z[0] - lm)
                if lm < z[0]:
                    left += val
                elif lm > z[0]:
                    right += val
            assert abs(lhs - float(left)) <= 1e-12 * float(left), m
            assert abs(rhs - float(right)) <= 1e-12 * float(right), m


def _mp_product(zeros, lam):
    from mpmath import mp
    with mp.workdps(80):
        want = mp.mpf(1)
        for z in zeros:
            want *= 1 - mp.mpf(float(lam)) / mp.mpf(float(z))
    return want


def test_product_evaluation_out_of_range_rule():
    # a product out of the normal double range is recomputed with the
    # running value rescaled by powers of two: it must agree with mpmath
    # where the value is representable and give a signed inf (not nan)
    # where it is not
    from mpmath import mp
    zeros = np.sort(np.exp(np.linspace(np.log(1e-4), np.log(1.0), 60)))
    got = _factor_products(np.array([1e3]), zeros)[0]
    want = float(_mp_product(zeros, 1e3))
    rel = abs(got - want) / abs(want)
    assert rel < 1e-12, (got, want, rel)

    # at 1e5 every factor is negative and the true magnitude is ~1e420,
    # beyond float64 range: the rescaled product yields +inf (even factor
    # count)
    big = _factor_products(np.array([1e5]), zeros)[0]
    with mp.workdps(80):
        logmag = mp.fsum(mp.log(abs(1 - mp.mpf(1e5) / mp.mpf(float(z))), 10)
                         for z in zeros)
    assert float(logmag) > 308.0
    assert np.isinf(big) and big > 0

    # degree 50 whose running product overflows on the way and comes back
    # into range: 19 factors of about -2e17, then 31 of magnitude below 1.
    # A plain product returns -inf here; the true value is -1.4252e293
    zeros = np.concatenate([np.geomspace(1e-17, 2e-17, 19),
                            np.linspace(2.05, 2.4, 31)])
    lam = np.array([2.0])
    with np.errstate(over="ignore"):
        G = 1.0 - lam[None, :] / zeros[:, None]
        assert np.prod(G, axis=0)[0] == -np.inf
    got = _factor_products(lam, zeros)[0]
    want = _mp_product(zeros, 2.0)
    assert float(want) == pytest.approx(-1.4252e293, rel=1e-4)
    assert abs(got - float(want)) <= 1e-14 * abs(float(want)), (got, want)

    # an exactly-zero factor gives exactly 0 whatever the other factors do
    zeros = np.array([1e-300, 1e-299, 1.0])
    assert _factor_products(np.array([1.0]), zeros)[0] == 0.0


def test_values_and_split_share_one_factor_matrix():
    # 300 atoms (double path), degrees 1..60. The base support is strictly
    # larger than nu's: it keeps a kernel atom at 0 and an atom whose
    # lambda^2 w falls below WEIGHT_FLOOR
    rng = np.random.default_rng(31)
    lam = np.sort(np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 299)))
    lam = np.concatenate([[0.0], lam])
    w = rng.uniform(0.1, 1.0, lam.size)
    w[1] = 1e-299
    base = DiscreteSpectralMeasure(lam, w)
    nu = weight_by_power(base, 2.0)
    support = base.support
    assert support.size == 300 and len(nu) == 298
    assert support[1] ** 2 * base.weights[1] <= WEIGHT_FLOOR
    assert nu.support[0] == support[2]
    t = residual_polynomials(nu, 60, support)
    assert t.support is support and len(t.zeros) == 60
    for N in range(1, 61):
        values, z = t.values[N - 1], t.zeros[N - 1]
        assert np.array_equal(values, _factor_products(support, z)), N
        assert values[0] == 1.0
        # the support atoms below the rounded z1, as one searchsorted
        assert t.k[N - 1] == np.searchsorted(support, z[0]), N
        assert t.k[N - 1] == np.sum(support < z[0]), N
        # the layout does not change the rounding: at every degree a
        # sequential product along each atom's row (zeros that have
        # captured an atom give a factor of exactly 0)
        rows = 1.0 - support[:, None] / z[None, :]
        want = np.prod(rows, axis=1)
        assert np.all(np.isfinite(want)), N
        assert np.array_equal(values, want), N
        rest = np.ones(len(nu))
        for zk in z[1:]:
            rest *= 1.0 - nu.support / zk
        term = nu.weights * np.abs(1.0 - nu.support / z[0]) * rest ** 2
        left = term[nu.support < z[0]].sum()
        right = term[nu.support > z[0]].sum()
        lhs, rhs = t.left[N - 1], t.right[N - 1]
        assert abs(lhs - left) <= 1e-13 * left, N
        assert abs(rhs - right) <= 1e-13 * right, N
    for bad in (support[:-1], np.delete(support, 150)):
        with pytest.raises(ValueError, match="support"):
            residual_polynomials(nu, 3, bad)


def test_rho_integral_identity_is_weighted_sum():
    t = residual_polynomials(NU2, 1)
    # sum over mu0 atoms of s1(lambda)^2: (4/9)^2 + (1/9)^2 = 17/81
    val = rho_integral_identity(t.zeros[0], MU0_2)
    assert abs(val - 17.0 / 81.0) < 1e-15


def test_lemma_hand_numbers():
    # xi=1, sigma=0, q=2: mass below 9/5 is 1, (q/delta)^q = (18/5)^2
    t = residual_polynomials(NU2, 1)
    lhs, rhs, ok = lemma_bound(t, 1, MU0_2, 1.0, 0.0)
    assert abs(lhs - 4.0 / 9.0) < 1e-14
    assert abs(rhs - 12.96) < 1e-12
    assert ok


def test_lemma_rejects_negative_exponent():
    t = residual_polynomials(NU2, 1)
    with pytest.raises(ValueError):
        lemma_bound(t, 1, MU0_2, 1.0, 2.5)  # q = -0.5


def test_lemma_sweep_all_exponents():
    rng = np.random.default_rng(26)
    for _ in range(8):
        m = int(rng.integers(10, 30))
        lam = np.sort(rng.uniform(0.05, 80.0, m))
        base = DiscreteSpectralMeasure(lam, rng.uniform(0.05, 1.0, m))
        for xi, sigma in ((1.0, 1.0), (1.0, 0.0), (2.0, 0.0), (1.0, 1.5)):
            q = xi - sigma + 1.0
            assert q in (0.5, 1.0, 2.0, 3.0)
            nu = weight_by_power(base, xi + 1.0)
            mu_s = weight_by_power(base, sigma)
            t = residual_polynomials(nu, 8)
            for N in range(1, len(t.zeros) + 1):
                lhs, rhs, ok = lemma_bound(t, N, mu_s, xi, sigma)
                assert ok, (xi, sigma, N, lhs, rhs)


def test_chain_table_hand_case():
    table = residual_polynomials(NU2, 1)
    t = chain_table([17.0 / 81.0], table, MU0_2, 1.0, 0.0)
    names = [name for name, *_ in t.steps]
    assert names == ["integral_identity", "split_bound", "tail_bound",
                     "split_orthogonality", "weighted_left_bound",
                     "assembled_bound", "edge_times_delta", "coarse_bound"]
    assert t.ok.tolist() == [True] and t.first_failure == [None]
    by = {name: (lhs[0], rhs[0], ok[0]) for name, lhs, rhs, ok in t.steps}
    assert all(ok for _, _, ok in by.values())
    # z1 * delta = (9/5)(5/9) = 1 exactly: the edge inequality is tight
    assert abs(by["edge_times_delta"][0] - 1.0) < 1e-14
    assert abs(by["tail_bound"][0] - 1.0 / 81.0) < 1e-15
    assert abs(by["tail_bound"][1] - 100.0 / 729.0) < 1e-14
    # mass below z1 = the whole atom at 1, so the assembled factor is
    # 1 + z1^{-2} (q/delta)^2 = 1 + (25/81)(18/5)^2 = 5, and the coarse
    # constant 1 + q^q gives the same 5 because z1*delta = 1 here
    assert abs(by["split_bound"][1] - 82.0 / 81.0) < 1e-14
    assert abs(by["assembled_bound"][1] - 5.0) < 1e-13
    assert abs(by["coarse_bound"][1] - 5.0) < 1e-13
    assert abs(t.below[0] - 1.0) < 1e-15
    assert t.lemma_ok.tolist() == [lemma_bound(table, 1, MU0_2, 1.0, 0.0)[2]]


def test_chain_table_detects_wrong_rho():
    # the hand case's rho is 17/81; 5e-8 relative off it is five times
    # CHAIN_SLACK, and a slack ten times wider would let it pass
    for rho in (0.5, 17.0 / 81.0 * (1 + 5e-8)):
        t = chain_table([rho], residual_polynomials(NU2, 1), MU0_2, 1.0, 0.0)
        assert t.ok.tolist() == [False], rho
        assert t.first_failure == ["integral_identity"], rho


def test_lemma_and_edge_slacks_at_their_boundary():
    # mu0 = unit atoms (1, 2, 4), nu = lambda^2 mu0, degree 1: z1 = 73/21,
    # two atoms below it. A left split integral 1e-8 relative above the
    # lemma's bound fails LEMMA_SLACK, and z1 * delta 1e-8 below 1 fails
    # EDGE_SLACK; a slack of 1e-6 would pass either
    mu0 = DiscreteSpectralMeasure(np.array([1.0, 2.0, 4.0]), np.ones(3))
    table = residual_polynomials(weight_by_power(mu0, 2.0), 1, mu0.support)
    t = chain_table([0.0], table, mu0, 1.0, 0.0)
    assert t.below.tolist() == [2.0] and t.lemma_ok.tolist() == [True]
    bound = {name: rhs for name, _, rhs, _ in t.steps}
    for rel, want in ((1e-11, True), (1e-8, False)):
        over = table._replace(left=bound["weighted_left_bound"] * (1 + rel))
        t = chain_table([0.0], over, mu0, 1.0, 0.0)
        assert t.lemma_ok.tolist() == [want], rel
    z1 = table.zeros[0][0]
    for rel, want in ((1e-11, True), (1e-8, False)):
        short = table._replace(delta=np.array([(1 - rel) / z1]))
        t = chain_table([0.0], short, mu0, 1.0, 0.0)
        edge = next(ok for name, *_, ok in t.steps
                    if name == "edge_times_delta")
        assert edge.tolist() == [want], rel


def test_separation_slack_at_its_boundary():
    # a degree-2 zero 1e-8 relative above the degree-1 zero it must stay
    # below breaks interlacing beyond SEPARATION_SLACK; 1e-11 is within it
    for rel, want in ((1e-11, True), (1e-8, False)):
        ok, worst = check_separation(np.array([1.0]), np.array([1 + rel, 2.0]))
        assert ok is want and worst == pytest.approx(rel, rel=1e-4), rel


def test_split_integrals_capture_cut():
    # an atom within 1e-12 relative of z1 has been captured and counts zero;
    # one 1e-11 relative above it is outside the cut and counts on the right
    for rel, want in ((1e-13, 0.5), (1e-11, 0.5 + 1e-11)):
        nu = DiscreteSpectralMeasure(np.array([1.0, 2.0 * (1 + rel), 3.0]),
                                     np.ones(3))
        left, right = orthopoly._split_integrals(2.0, nu, np.ones(3))
        assert left == 0.5
        assert abs(right - want) <= 1e-15, (rel, right)


def test_chain_table_rejects_sigma_above_xi():
    with pytest.raises(ValueError, match="xi >= sigma"):
        chain_table([0.1], residual_polynomials(NU2, 1), MU0_2, 1.0, 1.5)


def test_chain_table_refuses_an_atom_outside_the_support():
    # s on mu_sigma's atoms is read from the table's values, so every atom
    # must be in the table's support: an atom between two of its atoms, or
    # above them all, is refused. So is a rho count that is not one per
    # degree
    table = residual_polynomials(NU2, 2)
    for extra in (1.5, 3.0):
        wide = DiscreteSpectralMeasure(np.array([1.0, 2.0, extra]),
                                       np.ones(3))
        with pytest.raises(ValueError, match="outside the table's support"):
            chain_table([0.1, 0.1], table, wide, 1.0, 0.0)
    with pytest.raises(ValueError, match="one rho per degree"):
        chain_table([0.1], table, MU0_2, 1.0, 0.0)


def test_chain_table_sweep():
    rng = np.random.default_rng(27)
    for _ in range(6):
        m = int(rng.integers(12, 40))
        lam = np.sort(rng.uniform(0.02, 60.0, m))
        e0w = rng.uniform(0.01, 1.0, m)
        base = DiscreteSpectralMeasure(lam, e0w)
        for xi in (1.0, 2.0):
            nu = weight_by_power(base, xi + 1.0)
            table = residual_polynomials(nu, 10)
            for sigma in (0.0, 1.0, 2.0):
                if sigma > xi:
                    continue
                mu_s = weight_by_power(base, sigma)
                rhos = [rho_integral_identity(z, mu_s) for z in table.zeros]
                t = chain_table(rhos, table, mu_s, xi, sigma)
                assert t.ok.all(), (xi, sigma, t.first_failure)
                assert t.first_failure == [None] * len(table.zeros)


def test_truncation_when_measure_exhausts():
    t = residual_polynomials(NU2, 5)
    assert len(t.zeros) == 2  # degrees 1, 2 on a two-atom measure
    assert [len(f) for f in t[1:]] == [2] * 6


def test_atom_at_zero_rejected():
    bad = DiscreteSpectralMeasure(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        residual_polynomials(bad, 1)

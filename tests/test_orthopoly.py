import decimal

import numpy as np
import pytest

import powercg as pc
from powercg.measures import DiscreteSpectralMeasure, weight_by_power
from powercg import orthopoly
from powercg.orthopoly import (ResidualPolynomial, bound_chain,
                               check_separation, delta_n, orthogonality_gap,
                               residual_polynomials)

from mp_reference import lemma_bound, reference_zero_table

def rho_integral_identity(p, mu_sigma):
    """integral of s^2 d mu_sigma as a plain atom sum."""
    s = p.evaluate(mu_sigma.support)
    return float(np.sum(s * s * mu_sigma.weights))


# the two-atom worked case: nu has atoms (1,1) and (2,4)
NU2 = DiscreteSpectralMeasure(np.array([1.0, 2.0]), np.array([1.0, 4.0]))
MU0_2 = DiscreteSpectralMeasure(np.array([1.0, 2.0]), np.array([1.0, 1.0]))


def test_first_zero_hand():
    # s1 orthogonal to constants in nu: z = (1*1 + 2*4) / (1 + 4) = 9/5
    polys = residual_polynomials(NU2, 1)
    assert len(polys) == 2
    assert polys[0].zeros.size == 0
    assert abs(polys[1].zeros[0] - 9.0 / 5.0) < 1e-14


def test_degree_zero_polynomial_is_one():
    p0 = residual_polynomials(NU2, 0)[0]
    x = np.array([0.0, 1.0, 17.3])
    assert np.array_equal(p0.evaluate(x), [1.0, 1.0, 1.0])


def test_evaluate_at_zero_is_one():
    p = ResidualPolynomial(np.array([2.0, 5.0]))
    assert p.evaluate(np.array([0.0]))[0] == 1.0
    assert abs(p.evaluate(np.array([1.0]))[0] - 0.5 * 0.8) < 1e-15


def test_zeros_validation():
    with pytest.raises(ValueError):
        ResidualPolynomial(np.array([-1.0, 2.0]))
    with pytest.raises(ValueError):
        ResidualPolynomial(np.array([2.0, 1.0]))  # not increasing


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
        got = residual_polynomials(nu, deg)[deg].zeros
        assert np.allclose(got, roots, rtol=1e-10), (got, roots)


def _pool_like(m, seed):
    # atoms log-uniform on [1e-3, 1e3] and weights lambda^3 |e0|^2, the
    # xi = 2 measure of a seeded diagonal series
    rng = np.random.default_rng(seed)
    lam = np.sort(np.exp(rng.uniform(np.log(1e-3), np.log(1e3), m)))
    return DiscreteSpectralMeasure(lam, lam ** 3 * rng.standard_normal(m) ** 2)


def test_mp_zero_table_matches_reference_route():
    # the RKPW + Newton table against the reorthogonalized Stieltjes + eigsy
    # route: table length, every rounded zero and both split integrals
    # bit-equal. The 16-atom measure has weights over twelve decades and
    # zeros that have captured atoms; the 40- and 64-atom ones are cut short
    # to keep the dense reference eigensolves cheap
    captured = _pool_like(16, 5)
    assert captured.weights.max() / captured.weights.min() >= 1e12
    cases = [(NU2, 5), (captured, 16), (_pool_like(40, 2), 24),
             (_pool_like(64, 3), 12)]
    for nu, n_max in cases:
        got = orthopoly._mp_zero_table(nu, n_max)
        want = reference_zero_table(nu, n_max)
        assert len(got) == len(want) == min(n_max, len(nu))
        for N, ((z, split), (z_ref, split_ref)) in enumerate(zip(got, want), 1):
            assert np.array_equal(z, z_ref), (len(nu), N)
            assert split == split_ref, (len(nu), N, split, split_ref)
        if nu is captured:
            assert sum(np.isin(nu.support, z).sum() for z, _ in got) > 0


def test_newton_polish_that_does_not_settle_raises(monkeypatch):
    # from a double start one Newton correction is still far above the
    # 10^-(dps-3) stopping rule
    monkeypatch.setattr(orthopoly, "_NEWTON_MAX_STEPS", 1)
    with pytest.raises(RuntimeError, match=r"degree-1 zero .* dps=\d+"):
        orthopoly._mp_zero_table(_pool_like(8, 1), 4)


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
    for (z, split), (z_ref, split_ref) in zip(got, want):
        assert np.array_equal(z, z_ref)
        assert split == split_ref


def test_zeros_inside_support_hull():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = int(rng.integers(4, 30))
        lam = np.sort(rng.uniform(0.01, 100.0, m))
        w = rng.uniform(0.1, 2.0, m)
        nu = DiscreteSpectralMeasure(lam, w)
        deg = int(rng.integers(1, min(m, 9)))
        p = residual_polynomials(nu, deg)[deg]
        assert p.zeros.size == deg
        assert np.all(np.diff(p.zeros) > 0)
        assert p.zeros[0] > nu.support[0] - 1e-12 * nu.support[0]
        assert p.zeros[-1] < nu.support[-1] + 1e-12 * nu.support[-1]


def test_separation_and_monotone_zero_sequences():
    rng = np.random.default_rng(22)
    for _ in range(10):
        m = int(rng.integers(10, 40))
        lam = np.sort(rng.uniform(0.01, 50.0, m))
        w = rng.uniform(0.1, 2.0, m)
        nu = DiscreteSpectralMeasure(lam, w)
        polys = residual_polynomials(nu, min(m - 1, 10))
        for N in range(1, len(polys) - 1):
            ok, viol = check_separation(polys[N], polys[N + 1])
            assert ok, (N, viol)
        z1 = [p.zeros[0] for p in polys[1:]]
        zm = [p.zeros[-1] for p in polys[1:]]
        assert all(z1[i + 1] <= z1[i] * (1 + 1e-10) for i in range(len(z1) - 1))
        assert all(zm[i + 1] >= zm[i] * (1 - 1e-10) for i in range(len(zm) - 1))


def test_separation_vacuous_for_degree_zero():
    polys = residual_polynomials(NU2, 1)
    ok, viol = check_separation(polys[0], polys[1])
    assert ok and viol == 0.0


def test_delta_hand():
    polys = residual_polynomials(NU2, 1)
    assert abs(delta_n(polys[1]) - 5.0 / 9.0) < 1e-15
    p = ResidualPolynomial(np.array([2.0, 4.0, 8.0]))
    assert abs(delta_n(p) - (0.5 + 2 * (0.25 + 0.125))) < 1e-15


def test_edge_zero_times_delta_at_least_one():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = int(rng.integers(4, 25))
        lam = np.sort(rng.uniform(0.01, 100.0, m))
        nu = DiscreteSpectralMeasure(lam, rng.uniform(0.1, 2.0, m))
        deg = int(rng.integers(1, min(m, 8)))
        p = residual_polynomials(nu, deg)[deg]
        assert p.zeros[0] * delta_n(p) >= 1.0 - 1e-12


def test_orthogonality_gap_hand():
    # both split integrals equal 4/9 for the two-atom case at N = 1
    polys = residual_polynomials(NU2, 1)
    lhs, rhs, gap = orthogonality_gap(polys[1])
    assert abs(lhs - 4.0 / 9.0) < 1e-14
    assert abs(rhs - 4.0 / 9.0) < 1e-14
    assert gap < 1e-14


def test_orthogonality_gap_sweep():
    rng = np.random.default_rng(24)
    for _ in range(10):
        m = int(rng.integers(8, 40))
        lam = np.sort(rng.uniform(0.01, 200.0, m))
        nu = DiscreteSpectralMeasure(lam, rng.uniform(0.01, 1.0, m))
        polys = residual_polynomials(nu, min(m - 1, 12))
        for N in range(1, len(polys)):
            _, _, gap = orthogonality_gap(polys[N])
            assert gap <= 1e-8, (N, gap)


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
        p = residual_polynomials(nu, 6)[6]
        lhs, rhs, _ = orthogonality_gap(p)
        with mp.workdps(60):
            z = [mp.mpf(float(t)) for t in p.zeros]
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


def test_product_evaluation_log_path():
    # degree 60 with a huge spread overflows the running direct product; the
    # log path must agree with mpmath where the value is representable and
    # give a signed inf (not nan) where it is not
    from mpmath import mp
    zeros = np.sort(np.exp(np.linspace(np.log(1e-4), np.log(1.0), 60)))
    p = ResidualPolynomial(zeros)
    got = p.evaluate(np.array([1e3]))[0]
    with mp.workdps(80):
        want = mp.mpf(1)
        for z in zeros:
            want *= (1 - mp.mpf(1e3) / mp.mpf(float(z)))
    rel = abs(got - float(want)) / abs(float(want))
    assert rel < 1e-12, (got, float(want), rel)

    # at 1e5 every factor is negative and the true magnitude is ~1e420,
    # beyond float64 range: the log path yields +inf (even factor count)
    big = p.evaluate(np.array([1e5]))[0]
    with mp.workdps(80):
        logmag = mp.fsum(mp.log(abs(1 - mp.mpf(1e5) / mp.mpf(float(z))), 10)
                         for z in zeros)
    assert float(logmag) > 308.0
    assert np.isinf(big) and big > 0


def test_rho_integral_identity_is_weighted_sum():
    polys = residual_polynomials(NU2, 1)
    # sum over mu0 atoms of s1(lambda)^2: (4/9)^2 + (1/9)^2 = 17/81
    val = rho_integral_identity(polys[1], MU0_2)
    assert abs(val - 17.0 / 81.0) < 1e-15


def test_lemma_hand_numbers():
    # xi=1, sigma=0, q=2: mass below 9/5 is 1, (q/delta)^q = (18/5)^2
    polys = residual_polynomials(NU2, 1)
    lhs, rhs, ok = lemma_bound(polys[1], MU0_2, 1.0, 0.0)
    assert abs(lhs - 4.0 / 9.0) < 1e-14
    assert abs(rhs - 12.96) < 1e-12
    assert ok


def test_lemma_rejects_negative_exponent():
    polys = residual_polynomials(NU2, 1)
    with pytest.raises(ValueError):
        lemma_bound(polys[1], MU0_2, 1.0, 2.5)  # q = -0.5


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
            polys = residual_polynomials(nu, 8)
            for N in range(1, len(polys)):
                lhs, rhs, ok = lemma_bound(polys[N], mu_s, xi, sigma)
                assert ok, (xi, sigma, N, lhs, rhs)


def test_bound_chain_hand_case():
    rep = bound_chain(17.0 / 81.0, residual_polynomials(NU2, 1)[1],
                      MU0_2, 1.0, 0.0)
    names = [s.name for s in rep.steps]
    assert names == ["integral_identity", "split_bound", "tail_bound",
                     "split_orthogonality", "weighted_left_bound",
                     "assembled_bound", "edge_times_delta", "coarse_bound"]
    assert rep.ok and rep.first_failure is None
    by = {s.name: s for s in rep.steps}
    # z1 * delta = (9/5)(5/9) = 1 exactly: the edge inequality is tight
    assert abs(by["edge_times_delta"].lhs - 1.0) < 1e-14
    assert abs(by["tail_bound"].lhs - 1.0 / 81.0) < 1e-15
    assert abs(by["tail_bound"].rhs - 100.0 / 729.0) < 1e-14
    # mass below z1 = the whole atom at 1, so the assembled factor is
    # 1 + z1^{-2} (q/delta)^2 = 1 + (25/81)(18/5)^2 = 5, and the coarse
    # constant 1 + q^q gives the same 5 because z1*delta = 1 here
    assert abs(by["split_bound"].rhs - 82.0 / 81.0) < 1e-14
    assert abs(by["assembled_bound"].rhs - 5.0) < 1e-13
    assert abs(by["coarse_bound"].rhs - 5.0) < 1e-13
    assert abs(rep.mass_below - 1.0) < 1e-15


def test_bound_chain_detects_wrong_rho():
    rep = bound_chain(0.5, residual_polynomials(NU2, 1)[1], MU0_2, 1.0, 0.0)
    assert not rep.ok
    assert rep.first_failure == "integral_identity"


def test_bound_chain_rejects_sigma_above_xi():
    with pytest.raises(ValueError):
        bound_chain(0.1, residual_polynomials(NU2, 1)[1], MU0_2, 1.0, 1.5)


def test_hand_built_polynomial_has_no_split():
    # split integrals are made with the zeros by residual_polynomials; a
    # polynomial built from zeros alone has no measure to integrate against
    p = ResidualPolynomial(np.array([2.0, 5.0]))
    assert p.split is None
    with pytest.raises(ValueError, match="split"):
        orthogonality_gap(p)
    with pytest.raises(ValueError, match="split"):
        lemma_bound(p, MU0_2, 1.0, 0.0)
    with pytest.raises(ValueError, match="split"):
        bound_chain(0.1, p, MU0_2, 1.0, 0.0)


def test_bound_chain_sweep():
    rng = np.random.default_rng(27)
    for _ in range(6):
        m = int(rng.integers(12, 40))
        lam = np.sort(rng.uniform(0.02, 60.0, m))
        e0w = rng.uniform(0.01, 1.0, m)
        base = DiscreteSpectralMeasure(lam, e0w)
        for xi in (1.0, 2.0):
            nu = weight_by_power(base, xi + 1.0)
            polys = residual_polynomials(nu, 10)
            for sigma in (0.0, 1.0, 2.0):
                if sigma > xi:
                    continue
                mu_s = weight_by_power(base, sigma)
                for N in range(1, len(polys)):
                    rho_val = rho_integral_identity(polys[N], mu_s)
                    rep = bound_chain(rho_val, polys[N], mu_s, xi, sigma)
                    assert rep.ok, (xi, sigma, N, rep.first_failure)


def test_truncation_when_measure_exhausts():
    polys = residual_polynomials(NU2, 5)
    assert len(polys) == 3  # degrees 0, 1, 2 on a two-atom measure


def test_atom_at_zero_rejected():
    bad = DiscreteSpectralMeasure(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        residual_polynomials(bad, 1)

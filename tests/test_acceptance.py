"""End-to-end acceptance checks, one test per criterion.

Each test covers one claimed property of the whole pipeline, prints a
single summary line, and pins its tolerances inline. Shared run series
are module-scoped fixtures: 200 small diagonal runs (100 random spectra,
both weight exponents), the four grid surrogates at n = 256, and the
four at n = 2048 with the 60-step series.
"""

import time

import numpy as np
import pytest

from powercg.diagnostics import rho
from powercg.krylov import spectral_iterates, theta_iterate
from powercg.measures import DiscreteSpectralMeasure, weight_by_power
from powercg.orthopoly import (_factor_products, chain_table,
                               check_separation, orthogonality_gap,
                               residual_polynomials)
from powercg.runs import RunConfig, build_custom_case, build_test_case, run

from mp_reference import (brute_force_iterate, brute_force_objective,
                          cg_reference, lemma_bound)

GRID_BOXES = {"1a": 40.0, "2a": 40.0, "1b": 25.0, "2b": 25.0}
BIG_BOXES = {"1a": 40.0, "2a": 40.0, "1b": 200.0, "2b": 200.0}


def _report(recorder, num, label, failures, detail_ok):
    ok = not failures
    detail = detail_ok if ok else "; ".join(failures[:6])
    recorder(num, label, ok, detail)
    print(f"[{num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _poly_table(problem, xi, n_max):
    base = DiscreteSpectralMeasure(problem.operator.eigenvalues(),
                                   np.abs(problem.e0) ** 2)
    nu = weight_by_power(base, xi + 1.0)
    return base, residual_polynomials(nu, min(n_max, len(nu)))


def _series(problem, xi, n_max):
    iterates = list(spectral_iterates(problem, xi, n_max))
    base, table = _poly_table(problem, xi, n_max)
    rho_tab = {s: [rho(problem, f, s) for f in iterates]
               for s in (0.0, 1.0, 2.0)}
    return dict(problem=problem, xi=xi, iterates=iterates, base=base,
                table=table, rho=rho_tab)


@pytest.fixture(scope="module")
def random_problems():
    rng = np.random.default_rng(20260814)
    problems = []
    for _ in range(100):
        dim = int(rng.integers(2, 13))
        lam = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=dim))
        while np.unique(lam).size < dim:
            lam = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=dim))
        e0 = rng.standard_normal(dim)
        problems.append(build_custom_case(
            {"eigenvalues": lam, "error": e0}))
    return problems


@pytest.fixture(scope="module")
def random_runs(random_problems):
    return [_series(p, xi, p.dimension)
            for p in random_problems for xi in (1.0, 2.0)]


@pytest.fixture(scope="module")
def grid_runs():
    out = []
    for test, L in GRID_BOXES.items():
        prob = build_test_case(test, n=256, L=L)
        for xi in (1.0, 2.0):
            out.append(dict(_series(prob, xi, 25), test=test))
    return out


@pytest.fixture(scope="module")
def big_runs():
    return {test: run(RunConfig(test=test, n=2048, L=L, xi=1.0, n_max=60))
            for test, L in BIG_BOXES.items()}


@pytest.fixture(scope="module")
def big_tables():
    out = {}
    for test, L in BIG_BOXES.items():
        prob = build_test_case(test, n=2048, L=L)
        out[test] = (prob,) + _poly_table(prob, 1.0, 60)
    return out


@pytest.fixture(scope="module")
def deep_2b():
    # 2b's residual floor lives in the high end of the spectrum and washes
    # out below its documented default resolution
    return run(RunConfig(test="2b", n=8192, L=200.0, xi=1.0, n_max=60))


def test_1_minimizer_matches_extended_precision_oracle(random_problems, acceptance):
    # objective gap <= 1e-8 relative; denominators floored at 1e-12 of the
    # starting value so termination rows compare roundoff against roundoff
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for i, prob in enumerate(random_problems):
        for xi in (1.0, 2.0):
            floor = 1e-12 * rho(prob, prob.f0, xi)
            for N in range(1, prob.dimension + 1):
                obj = rho(prob, theta_iterate(prob, xi, N), xi)
                ref = brute_force_objective(
                    prob, xi, brute_force_iterate(prob, xi, N))
                rel = abs(obj - ref) / max(ref, floor)
                worst = max(worst, rel)
                if rel > 1e-8:
                    failures.append(
                        f"problem {i} xi={xi} N={N}: rel gap {rel:.3e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f} s, budget 10 s")
    _report(acceptance, 1, "oracle equivalence", failures,
            f"max rel gap {worst:.3e} <= 1e-8, {elapsed:.1f} s")


def test_2_cg_and_weighted_minimizer_coincide_at_one(random_problems, acceptance):
    failures = []
    worst = 0.0
    for i, prob in enumerate(random_problems):
        hist = cg_reference(prob, prob.dimension)
        for N in range(1, len(hist.iterates)):
            f_cg = hist.iterates[N]
            f_th = theta_iterate(prob, 1.0, N)
            rel = (np.linalg.norm(f_cg - f_th)
                   / max(np.linalg.norm(f_cg), np.linalg.norm(f_th), 1e-300))
            worst = max(worst, rel)
            if rel > 1e-10:
                failures.append(f"problem {i} N={N}: rel gap {rel:.3e}")
    _report(acceptance, 2, "cg path equivalence", failures,
            f"max per-iterate rel gap {worst:.3e} <= 1e-10")


def test_3_rho_equals_node_polynomial_integral(random_runs, grid_runs, acceptance):
    # direct rho against the atom sum of s_N^2, 1e-8 relative, sigma in
    # {0, 1, 2}; same termination floor as above
    failures = []
    worst = 0.0
    for r in random_runs + grid_runs:
        mu = {s: weight_by_power(r["base"], s) for s in (0.0, 1.0, 2.0)}
        for s in (0.0, 1.0, 2.0):
            floor = 1e-12 * r["rho"][s][0]
            for N, z in enumerate(r["table"].zeros, 1):
                direct = r["rho"][s][N]
                sval = _factor_products(mu[s].support, z)
                integral = float(np.sum(sval * sval * mu[s].weights))
                rel = abs(direct - integral) / max(direct, integral, floor)
                worst = max(worst, rel)
                if rel > 1e-8:
                    failures.append(
                        f"{r.get('test', 'diag')} xi={r['xi']} sigma={s} "
                        f"N={N}: rel gap {rel:.3e}")
    _report(acceptance, 3, "rho integral identity", failures,
            f"max rel gap {worst:.3e} <= 1e-8")


def test_4_zero_structure_and_split_orthogonality(acceptance, random_runs, grid_runs,
                                                  big_tables):
    failures = []
    worst_gap = 0.0
    tables = [(r.get("test", "diag"), r["table"])
              for r in random_runs + grid_runs]
    tables += [(test, table) for test, (_, _, table) in big_tables.items()]
    for name, table in tables:
        zeros = table.zeros
        gaps = orthogonality_gap(table.left, table.right)
        for k, (z, gap) in enumerate(zip(zeros, gaps), 1):
            if not (z[0] > 0 and np.all(np.diff(z) > 0)):
                failures.append(f"{name} N={k}: zeros not positive simple")
            worst_gap = max(worst_gap, gap)
            if gap > 1e-8:
                failures.append(f"{name} N={k}: split gap {gap:.3e}")
        for k in range(1, len(zeros)):
            ok, v = check_separation(zeros[k - 1], zeros[k])
            if not ok:
                failures.append(f"{name} N={k}: interlacing off by {v:.3e}")
            lo_prev, lo = zeros[k - 1][0], zeros[k][0]
            hi_prev, hi = zeros[k - 1][-1], zeros[k][-1]
            if lo > lo_prev * (1 + 1e-10):
                failures.append(f"{name} N={k}: smallest zero increased")
            if hi < hi_prev * (1 - 1e-10):
                failures.append(f"{name} N={k}: largest zero decreased")
    _report(acceptance, 4, "zero structure and orthogonality", failures,
            f"max split gap {worst_gap:.3e} <= 1e-8, slack 1e-10")


def test_5_tail_bounds_hold_on_every_run(acceptance, random_runs, grid_runs, big_runs,
                                         big_tables):
    # exponents q = xi - sigma + 1 in {0.5, 1, 2, 3}; the chain needs
    # q >= 1 (xi >= sigma), q = 0.5 exercises the one-sided estimate only
    failures = []
    checked = 0

    def sweep(name, problem, xi, base, table, rho_of):
        nonlocal checked
        reached = len(table.zeros)
        for q in (0.5, 1.0, 2.0, 3.0):
            sigma = xi + 1.0 - q
            if sigma < 0 and (not len(base) or base.support[0] <= 0):
                continue
            mu_s = weight_by_power(base, sigma)
            for N in range(1, reached + 1):
                lhs, rhs, _ = lemma_bound(table, N, mu_s, xi, sigma)
                checked += 1
                if lhs > rhs * (1 + 1e-8) + 1e-300:
                    failures.append(
                        f"{name} q={q} N={N}: one-sided {lhs:.3e} > {rhs:.3e}")
            if q < 1:
                continue
            # one table over every degree, read where rho is known (nan
            # elsewhere); each degree's entry is its own
            vals = [rho_of(sigma, N) for N in range(1, reached + 1)]
            t = chain_table([np.nan if v is None else v for v in vals],
                            table, mu_s, xi, sigma)
            checked += sum(v is not None for v in vals)
            failures.extend(f"{name} q={q} N={N}: chain fails at {first}"
                            for N, (v, first)
                            in enumerate(zip(vals, t.first_failure), 1)
                            if v is not None and first is not None)

    for r in random_runs + grid_runs:
        name = f"{r.get('test', 'diag')} xi={r['xi']}"
        sweep(name, r["problem"], r["xi"], r["base"], r["table"],
              lambda s, N, r=r: rho(r["problem"], r["iterates"][N], s))
    for test, (prob, base, table) in big_tables.items():
        recs = big_runs[test].records
        sweep(f"{test} n=2048", prob, 1.0, base, table,
              lambda s, N, recs=recs: recs[N].rho.get(s))
    _report(acceptance, 5, "tail bound chain", failures,
            f"{checked} bound evaluations within slack 1 + 1e-8")


def test_6_finite_termination_at_full_dimension(random_problems, acceptance):
    failures = []
    worst = 0.0
    for i, prob in enumerate(random_problems[:20]):
        for xi in (1.0, 2.0):
            start = rho(prob, prob.f0, xi)
            final = rho(prob, theta_iterate(prob, xi, prob.dimension), xi)
            ratio = final / start
            worst = max(worst, ratio)
            if ratio > 1e-10:
                failures.append(f"problem {i} xi={xi}: ratio {ratio:.3e}")
    _report(acceptance, 6, "finite termination", failures,
            f"max final/initial ratio {worst:.3e} <= 1e-10")


def test_7_error_and_energy_drop_hundredfold_by_step_60(big_runs, acceptance):
    # 1a and 1b have A >= 1 and must contract both norms a hundredfold. 2a
    # and 2b have spectra reaching zero, where CG converges at no guaranteed
    # rate; they must decrease monotonically (slack 1e-12 of the start) and
    # meet the bounded-operator rate (2N+1)^2 rho1(N) <= ||A|| rho0(0)
    failures = []
    details = []
    for test, rec in big_runs.items():
        first, last = rec.records[1], rec.records[60]
        r0 = last.rho[0.0] / first.rho[0.0]
        r1 = last.rho[1.0] / first.rho[1.0]
        if test in ("1a", "1b"):
            details.append(f"{test}: rho0 {r0:.2e}, rho1 {r1:.2e}")
            if r0 > 1e-2 or r1 > 1e-2:
                failures.append(
                    f"{test}: rho0 N60/N1 = {r0:.3e}, rho1 N60/N1 = {r1:.3e}, "
                    f"needs both <= 1e-2")
            continue
        vals = {s: np.array([r.rho[s] for r in rec.records]) for s in (0.0, 1.0)}
        for s, v in vals.items():
            rise = np.diff(v).max()
            if rise > 1e-12 * v[0]:
                failures.append(f"{test}: rho{s:.0f} rose by {rise:.3e}")
            if not v[60] < v[1]:
                failures.append(f"{test}: rho{s:.0f} N60 not below N1")
        N = np.arange(61)
        cap = rec.metadata["norm_estimate"] * vals[0.0][0]
        rate = float(((2 * N + 1) ** 2 * vals[1.0]).max() / cap)
        details.append(f"{test}: rho0 {r0:.2e}, rho1 {r1:.2e} monotone, "
                       f"max (2N+1)^2 rho1 {rate:.3f} ||A|| rho0(0)")
        if rate > 1.0:
            failures.append(f"{test}: (2N+1)^2 rho1 reached {rate:.3f} "
                            f"||A|| rho0(0), needs <= 1")
    _report(acceptance, 7, "error and energy drop by step 60", failures,
            "; ".join(details))


def _quartile_growth(series):
    """max over the last quarter of the steps vs max over the first."""
    arr = np.asarray(series)
    k = arr.size // 4
    return float(arr[-k:].max()), float(arr[:k].max())


def test_8_grid_case_convergence_profiles(big_runs, deep_2b, acceptance):
    failures = []
    details = []
    series = {}
    sources = dict(big_runs)
    sources["2b"] = deep_2b
    for test, rec in sources.items():
        if rec.metadata["wall_time_s"] >= 60.0:
            failures.append(f"{test}: took {rec.metadata['wall_time_s']:.0f} s")
        rho2 = np.array([r.rho[2.0] for r in rec.records])
        nsq = np.array([r.n_sq_rho1 for r in rec.records[1:]])
        series[test] = (rho2, nsq)

    rho2, nsq = series["1a"]
    slope = np.polyfit(np.log(np.arange(1, 61)), np.log(rho2[1:]), 1)[0]
    last, first = _quartile_growth(nsq)
    details.append(f"1a slope {slope:.2f}, growth {last / first:.2f}")
    if not (slope < 0 and rho2[60] < rho2[1]):
        failures.append(f"1a: residual trend not decreasing (slope {slope:.2f})")
    if last > 2 * first:
        failures.append(f"1a: N^2 rho1 grew {last / first:.1f}x, expected bounded")

    last, first = _quartile_growth(series["2a"][1])
    details.append(f"2a growth {last / first:.2f}")
    if not last > 2 * first:
        failures.append(f"2a: N^2 rho1 bounded ({last / first:.2f}x), "
                        f"expected unbounded")

    rho2, nsq = series["1b"]
    last, first = _quartile_growth(nsq)
    details.append(f"1b drop {rho2[60] / rho2[1]:.2e}, growth {last / first:.2g}")
    if not rho2[60] <= 1e-2 * rho2[1]:
        failures.append(f"1b: residual only dropped to "
                        f"{rho2[60] / rho2[1]:.3e} of step 1")
    if last > 2 * first:
        failures.append(f"1b: N^2 rho1 grew {last / first:.1f}x, expected bounded")
    # A >= 1: CG contracts rho1 at the Chebyshev rate of kappa = lmax / lmin
    kappa = (sources["1b"].metadata["norm_estimate"]
             / sources["1b"].metadata["lambda_min"])
    q = (np.sqrt(kappa) - 1) / (np.sqrt(kappa) + 1)
    rho1 = np.array([r.rho[1.0] for r in sources["1b"].records])
    N = np.arange(1, 61)
    spare = float((4 * q ** (2 * N) * rho1[0] / rho1[N]).min())
    details.append(f"1b Chebyshev bound spare x{spare:.2f}")
    if spare < 1.0:
        failures.append(f"1b: rho1 exceeded its Chebyshev bound "
                        f"(kappa {kappa:.1f}) by {1 / spare:.2f}x")

    rho2 = series["2b"][0]
    details.append(f"2b residual floor {rho2[60] / rho2[0]:.2f}")
    if not rho2[60] > 0.1 * rho2[0]:
        failures.append(f"2b: residual vanished ({rho2[60] / rho2[0]:.3e} "
                        f"of start), expected a floor above 0.1")
    _report(acceptance, 8, "convergence profiles", failures, "; ".join(details))


def test_9_weighted_norms_are_log_convex(acceptance, random_runs, grid_runs, big_runs,
                                         deep_2b):
    # rho1^2 <= rho0 * rho2 with 1e-10 slack on every recorded iterate; the
    # additive floor of (1e-14 x starting rho1)^2 per run absorbs terminated
    # rows whose squared coefficients underflowed
    failures = []
    count = 0
    triples = []
    for r in random_runs + grid_runs:
        name = f"{r.get('test', 'diag')} xi={r['xi']}"
        floor = 1e-28 * r["rho"][1.0][0] ** 2
        for N in range(len(r["iterates"])):
            triples.append((name, N, r["rho"][0.0][N], r["rho"][1.0][N],
                            r["rho"][2.0][N], floor))
    for test, rec in list(big_runs.items()) + [("2b n=8192", deep_2b)]:
        floor = 1e-28 * rec.records[0].rho[1.0] ** 2
        for r in rec.records:
            triples.append((test, r.N, r.rho[0.0], r.rho[1.0], r.rho[2.0],
                            floor))
    for name, N, r0, r1, r2, floor in triples:
        count += 1
        if r1 * r1 > r0 * r2 * (1 + 1e-10) + floor:
            failures.append(f"{name} N={N}: rho1^2 {r1 * r1:.3e} > "
                            f"rho0 rho2 {r0 * r2:.3e}")
    _report(acceptance, 9, "interpolation inequality", failures,
            f"{count} iterates within slack 1e-10")

"""Built-in experiment construction, run records, and serialization.

The closed-form right-hand sides are re-derived symbolically with sympy
(g = -f'' + shift f) and compared against the hand-differentiated
formulas on sample points, so a sign or coefficient slip in either place
cannot survive.
"""

import json
import warnings

import numpy as np
import pytest

from powercg.diagnostics import rho
from powercg.krylov import ConsistencyError, spectral_iterates
from powercg.measures import DiscreteSpectralMeasure, weight_by_power
from powercg.orthopoly import bound_chain, residual_polynomials
from powercg.runs import (CSV_HEADER, RunConfig, SCHEMA_VERSION, TEST_DEFAULTS,
                          TEST_IDS, VersionError, build_custom_case,
                          build_test_case, consistency_tolerance, csv_lines,
                          emit_json, read_csv, read_json, run, verify_case,
                          write_csv)

from mp_reference import lemma_bound

# n = 256 companions used throughout: full-size built-ins are exercised in
# the acceptance module, construction logic is identical
SMALL = {"1a": (256, 40.0), "2a": (256, 40.0),
         "1b": (256, 25.0), "2b": (256, 25.0)}


def small_config(test, **kw):
    n, L = SMALL[test]
    args = dict(test=test, n=n, L=L, n_max=8)
    args.update(kw)
    return RunConfig(**args)


def test_right_hand_sides_match_symbolic_derivative():
    import sympy as sp

    from powercg.runs import _CASES

    xs = sp.Symbol("x", real=True)
    shapes = {"a": sp.exp(-xs * xs), "b": 1 / (1 + xs * xs)}
    pts = np.linspace(-3.0, 3.0, 41)
    for test in TEST_IDS:
        shift, f_fun, g_fun = _CASES[test]
        f_sym = shapes[test[1]]
        g_sym = -sp.diff(f_sym, xs, 2) + shift * f_sym
        g_num = sp.lambdify(xs, sp.simplify(g_sym), "numpy")
        assert np.allclose(g_fun(pts), g_num(pts), rtol=1e-12, atol=1e-14), test
        f_num = sp.lambdify(xs, f_sym, "numpy")
        assert np.allclose(f_fun(pts), f_num(pts), rtol=1e-14), test


def test_build_all_cases_pass_their_gates():
    for test in TEST_IDS:
        n, L = SMALL[test]
        prob = build_test_case(test, n=n, L=L)
        assert prob.dimension == n
        assert prob.known_solution is not None
        assert np.array_equal(prob.f0, np.zeros(n))
        assert prob.notes["test"] == test
        assert prob.notes["n"] == n and prob.notes["L"] == L


def test_kernel_cases_are_mean_subtracted():
    for test in ("2a", "2b"):
        n, L = SMALL[test]
        prob = build_test_case(test, n=n, L=L)
        assert abs(prob.g.mean()) < 1e-15
        assert abs(prob.known_solution.mean()) < 1e-15
        assert "subtracted_mean_g" in prob.notes
        assert prob.notes["subtracted_mean_f"] > 0  # both shapes are positive
    for test in ("1a", "1b"):
        n, L = SMALL[test]
        prob = build_test_case(test, n=n, L=L)
        assert "subtracted_mean_g" not in prob.notes


def test_unknown_test_id_rejected():
    with pytest.raises(ValueError, match="unknown test id"):
        build_test_case("3c")


def test_gate_rejects_underresolved_box():
    # 1/x^2 tails cannot be carried by a 256-point grid over L = 200: the
    # sampled pair genuinely fails to satisfy the discrete equation
    with pytest.raises(ConsistencyError):
        build_test_case("1b", n=256, L=200.0)


def test_consistency_tolerance_values():
    assert consistency_tolerance("1a", 2048, 40.0) == 1e-6
    assert consistency_tolerance("2a", 256, 40.0) == 1e-6
    loose = consistency_tolerance("1b", 2048, 200.0)
    assert 5e-5 < loose < 1e-4
    # periodization mismatch ~1/L^2 dominates at fixed resolution
    assert consistency_tolerance("2b", 2048, 200.0) < consistency_tolerance(
        "2b", 2048, 100.0)
    # aliasing takes over when the grid stops resolving the box
    assert consistency_tolerance("2b", 256, 200.0) > 1e-2


def test_custom_case_explicit_and_seeded():
    prob = build_custom_case({"eigenvalues": [2.0, 1.0],
                              "error": [0.5, -1.0]})
    assert np.array_equal(prob.operator.eigenvalues(), [1.0, 2.0])
    assert np.array_equal(prob.known_solution, [1.0, -0.5])
    assert np.array_equal(prob.g, [1.0, -1.0])

    a = build_custom_case({"dimension": 6, "seed": 3, "kappa": 100.0})
    b = build_custom_case({"dimension": 6, "seed": 3, "kappa": 100.0})
    assert np.array_equal(a.g, b.g)
    lam = a.operator.eigenvalues()
    assert lam.size == 6 and lam.min() >= 1e-2 and lam.max() <= 1.0


def test_config_resolve_validation():
    with pytest.raises(ValueError, match="unknown test id"):
        RunConfig(test="9z").resolve()
    with pytest.raises(ValueError, match="power of two"):
        RunConfig(test="1a", n=300).resolve()
    with pytest.raises(ValueError, match="positive"):
        RunConfig(test="1a", L=-1.0).resolve()
    with pytest.raises(ValueError, match="xi"):
        RunConfig(test="1a", xi=-0.5).resolve()
    with pytest.raises(ValueError, match="n_max"):
        RunConfig(test="1a", n_max=-1).resolve()
    with pytest.raises(ValueError, match="exceeds n"):
        RunConfig(test="1a", n=256, n_max=300).resolve()
    with pytest.raises(ValueError, match="custom"):
        RunConfig(test="custom").resolve()
    cfg = RunConfig(test="1a").resolve()
    assert (cfg.n, cfg.L) == TEST_DEFAULTS["1a"]
    assert cfg.sigmas == (0.0, 1.0, 2.0)


def test_run_record_structure():
    spec = {"dimension": 8, "seed": 5, "kappa": 100.0}
    out = run(RunConfig(test="custom", n_max=8, custom=spec))
    assert len(out.records) == 9
    assert [r.N for r in out.records] == list(range(9))
    r0 = out.records[0]
    assert set(r0.rho) == {0.0, 1.0, 2.0}
    assert np.isnan(r0.delta_n) and r0.bound_chain_ok is None
    for r in out.records[1:]:
        assert r.n_sq_rho1 == pytest.approx(r.N * r.N * r.rho[1.0])
        assert r.bound_chain_ok is True and r.lemma_ok is True
        assert 0 < r.ritz_min <= r.ritz_max
        assert r.delta_n >= 1.0 / r.ritz_min - 1e-12
    md = out.metadata
    assert md["schema_version"] == SCHEMA_VERSION
    assert md["dimension"] == 8
    assert md["config"]["xi"] == 1.0
    assert md["wall_time_s"] > 0
    lam = build_custom_case(spec).operator.eigenvalues()
    assert md["lambda_min"] == lam.min()


def test_run_with_xi_two_checks_all_chain_sigmas():
    out = run(RunConfig(test="custom", xi=2.0, n_max=6,
                        custom={"dimension": 6, "seed": 9, "kappa": 50.0}))
    assert all(r.bound_chain_ok for r in out.records[1:])
    assert all(r.lemma_ok for r in out.records[1:])


def test_run_rho_is_the_public_rho_bit_for_bit():
    # run() shares one datum transform and one iterate transform among all
    # sigma; each value must be what diagnostics.rho gives on its own, the
    # kernel-drift guard of sigma < 0 included
    cases = [(small_config("2a", n_max=12), 1.0),
             (RunConfig(test="custom", xi=2.0, n_max=16,
                        sigmas=(-1.0, 0.0, 0.5, 1.0, 2.0),
                        custom={"dimension": 16, "seed": 4, "kappa": 1e4}),
              2.0)]
    for config, xi in cases:
        out = run(config)
        prob = (build_custom_case(config.custom) if config.test == "custom"
                else build_test_case("2a", config.n, config.L))
        iterates = spectral_iterates(prob, xi, config.n_max)
        assert len(out.records) == len(iterates)
        for r, f_n in zip(out.records, iterates):
            assert set(r.rho) == set(config.sigmas) | {0.0, 1.0, 2.0}
            for s, v in r.rho.items():
                assert v == rho(prob, f_n, s), (config.test, r.N, s)


def test_chain_on_shared_s_values_matches_its_own_evaluation():
    # run() evaluates s once per degree on the base support and hands each
    # chain sigma its atoms by index; the report must be the one bound_chain
    # makes when it evaluates s on mu_sigma itself. The second base carries
    # a kernel atom, where s is exactly 1, that only mu_0 keeps.
    xi = 2.0
    prob = build_test_case("2a", 256, 40.0)
    lam = prob.operator.eigenvalues().real
    w = np.abs(prob.error_coefficients(prob.f0)) ** 2
    polys = residual_polynomials(
        weight_by_power(DiscreteSpectralMeasure(lam, w), xi + 1.0), 12)
    f_n = spectral_iterates(prob, xi, 12)
    for w_base in (w, np.where(lam == 0.0, 0.3, w)):
        base = DiscreteSpectralMeasure(lam, w_base)
        mu = {s: weight_by_power(base, s) for s in (0.0, 1.0, 2.0)}
        assert (mu[0.0].support[0] == 0.0) == (w_base is not w)
        for N in range(1, len(polys)):
            p = polys[N]
            s_base = p.evaluate(base.support)
            for s, m in mu.items():
                rows = np.searchsorted(base.support, m.support)
                assert np.array_equal(base.support[rows], m.support)
                if m.support[0] == 0.0:
                    assert s_base[rows[0]] == 1.0
                rho_val = rho(prob, f_n[N], s)
                want = bound_chain(rho_val, p, m, xi, s)
                got = bound_chain(rho_val, p, m, xi, s,
                                  s_vals=s_base[rows])
                assert [t.name for t in got.steps] == [t.name for t in want.steps]
                for a, b in zip(got.steps, want.steps):
                    assert (a.lhs, a.rhs, a.ok) == (b.lhs, b.rhs, b.ok), (N, s)
                assert (got.ok, got.first_failure) == (want.ok, want.first_failure)


def test_lemma_verdict_matches_lemma_bound():
    # above the 64-atom cutoff the double-path chain fails on most records
    # near termination while the lemma holds on every one, so the verdict
    # must come from the lemma's own comparison, not from the chain's
    spec = {"dimension": 72, "seed": 1, "kappa": 1e6}
    prob = build_custom_case(spec)
    e0 = prob.error_coefficients(prob.f0)
    base = DiscreteSpectralMeasure(prob.operator.eigenvalues(),
                                   np.abs(e0) ** 2)
    mu = {s: weight_by_power(base, s) for s in (0.0, 1.0, 2.0)}
    for xi in (1.0, 2.0):
        out = run(RunConfig(test="custom", xi=xi, n_max=72, custom=spec))
        polys = residual_polynomials(weight_by_power(base, xi + 1.0), 72)
        for r in out.records[1:]:
            if r.N >= len(polys):
                assert r.lemma_ok is None
                continue
            want = all(lemma_bound(polys[r.N], m, xi, s)[2]
                       for s, m in mu.items() if s <= xi)
            assert r.lemma_ok == want, (xi, r.N)


def test_chain_steps_fail_on_non_finite_operands():
    # near termination the right split integral of this spectrum overflows
    # on the double path; inf <= slack * inf holds, so without a finiteness
    # check those steps would pass
    spec = {"dimension": 72, "seed": 1, "kappa": 1e6}
    prob = build_custom_case(spec)
    e0 = prob.error_coefficients(prob.f0)
    base = DiscreteSpectralMeasure(prob.operator.eigenvalues(),
                                   np.abs(e0) ** 2)
    non_finite = 0
    for xi in (1.0, 2.0):
        out = run(RunConfig(test="custom", xi=xi, n_max=72, custom=spec))
        polys = residual_polynomials(weight_by_power(base, xi + 1.0), 72)
        for r in out.records[1:len(polys)]:
            for s in (0.0, 1.0, 2.0):
                if s > xi:
                    continue
                rep = bound_chain(r.rho[s], polys[r.N],
                                  weight_by_power(base, s), xi, s)
                for step in rep.steps:
                    if np.isfinite(step.lhs) and np.isfinite(step.rhs):
                        continue
                    non_finite += 1
                    assert not step.ok, (xi, s, r.N, step.name)
                    assert not rep.ok and not r.bound_chain_ok
    assert non_finite > 0


def test_run_near_termination_lets_no_warning_escape():
    # the double-path chain on these spectra meets an overflowing atom sum
    # near termination; run() must keep it inside and give the same records.
    # The second spectrum is a 96-atom log-uniform draw on [1e-3, 1e3], whose
    # overflow lands in the chain's sums over s^2 w
    spec = {"dimension": 72, "seed": 1, "kappa": 1e6}
    rng = np.random.default_rng([20261017, 96, 3])
    lam = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=96))
    assert np.unique(lam).size == 96
    drawn = {"eigenvalues": lam, "error": rng.standard_normal(96)}
    for custom, xi, n_max in ((spec, 1.0, 72), (spec, 2.0, 72),
                              (drawn, 1.0, 96)):
        config = RunConfig(test="custom", xi=xi, n_max=n_max, custom=custom)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = run(config).to_dict()["records"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run(config).to_dict()["records"]
        assert got == want


def test_run_built_in_small():
    out = run(small_config("2a", xi=1.0))
    assert len(out.records) == 9
    assert all(r.bound_chain_ok for r in out.records[1:])
    assert out.metadata["notes"]["test"] == "2a"
    # energy error is minimized, so it is monotone along the series
    vals = [r.rho[1.0] for r in out.records]
    for a, b in zip(vals, vals[1:]):
        assert b <= a * (1 + 1e-10) + 1e-30


def test_run_rejects_n_max_beyond_dimension():
    with pytest.raises(ValueError, match="exceeds dimension"):
        run(RunConfig(test="custom", n_max=9,
                      custom={"dimension": 4, "seed": 1}))


def test_csv_header_and_roundtrip(tmp_path):
    assert CSV_HEADER == ("N, rho0, rho1, rho1_N2, rho2, delta_n, "
                          "ritz_min, ritz_max, bound_chain_ok")
    out = run(RunConfig(test="custom", n_max=6,
                        custom={"dimension": 6, "seed": 7}))
    lines = csv_lines(out)
    assert lines[0] == CSV_HEADER
    assert len(lines) == 8
    assert lines[1].endswith(", ")  # N = 0 has no chain verdict
    path = tmp_path / "series.csv"
    write_csv(out, str(path))
    rows = read_csv(str(path))
    assert len(rows) == 7
    for rec, row in zip(out.records, rows):
        assert row["N"] == rec.N
        assert row["rho0"] == rec.rho[0.0]  # repr round-trips exactly
        assert row["rho1"] == rec.rho[1.0]
        assert row["rho1_N2"] == rec.n_sq_rho1
        assert row["rho2"] == rec.rho[2.0]
    assert np.isnan(rows[0]["delta_n"])
    assert rows[0]["bound_chain_ok"] == ""
    assert rows[1]["bound_chain_ok"] == "true"


def test_json_roundtrip_and_version_gate(tmp_path):
    out = run(RunConfig(test="custom", n_max=5, xi=2.0,
                        custom={"dimension": 5, "seed": 11}))
    path = tmp_path / "series.json"
    emit_json(out, str(path))
    back = read_json(str(path))
    assert back.metadata == out.metadata
    assert len(back.records) == len(out.records)
    for a, b in zip(out.records, back.records):
        assert a.N == b.N
        assert a.rho == b.rho
        assert a.bound_chain_ok == b.bound_chain_ok
        assert (a.delta_n == b.delta_n or
                (np.isnan(a.delta_n) and np.isnan(b.delta_n)))
    data = json.loads(path.read_text())
    data["schema_version"] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(VersionError, match="99"):
        read_json(str(path))


def test_runs_are_deterministic(tmp_path):
    cfg = dict(test="2a", n=256, L=40.0, n_max=6)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    run(RunConfig(out=str(p1), **cfg))
    run(RunConfig(out=str(p2), **cfg))
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_case_green_on_built_ins():
    for test in ("1a", "2b"):
        n, L = SMALL[test]
        checks = verify_case(RunConfig(test=test, n=n, L=L, n_max=8))
        assert checks, test
        for name, ok, detail in checks:
            assert ok, (test, name, detail)


def test_verify_case_reports_gate_failure():
    checks = verify_case(RunConfig(test="1b", n=256, L=200.0, n_max=8))
    assert checks[0][0] == "consistency_gate"
    assert not checks[0][1]
    assert len(checks) == 1

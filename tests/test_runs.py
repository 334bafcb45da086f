"""Built-in experiment construction, run records, and serialization.

The closed-form right-hand sides are re-derived symbolically with sympy
(g = -f'' + shift f) and compared against the hand-differentiated
formulas on sample points, so a sign or coefficient slip in either place
cannot survive.
"""

import dataclasses
import json
import re
import warnings
import weakref

import numpy as np
import pytest

from powercg.diagnostics import rho
from powercg.krylov import ConsistencyError, spectral_iterates
from powercg.measures import (MERGE_REL, WEIGHT_FLOOR, DiscreteSpectralMeasure,
                              weight_by_power)
from powercg.orthopoly import (_factor_products, chain_table,
                               residual_polynomials)
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


def test_custom_spec_is_checked():
    bad = [
        ({"eigenvalues": [1.0, 2.0], "error": [1.0, 2.0, 3.0]}, "equal length"),
        ({"eigenvalues": [1.0, 2.0, 3.0], "error": [1.0, 2.0]}, "equal length"),
        ({"eigenvalues": [[1.0, 2.0]], "error": [[1.0, 2.0]]}, "1-d"),
        ({"eigenvalues": [1.0, np.inf], "error": [1.0, 2.0]}, "finite"),
        ({"eigenvalues": [1.0, 2.0], "error": [np.nan, 2.0]}, "finite"),
        ({"eigenvalues": [1.0, 2.0]}, "needs 'error'"),
        ({"seed": 3, "kappa": 10.0}, "'dimension'"),
        ("dimension", "mapping"),
        ({"dimension": [3]}, "int"),
    ]
    bad += [({"dimension": 3, "kappa": kappa}, "'kappa' must be finite and > 0")
            for kappa in (0, -1, np.inf, np.nan, 5e-324)]
    for spec, match in bad:
        with pytest.raises(ValueError, match=match):
            build_custom_case(spec)
        with pytest.raises(ValueError, match=match):
            run(RunConfig(test="custom", n_max=1, custom=spec))
        with pytest.raises(ValueError, match=match):
            verify_case(RunConfig(test="custom", n_max=1, custom=spec))


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


# every key of run()'s metadata; none copies a record
METADATA_KEYS = {"schema_version", "config", "norm_estimate", "dimension",
                 "notes", "wall_time_s", "lambda_min"}


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
    assert set(md) == METADATA_KEYS
    assert set(md["config"]) == {"test", "n", "L", "xi", "n_max", "sigmas"}
    assert md["schema_version"] == SCHEMA_VERSION
    assert md["dimension"] == 8
    assert md["config"]["xi"] == 1.0
    assert md["wall_time_s"] > 0
    lam = build_custom_case(spec).operator.eigenvalues()
    assert md["lambda_min"] == lam.min()


def test_run_with_zero_iterations_records_f0():
    # n_max = 0 still measures e0: one N = 0 record, rho of f0 itself
    for config in (small_config("2a", n_max=0),
                   RunConfig(test="custom", n_max=0, sigmas=(-1.0, 0.5),
                             custom={"dimension": 5, "seed": 3})):
        out = run(config)
        assert [r.N for r in out.records] == [0]
        prob = (build_custom_case(config.custom) if config.test == "custom"
                else build_test_case("2a", config.n, config.L))
        assert set(out.records[0].rho) == set(config.sigmas) | {0.0, 1.0, 2.0}
        for s, v in out.records[0].rho.items():
            assert v == rho(prob, prob.f0, s) > 0, (config.test, s)
        assert set(out.metadata) == METADATA_KEYS


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
        iterates = list(spectral_iterates(prob, xi, config.n_max))
        assert len(out.records) == len(iterates)
        for r, f_n in zip(out.records, iterates):
            assert set(r.rho) == set(config.sigmas) | {0.0, 1.0, 2.0}
            for s, v in r.rho.items():
                assert v == rho(prob, f_n, s), (config.test, r.N, s)


def _sequential_merge(lam, w):
    """(support, weights) of (lam, w) merged one atom at a time in stable
    sorted order: the reference for the vectorized merge of equal atoms in
    DiscreteSpectralMeasure."""
    keep = w > WEIGHT_FLOOR
    order = np.argsort(lam[keep], kind="stable")
    out_l, out_w = [], []
    for li, wi in zip(lam[keep][order], w[keep][order]):
        if out_l and li - out_l[-1] <= MERGE_REL * max(1.0, li):
            out_w[-1] += wi
        else:
            out_l.append(li)
            out_w.append(wi)
    return np.array(out_l), np.array(out_w)


FLOORED = {"eigenvalues": [0.5, 1.0, 1.0, 2.0, 3.0],
           "error": [1.0, np.sqrt(0.8e-300), np.sqrt(0.8e-300), 1.0, 0.5]}


def test_run_base_measure_is_the_sequential_merge(monkeypatch):
    # run() groups the eigenvalues once, in the problem, and builds one
    # measure through the grouping constructor, its base measure: the
    # one-at-a-time merge of the raw eigenvalues bit for bit. On the
    # built-ins every eigenvalue but 0 and the Nyquist one comes as an
    # exactly equal cosine-sine pair. In FLOORED the two entries at 1 each weigh
    # below WEIGHT_FLOOR and are dropped before their atom sums them.
    # Every reweighting keeps a subset of its input's atoms
    from powercg import runs
    made = []
    init = DiscreteSpectralMeasure.__init__

    def spy_init(self, support, weights):
        init(self, support, weights)
        made.append(self)

    def spy_weight(measure, t):
        out = weight_by_power(measure, t)
        at = np.searchsorted(measure.support, out.support)
        assert np.array_equal(measure.support[at], out.support), t
        return out
    monkeypatch.setattr(DiscreteSpectralMeasure, "__init__", spy_init)
    monkeypatch.setattr(runs, "weight_by_power", spy_weight)
    configs = [RunConfig(test=test, n_max=1) for test in TEST_IDS]
    configs += [RunConfig(test=test, xi=xi, n_max=1, custom=custom)
                for test, custom in (("2b", None), ("custom", FLOORED))
                for xi in (1.0, 2.0)]
    for config in configs:
        problem = runs._build_problem(config.resolve())
        lam = problem.operator.eigenvalues()
        w = np.abs(problem.e0) ** 2
        made.clear()
        run(config)
        assert len(made) == 1, config
        support, weights = _sequential_merge(lam, w)
        assert np.array_equal(made[0].support, support), config
        assert np.array_equal(made[0].weights, weights), config
        if config.test in TEST_DEFAULTS:
            assert lam.size == TEST_DEFAULTS[config.test][0]
            assert np.unique(lam).size == lam.size // 2 + 1
            assert support.size == np.unique(lam[w > WEIGHT_FLOOR]).size
        else:
            assert support.tolist() == [0.5, 2.0, 3.0]


def test_measures_keep_a_weight_just_above_the_floor():
    # |e0|^2 = 10^-295 at eigenvalue 2 lies above WEIGHT_FLOOR = 1e-300, so
    # the base measure keeps all three atoms (a floor of 1e-290 would drop
    # it)
    from powercg import runs
    problem = build_custom_case({"eigenvalues": [1.0, 2.0, 3.0],
                                 "error": [1.0, 10 ** -147.5, 1.0]})
    base, _, _ = runs._measures(problem, 1.0, (0.0,))
    assert base.support.tolist() == [1.0, 2.0, 3.0]
    assert WEIGHT_FLOOR < base.weights[1] < 1e-290


def test_run_transforms_the_datum_once(monkeypatch):
    # the kernel gate's coeff(g)/lambda serves every error coefficient of
    # the run: the iterates, the base measure and rho. f0 is transformed
    # once for the problem's e0 and once more by rho at N = 0, which
    # measures the vector itself
    from powercg.linop import FourierOperator
    seen = []
    coefficients = FourierOperator.coefficients

    def spy(self, x):
        seen.append(np.asarray(x).tobytes())
        return coefficients(self, x)
    monkeypatch.setattr(FourierOperator, "coefficients", spy)
    n, L = SMALL["2b"]
    g = build_test_case("2b", n, L).g.tobytes()
    seen.clear()
    run(RunConfig(test="2b", n=n, L=L, n_max=8, xi=2.0))
    assert seen.count(g) == 1
    assert seen.count(np.zeros(n).tobytes()) == 2


def test_run_guards_kernel_drift_once_per_iterate(monkeypatch):
    # g and f0 once each, then one transform per iterate for rho; a
    # negative sigma adds one transform of x - f0 per iterate, however many
    # negative sigmas there are
    from powercg.linop import FourierOperator
    seen = []
    coefficients = FourierOperator.coefficients

    def spy(self, x):
        seen.append(None)
        return coefficients(self, x)
    masks = []
    kernel_mask = FourierOperator.kernel_mask

    def spy_mask(self):
        masks.append(None)
        return kernel_mask(self)
    monkeypatch.setattr(FourierOperator, "coefficients", spy)
    # the problem's kernel gate computes the one kernel mask of the run
    monkeypatch.setattr(FourierOperator, "kernel_mask", spy_mask)
    for sigmas, want in (((0.0, 1.0, 2.0), 15), ((-1.0, 0.0), 28),
                         ((-1.0, -0.5, 0.0), 28)):
        seen.clear()
        masks.clear()
        run(small_config("2a", n_max=12, sigmas=sigmas))
        assert len(seen) == want, sigmas
        assert len(masks) == 1, sigmas


def test_run_holds_at_most_two_iterates(monkeypatch):
    # each iterate is made, measured and dropped before the next: when one
    # is made, only it and the record loop's previous one are alive
    from powercg.linop import FourierOperator
    made = []
    most = []
    from_coefficients = FourierOperator.from_coefficients

    def spy(self, c):
        f = from_coefficients(self, c)
        made.append(weakref.ref(f))
        most.append(sum(ref() is not None for ref in made))
        return f
    monkeypatch.setattr(FourierOperator, "from_coefficients", spy)
    run(small_config("2b", n_max=12))
    assert len(made) == 12
    assert max(most) <= 2, most


def test_chain_on_shared_s_values_matches_its_own_evaluation():
    # chain_table looks s up in the values the table carries, by one
    # searchsorted on the table's support: the looked-up values are bit for
    # bit s evaluated on mu_sigma's atoms by the column products, and the
    # chain is the same, every field as float hex, on base's support and on
    # nu's. Where the second base carries a kernel atom, where s is exactly
    # 1, that only mu_0 keeps, nu's support lacks it and chain_table
    # refuses the table
    xi = 2.0
    prob = build_test_case("2a", 256, 40.0)
    lam = prob.operator.eigenvalues()
    w = np.abs(prob.e0) ** 2
    f_n = list(spectral_iterates(prob, xi, 12))
    for w_base in (w, np.where(lam == 0.0, 0.3, w)):
        base = DiscreteSpectralMeasure(lam, w_base)
        nu = weight_by_power(base, xi + 1.0)
        looked_up = residual_polynomials(nu, 12, base.support)
        on_nu = residual_polynomials(nu, 12)
        assert len(looked_up.zeros) == len(on_nu.zeros) == 12
        for s in (0.0, 1.0, 2.0):
            m = weight_by_power(base, s)
            kernel = s == 0.0 and w_base is not w
            assert (m.support[0] == 0.0) == kernel
            assert np.isin(m.support, nu.support).all() != kernel
            rows = np.searchsorted(base.support, m.support)
            for z, values in zip(looked_up.zeros, looked_up.values):
                assert np.array_equal(values[rows],
                                      _factor_products(m.support, z)), s
            rhos = [rho(prob, f, s) for f in f_n[1:13]]
            want = _table_bits(chain_table(rhos, looked_up, m, xi, s))
            if kernel:
                with pytest.raises(ValueError, match="outside the table"):
                    chain_table(rhos, on_nu, m, xi, s)
            else:
                got = _table_bits(chain_table(rhos, on_nu, m, xi, s))
                assert got == want, s


def _table_bits(t, rows=slice(None)):
    """Every field of a chain table at rows, floats as hex so that a nan
    compares too."""
    def hexes(a):
        return [float(v).hex() for v in a[rows]]
    return ([(name, hexes(lhs), hexes(rhs), ok[rows].tolist())
             for name, lhs, rhs, ok in t.steps],
            t.ok[rows].tolist(), t.first_failure[rows],
            t.lemma_ok[rows].tolist(), hexes(t.below))


def _degree(table, i):
    """The zero table of table's degree i + 1 alone."""
    return table._replace(**{f: getattr(table, f)[i:i + 1]
                             for f in table._fields if f != "support"})


def _pool_spec(m, index):
    """Member (m, index) of the benchmark's diagonal pool: m distinct atoms
    log-uniform on [1e-3, 1e3] and a standard-normal initial error."""
    rng = np.random.default_rng([20261017, m, index])
    while True:
        lam = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=m))
        if np.unique(lam).size == m:
            return {"eigenvalues": lam, "error": rng.standard_normal(m)}


@pytest.mark.parametrize("config", [
    small_config("2b", n_max=24),
    RunConfig(test="custom", n_max=16, custom=_pool_spec(16, 0)),
    RunConfig(test="custom", n_max=72, custom=_pool_spec(72, 0)),
], ids=["2b-n256", "pool-16", "pool-72"])
@pytest.mark.parametrize("xi", [1.0, 2.0])
def test_run_takes_one_chain_table_per_sigma(monkeypatch, config, xi):
    # run() evaluates the chain once per sigma over all degrees; each table
    # it takes (every field, floats as hex) is the one chain_table makes on
    # its own from the records' rho, and its row N is bit for bit the chain
    # on degree N of the zero table alone: the atom sums are 1-d per degree.
    # The records' verdicts are the chain tables', and their delta_n and
    # ritz_min the zero table's
    from powercg import runs
    tables = {}

    def spy(*args, **kwargs):
        out = chain_table(*args, **kwargs)
        sigma = args[4]
        assert sigma not in tables
        tables[sigma] = out
        return out
    monkeypatch.setattr(runs, "chain_table", spy)
    config = dataclasses.replace(config, xi=xi).resolve()
    out = run(config)
    monkeypatch.undo()
    base, mu, nu = runs._measures(runs._build_problem(config), xi,
                                  [s for s in (0.0, 1.0, 2.0) if s <= xi])
    assert sorted(tables) == sorted(mu)
    table = residual_polynomials(nu, config.n_max, base.support)
    assert len(table.zeros) > 1
    recs = out.records[1:len(table.zeros) + 1]
    for s, m in mu.items():
        fresh = chain_table([r.rho[s] for r in recs], table, m, xi, s)
        assert _table_bits(tables[s]) == _table_bits(fresh), s
        for i, r in enumerate(recs):
            one = chain_table([r.rho[s]], _degree(table, i), m, xi, s)
            assert (_table_bits(fresh, slice(i, i + 1))
                    == _table_bits(one)), (r.N, s)
    for i, r in enumerate(recs):
        assert r.delta_n == table.delta[i]
        assert r.ritz_min == table.zeros[i][0]
        assert r.bound_chain_ok == all(t.ok[i] for t in tables.values())
        assert r.lemma_ok == all(t.lemma_ok[i] for t in tables.values())


def _scaled_bits(r, c, ce):
    """Float hex of every value of record r, with the eigenvalues scaled by
    c and e0 by ce: rho_sigma and n_sq_rho1 by c^sigma ce^2, the zeros by
    c and delta_n by 1/c (all exact for powers of two)."""
    return ({s: float(v * c ** s * ce ** 2).hex() for s, v in r.rho.items()},
            float(r.n_sq_rho1 * c * ce ** 2).hex(),
            float(r.ritz_min * c).hex(), float(r.ritz_max * c).hex(),
            float(r.delta_n / c).hex())


def test_run_records_are_exact_under_a_change_of_units():
    # A -> cA and e0 -> ce e0 scale every record exactly and move no
    # verdict, and a permutation of the eigenvalues changes nothing: with
    # powers of two the records must be bit-equal to the scaled originals.
    # So every threshold on atoms and zeros must be relative: an absolute
    # floor would merge the distinct atoms of lam * 2^-40 (in [1e-15,
    # 1e-9]). Above the 64-atom cutoff the double path's chain fails from
    # some degree on, and the first false verdict can sit at the chain's
    # slack, where pow's last bit decides it: the verdicts of a record
    # false unscaled are exempt, its values are not
    sigmas = (0.0, 0.5, 1.0, 2.0)

    def records(lam, e0, xi):
        custom = {"eigenvalues": lam, "error": e0}
        return run(RunConfig(test="custom", xi=xi, n_max=lam.size,
                             sigmas=sigmas, custom=custom)).records

    for m, index in ((8, 0), (16, 3), (72, 0)):
        spec = _pool_spec(m, index)
        lam, e0 = spec["eigenvalues"], spec["error"]
        perm = np.random.default_rng(m).permutation(m)
        units = [(lam * 2.0 ** k, e0, 2.0 ** k, 1.0) for k in (40, -40)]
        units += [(lam, e0 * 2.0 ** k, 1.0, 2.0 ** k) for k in (20, -20)]
        units.append((lam[perm], e0[perm], 1.0, 1.0))
        for xi in (1.0, 2.0):
            ref = records(lam, e0, xi)
            for lam_c, e0_c, c, ce in units:
                for a, b in zip(ref, records(lam_c, e0_c, xi), strict=True):
                    where = (m, xi, c, ce, a.N)
                    assert _scaled_bits(b, 1.0, 1.0) == _scaled_bits(
                        a, c, ce), where
                    verdicts = (a.bound_chain_ok, a.lemma_ok)
                    if m <= 64 or False not in verdicts:
                        assert (b.bound_chain_ok, b.lemma_ok) == verdicts, where


def test_lemma_verdict_matches_lemma_bound():
    # above the 64-atom cutoff the double-path chain fails on most records
    # near termination while the lemma holds on every one, so the verdict
    # must come from the lemma's own comparison, not from the chain's
    spec = {"dimension": 72, "seed": 1, "kappa": 1e6}
    prob = build_custom_case(spec)
    base = DiscreteSpectralMeasure(prob.operator.eigenvalues(),
                                   np.abs(prob.e0) ** 2)
    mu = {s: weight_by_power(base, s) for s in (0.0, 1.0, 2.0)}
    for xi in (1.0, 2.0):
        out = run(RunConfig(test="custom", xi=xi, n_max=72, custom=spec))
        table = residual_polynomials(weight_by_power(base, xi + 1.0), 72)
        for r in out.records[1:]:
            if r.N > len(table.zeros):
                assert r.lemma_ok is None
                continue
            want = all(lemma_bound(table, r.N, m, xi, s)[2]
                       for s, m in mu.items() if s <= xi)
            assert r.lemma_ok == want, (xi, r.N)


def test_chain_steps_fail_on_non_finite_operands():
    # near termination the right split integral of this spectrum overflows
    # on the double path; inf <= slack * inf holds, so without a finiteness
    # check those steps would pass
    spec = {"dimension": 72, "seed": 1, "kappa": 1e6}
    prob = build_custom_case(spec)
    base = DiscreteSpectralMeasure(prob.operator.eigenvalues(),
                                   np.abs(prob.e0) ** 2)
    non_finite = 0
    for xi in (1.0, 2.0):
        out = run(RunConfig(test="custom", xi=xi, n_max=72, custom=spec))
        table = residual_polynomials(weight_by_power(base, xi + 1.0), 72)
        recs = out.records[1:len(table.zeros) + 1]
        for s in (0.0, 1.0, 2.0):
            if s > xi:
                continue
            t = chain_table([r.rho[s] for r in recs], table,
                            weight_by_power(base, s), xi, s)
            for name, lhs, rhs, ok in t.steps:
                for i in np.flatnonzero(~(np.isfinite(lhs)
                                          & np.isfinite(rhs))):
                    non_finite += 1
                    assert not ok[i], (xi, s, recs[i].N, name)
                    assert not t.ok[i] and not recs[i].bound_chain_ok
                    assert t.first_failure[i] is not None
    assert non_finite > 0


def test_run_near_termination_lets_no_warning_escape():
    # the double-path chain on these spectra meets an overflowing atom sum
    # near termination; run() must keep it inside and give the same records.
    # The second spectrum is a 96-atom log-uniform draw on [1e-3, 1e3], whose
    # overflow lands in the chain's sums over s^2 w
    # The third keeps its atoms 1e-160 and 1e-150 apart: N = 1 holds, and at
    # N = 2 the smallest zero is 1e-160, so z_1^-q overflows in the chain's
    # operands, which must then fail their steps and the verdict
    spec = {"dimension": 72, "seed": 1, "kappa": 1e6}
    rng = np.random.default_rng([20261017, 96, 3])
    lam = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=96))
    assert np.unique(lam).size == 96
    drawn = {"eigenvalues": lam, "error": rng.standard_normal(96)}
    tiny = {"eigenvalues": [1e-160, 1e-150], "error": [1e40, 1e40]}
    for custom, xi, n_max in ((spec, 1.0, 72), (spec, 2.0, 72),
                              (drawn, 1.0, 96), (tiny, 1.0, 2)):
        config = RunConfig(test="custom", xi=xi, n_max=n_max, custom=custom)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = run(config).to_dict()["records"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run(config).to_dict()["records"]
        assert got == want
    # the last config is the tiny spectrum's
    assert [r["bound_chain_ok"] for r in got] == [None, True, False]
    from powercg import runs
    base, mu, nu = runs._measures(runs._build_problem(config), 1.0, (0.0,))
    table = residual_polynomials(nu, 2, base.support)
    assert table.zeros[1][0] == 1e-160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = chain_table([r["rho"]["0.0"] for r in got[1:]], table, mu[0.0],
                        1.0, 0.0)
    steps = {name: (rhs[1], ok[1]) for name, _, rhs, ok in t.steps}
    for name in ("tail_bound", "assembled_bound"):
        assert not np.isfinite(steps[name][0]) and not steps[name][1], name
    assert not t.ok[1]


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
    # an empty file, or one of blank lines, has no header to read
    for text in ("", "\n\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="header"):
            read_csv(str(path))
    # a row whose cell count differs from the header's, or whose cell does
    # not parse, names the file and the row
    for text in ("N, rho0\n1\n", "N, rho0\n0, 1.0\n1, 0.5, 7\n",
                 "N, rho0\n0, x\n"):
        path.write_text(text)
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: row ")) as info:
            read_csv(str(path))
        assert type(info.value) is ValueError


def _refuse(constant):
    raise ValueError(f"not strict JSON: {constant}")


def test_json_roundtrip_and_version_gate(tmp_path):
    def same(a, b):
        return a == b or (isinstance(a, float) and np.isnan(a)
                          and isinstance(b, float) and np.isnan(b))

    path = tmp_path / "series.json"
    # n_max = 3 passes the end of the two-atom zero table, so the last
    # record's node fields are nan: they are written as null, and the file
    # is strict JSON
    for custom, n_max in (({"eigenvalues": [1, 1, 2], "error": [1, 1, 1]}, 3),
                          ({"dimension": 5, "seed": 11}, 5)):
        out = run(RunConfig(test="custom", n_max=n_max, xi=2.0,
                            custom=custom, json_out=str(path)))
        json.loads(path.read_text(), parse_constant=_refuse)
        back = read_json(str(path))
        assert back.metadata == out.metadata
        assert len(back.records) == len(out.records)
        # every field of every record, nan equal to nan
        for a, b in zip(out.records, back.records):
            for f in dataclasses.fields(a):
                assert same(getattr(a, f.name), getattr(b, f.name)), (
                    a.N, f.name)
    # a float that is not finite fails before the file is opened
    bad = dataclasses.replace(out, metadata=dict(out.metadata,
                                                 norm_estimate=np.nan))
    with pytest.raises(ValueError, match="JSON compliant"):
        emit_json(bad, str(tmp_path / "nan.json"))
    assert not (tmp_path / "nan.json").exists()
    assert any(r.lemma_ok is not None for r in back.records)
    # a file written before lemma_ok existed reads it back as None
    data = json.loads(path.read_text())
    for r in data["records"]:
        del r["lemma_ok"]
    path.write_text(json.dumps(data))
    old = read_json(str(path))
    assert [r.lemma_ok for r in old.records] == [None] * len(out.records)
    assert [r.bound_chain_ok for r in old.records] == [
        r.bound_chain_ok for r in out.records]
    data["schema_version"] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(VersionError, match="99"):
        read_json(str(path))
    # a file that is not a run record is refused with ValueError, not with
    # whatever a lookup in it would raise
    data["schema_version"] = SCHEMA_VERSION
    for doc, match in (([], "list"), (3, "int"),
                       ({k: data[k] for k in ("schema_version", "metadata")},
                        "records"),
                       ({k: data[k] for k in ("schema_version", "records")},
                        "metadata")):
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match) as info:
            read_json(str(path))
        assert type(info.value) is ValueError
    # so is a malformed record, naming the file and the record's index: one
    # that is not an object, or lacks rho or a field without a default
    good = data["records"][0]
    for obj in ([], "N", 3, {k: v for k, v in good.items() if k != "N"},
                {k: v for k, v in good.items() if k != "rho"},
                {k: v for k, v in good.items() if k != "n_sq_rho1"},
                dict(good, rho=[1.0])):
        path.write_text(json.dumps(dict(data, records=[good, obj])))
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: record 1 ")) as info:
            read_json(str(path))
        assert type(info.value) is ValueError, obj


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

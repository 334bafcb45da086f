"""Krylov module: problem gates, CG, Lanczos, and the weighted minimizers.

Hand values come from the 2-dim diag(1, 2) problem with g = (1, 2),
f0 = 0 (solution (1, 1), e0 = (-1, -1)), worked as exact fractions:
the energy minimizer at N = 1 is (5/9, 10/9), the residual-norm
minimizer (9/17, 18/17), the plain-error minimizer (3/5, 6/5).
Everything beyond hand reach is checked against the extended-precision
monomial oracle brute_force_iterate / brute_force_objective.
"""

import numpy as np
import pytest

from powercg.diagnostics import rho
from powercg.linop import (DiagonalOperator, FourierOperator, MatrixOperator,
                           KernelComponentError, SpectralAccessError)
from powercg.krylov import (ConsistencyError, InverseProblem, _Lanczos,
                            run_cg, spectral_iterates, theta_iterate)
from powercg.runs import build_test_case

from mp_reference import (benchmark_dense_case, brute_force_iterate,
                          brute_force_objective, cg_reference,
                          spectral_measure)


def two_dim():
    op = DiagonalOperator(np.array([1.0, 2.0]))
    return InverseProblem(op, g=np.array([1.0, 2.0]))


def random_problem(rng, dim, lo=0.5, hi=4.0):
    lam = np.sort(rng.uniform(lo, hi, dim))
    sol = rng.standard_normal(dim)
    return InverseProblem(DiagonalOperator(lam), g=lam * sol,
                          known_solution=sol)


# problem construction -------------------------------------------------------

def test_problem_validates_shapes():
    op = DiagonalOperator(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        InverseProblem(op, g=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        InverseProblem(op, g=np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        InverseProblem(op, g=np.array([1.0, 2.0]), f0=np.zeros(3))
    with pytest.raises(ValueError):
        InverseProblem(op, g=np.array([1.0, 2.0]),
                       known_solution=np.ones(3))
    with pytest.raises(ValueError, match="^f0 .*non-finite"):
        InverseProblem(op, g=np.array([1.0, 2.0]), f0=np.array([0.0, np.inf]))
    with pytest.raises(ValueError, match="^known_solution .*non-finite"):
        InverseProblem(op, g=np.array([1.0, 2.0]),
                       known_solution=np.array([np.nan, 1.0]))
    # a field is real: a complex datum, guess or solution is refused, not
    # cut to its real part
    for name in ("g", "f0", "known_solution"):
        data = {"g": np.array([1.0, 2.0]), name: np.array([1.0, 2.0 + 1e-9j])}
        with pytest.raises(ValueError, match=f"^{name} is complex"):
            InverseProblem(op, **data)


def test_problem_is_fixed_at_construction():
    # the gates run once, so the data they passed can never change: edits
    # and assignments raise, and the problem keeps its own copies
    g = np.array([1.0, 2.0])
    f0 = np.array([0.5, 0.5])
    sol = np.array([1.0, 1.0])
    prob = InverseProblem(DiagonalOperator(np.array([1.0, 2.0])), g=g, f0=f0,
                          known_solution=sol)
    grouping = ("e0", "kernel_mask", "atoms", "atom_index")
    for name in ("g", "f0", "known_solution") + grouping:
        with pytest.raises(ValueError, match="read-only"):
            getattr(prob, name)[0] += 1.0
    for name in ("g", "f0", "known_solution", "operator") + grouping:
        with pytest.raises(AttributeError):
            setattr(prob, name, getattr(prob, name))
    g[0] = 7.0
    f0[1] = 7.0
    sol[:] = 7.0
    assert np.array_equal(prob.g, [1.0, 2.0])
    assert np.array_equal(prob.f0, [0.5, 0.5])
    assert np.array_equal(prob.known_solution, [1.0, 1.0])
    assert g.flags.writeable and f0.flags.writeable and sol.flags.writeable
    # an offset of 2a's datum would leave the range of A behind every gate
    prob = build_test_case("2a", n=256)
    before = prob.g.copy()
    with pytest.raises(ValueError, match="read-only"):
        prob.g += 1.0
    assert np.array_equal(prob.g, before)


def test_problem_defaults_and_accessors():
    prob = two_dim()
    assert prob.dimension == 2
    assert np.array_equal(prob.f0, np.zeros(2))
    assert np.allclose(prob.residual0(), -prob.g)
    assert prob.known_solution is None
    assert prob.notes == {}


def test_consistency_gate_accepts_and_rejects():
    op = DiagonalOperator(np.array([1.0, 2.0, 3.0]))
    sol = np.array([1.0, -2.0, 0.5])
    g = np.array([1.0, -4.0, 1.5])
    prob = InverseProblem(op, g=g, known_solution=sol)
    assert np.array_equal(prob.known_solution, sol)
    with pytest.raises(ConsistencyError, match="known solution fails"):
        InverseProblem(op, g=g + 1e-3, known_solution=sol)


def test_kernel_gate_on_spectral_datum():
    op = FourierOperator(16, 4.0, shift=0.0)
    with pytest.raises(KernelComponentError, match="kernel component"):
        InverseProblem(op, g=np.ones(16))
    x = op.grid()
    g = np.sin(2 * np.pi * x / 4.0)
    InverseProblem(op, g=g)  # mean-free datum passes
    # at KERNEL_TOL's boundary: a kernel datum of 1.5e-9 against ||g|| =
    # sqrt(2) is refused at 1e-10 (and would pass at 1e-8), one of 1e-11
    # passes (and would be refused at 1e-12)
    op = DiagonalOperator([0.0, 1.0, 2.0])
    with pytest.raises(KernelComponentError, match="kernel component"):
        InverseProblem(op, g=[1.5e-9, 1.0, 1.0])
    InverseProblem(op, g=[1e-11, 1.0, 1.0])


def test_solution_and_error_coefficients():
    prob = two_dim()
    e0 = prob.error_coefficients(prob.f0)
    assert np.allclose(e0, [-1.0, -1.0])
    # kernel entries stay exactly zero on an operator with a kernel
    op = FourierOperator(16, 4.0, shift=0.0)
    x = op.grid()
    g = np.sin(2 * np.pi * x / 4.0)
    p = InverseProblem(op, g=g, f0=np.cos(x))
    e = p.error_coefficients(np.ones(16))
    assert e[op.kernel_mask()] == pytest.approx(0.0, abs=0.0)
    # the stored e0 is error_coefficients(f0) bit for bit, and the atoms
    # give back every eigenvalue; without spectral access there are none
    for q in (prob, p):
        want = q.error_coefficients(q.f0)
        assert q.e0.dtype == want.dtype and q.e0.tobytes() == want.tobytes()
        lam = q.operator.eigenvalues()
        assert np.array_equal(q.atoms, np.unique(lam))
        assert np.array_equal(q.atoms[q.atom_index], lam)
        assert np.array_equal(q.kernel_mask, q.operator.kernel_mask())
    mat = InverseProblem(MatrixOperator(np.diag([1.0, 2.0])),
                         g=np.array([1.0, 2.0]))
    assert (mat.e0, mat.kernel_mask, mat.atoms, mat.atom_index) == (None,) * 4


# run_cg ---------------------------------------------------------------------

def test_cg_hand_first_step():
    prob = two_dim()
    hist = run_cg(prob, 2)
    assert np.allclose(hist.iterates[0], [0.0, 0.0])
    assert np.allclose(hist.iterates[1], [5.0 / 9.0, 10.0 / 9.0],
                       rtol=0, atol=1e-14)
    assert np.allclose(hist.iterates[2], [1.0, 1.0], rtol=0, atol=1e-12)
    assert np.allclose(prob.residual0(), [-1.0, -2.0])


def test_cg_finite_termination_and_reason():
    rng = np.random.default_rng(7)
    prob = random_problem(rng, 6)
    hist = run_cg(prob, 6)
    assert hist.terminated and hist.reason.startswith("converged at N=")
    assert np.linalg.norm(hist.iterates[-1] - prob.known_solution) < 1e-9


def test_cg_zero_residual_start():
    op = DiagonalOperator(np.array([1.0, 2.0]))
    prob = InverseProblem(op, g=np.array([1.0, 2.0]), f0=np.array([1.0, 1.0]))
    hist = run_cg(prob, 2)
    assert hist.terminated and hist.reason == "converged at N=0"
    assert len(hist.iterates) == 1


def test_cg_breakdown_on_near_null_direction():
    # once the two healthy components have converged the remaining search
    # direction lies along the 1e-15 eigenvalue; the 1e-11 datum entry keeps
    # the residual above the stop rule, so the step must stop on the
    # vanishing curvature rather than divide by it
    op = DiagonalOperator(np.array([1e-15, 1.0, 2.0]))
    prob = InverseProblem(op, g=np.array([1e-11, 1.0, 2.0]))
    hist = run_cg(prob, 3)
    assert hist.terminated and hist.reason.startswith("breakdown at N=2")
    assert len(hist.iterates) == 3
    assert np.allclose(hist.iterates[-1][1:], [1.0, 1.0], atol=1e-12)


def test_cg_rejects_n_max_beyond_dimension():
    with pytest.raises(ValueError, match="exceeds dimension"):
        run_cg(two_dim(), 3)
    # a negative or non-integer degree is refused, not read as a short run
    mat = InverseProblem(MatrixOperator(np.diag([1.0, 2.0])),
                         g=np.array([1.0, 2.0]))
    for prob in (two_dim(), mat):
        for n_max in (-1, -3, 2.5, 1.0, True):
            with pytest.raises(ValueError, match="^n_max must be an integer"):
                run_cg(prob, n_max)


def test_cg_stops_at_n_max_without_terminating():
    prob = random_problem(np.random.default_rng(11), 10)
    hist = run_cg(prob, 3)
    assert len(hist.iterates) == 4
    assert not hist.terminated and hist.reason is None


# lanczos --------------------------------------------------------------------

def lanczos(op, b, n_steps):
    """A _Lanczos recurrence from b, extended to n_steps, and the basis of
    the steps it made."""
    state = _Lanczos(op, b)
    state.extend(n_steps)
    return state, state.V[:, :state.steps]


def test_lanczos_basis_and_projection():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((8, 8))
    M = M @ M.T + 8 * np.eye(8)
    op = MatrixOperator(M)
    b = rng.standard_normal(8)
    st, V = lanczos(op, b, 6)
    assert not st.breakdown
    T = np.diag(st.alphas) + np.diag(st.betas, 1) + np.diag(st.betas, -1)
    assert np.allclose(V.T @ V, np.eye(6), atol=1e-12)
    assert np.allclose(V.T @ (M @ V), T, atol=1e-10 * np.linalg.norm(M))
    assert np.allclose(V[:, 0], b / np.linalg.norm(b))
    assert st.norm == np.linalg.norm(b)


def test_lanczos_breakdown_flag():
    op = DiagonalOperator(np.array([1.0, 1.0, 2.0]))
    st, V = lanczos(op, np.array([1.0, 1.0, 1.0]), 3)
    assert st.breakdown and st.steps == 2 and V.shape == (3, 2)


def test_lanczos_validation():
    op = DiagonalOperator(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="zero"):
        lanczos(op, np.zeros(2), 1)
    with pytest.raises(ValueError, match="exceeds dimension"):
        lanczos(op, np.ones(2), 3)


def dense_problem(seed, dim=24, distinct=None):
    """Seeded A = Q diag(lam) Q^T with one kernel direction, lam log-uniform
    on [1e-4, 1], solution in the range. With distinct, lam cycles through
    its first `distinct` draws, so the Krylov space from R0 has that
    dimension and Lanczos breaks down there."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lam = np.exp(rng.uniform(np.log(1e-4), 0.0, dim))
    if distinct:
        lam = lam[np.arange(dim) % distinct]
    lam[0] = 0.0
    coeff = rng.standard_normal(dim)
    coeff[0] = 0.0
    M = (q * lam) @ q.T
    return InverseProblem(MatrixOperator(M), g=M @ (q @ coeff))


def assert_same_lanczos(short, long, k):
    (st, V), (stL, VL) = short, long
    assert st.alphas == stL.alphas[:k]
    assert st.betas == stL.betas[:k - 1]
    assert np.array_equal(V, VL[:, :k])


def test_lanczos_prefix_is_bit_equal():
    # the k-step factorization is the leading block of every longer one,
    # to the last bit, whatever the length asked for
    prob = dense_problem(41, dim=40)
    diag = DiagonalOperator(np.geomspace(1e-3, 1e3, 40))
    b = np.random.default_rng(43).standard_normal(40)
    for op, start in ((prob.operator, prob.residual0()), (diag, b)):
        full = lanczos(op, start, 30)
        for k in range(1, 30):
            assert_same_lanczos(lanczos(op, start, k), full, k)
    # breakdown after 2 steps: shorter runs are the prefix, unflagged
    op = DiagonalOperator(np.array([1.0, 1.0, 2.0]))
    start = np.array([1.0, 1.0, 1.0])
    full = lanczos(op, start, 3)
    assert full[0].breakdown
    for k in (1, 2):
        short = lanczos(op, start, k)
        assert not short[0].breakdown
        assert_same_lanczos(short, full, k)


def test_ritz_values_match_polynomial_zeros():
    # the xi = 1 orthogonality measure is the residual's spectral measure,
    # so the zeros of its polynomials are the Lanczos Ritz values of A
    # started from R0
    from scipy.linalg import eigh_tridiagonal
    from powercg.measures import weight_by_power
    from powercg.orthopoly import residual_polynomials

    rng = np.random.default_rng(5)
    prob = random_problem(rng, 8)
    R0 = prob.residual0()
    st, _ = lanczos(prob.operator, R0, 8)
    nu = weight_by_power(spectral_measure(prob.operator, R0), 0.0)
    zeros = residual_polynomials(nu, 8).zeros
    for N in range(1, 9):
        ritz = np.sort(eigh_tridiagonal(st.alphas[:N], st.betas[:N - 1],
                                        eigvals_only=True))
        assert np.allclose(zeros[N - 1], ritz, rtol=1e-8, atol=0)


# theta_iterate --------------------------------------------------------------

def test_theta_one_hand_value():
    prob = two_dim()
    assert np.allclose(theta_iterate(prob, 1, 1), [5.0 / 9.0, 10.0 / 9.0],
                       rtol=0, atol=1e-13)


def test_theta_two_hand_value():
    prob = two_dim()
    want = [9.0 / 17.0, 18.0 / 17.0]
    assert np.allclose(theta_iterate(prob, 2, 1), want, rtol=0, atol=1e-13)
    assert np.allclose(list(spectral_iterates(prob, 2.0, 1))[1], want,
                       rtol=0, atol=1e-13)


def test_theta_zero_hand_value():
    # minimize (y+1)^2 + (2y+1)^2 over f = y (1, 2): y = -3/5
    prob = two_dim()
    want = [0.6, 1.2]
    assert np.allclose(list(spectral_iterates(prob, 0.0, 1))[1], want,
                       rtol=0, atol=1e-13)


def test_theta_one_equals_cg_path():
    # a dense problem with a kernel run to full dimension too: past CG's
    # termination every degree repeats CG's last iterate
    rng = np.random.default_rng(13)
    probs = [random_problem(rng, int(rng.integers(2, 9))) for _ in range(5)]
    for prob in probs + [dense_problem(44, 10)]:
        dim = prob.dimension
        hist = cg_reference(prob, dim)
        for N in range(1, dim + 1):
            fN = theta_iterate(prob, 1, N)
            want = hist.iterates[min(N, len(hist.iterates) - 1)]
            scale = max(np.linalg.norm(want), 1e-30)
            assert np.linalg.norm(fN - want) <= 1e-10 * scale, (dim, N)


def test_cg_stays_at_the_eigenbasis_minimizer_on_clean_data():
    # run_cg sees only apply; on data without a roundoff floor in its
    # spectrum its rho0 must stay at the exact Krylov minimizer, which the
    # eigenbasis ladder computes: 1b as built (measured gap 9.9e-13), and
    # 2b with the solution's coefficients below 1e-13 of the largest zeroed
    # and the datum rebuilt from it (measured 5e-15; 2.8e-9 as built)
    def floor_cleaned(test):
        built = build_test_case(test)
        op = built.operator
        c = op.coefficients(built.known_solution)
        c[np.abs(c) < 1e-13 * np.abs(c).max()] = 0.0
        f = op.from_coefficients(c)
        return InverseProblem(op, op.apply(f), known_solution=f)

    for prob, bound in ((build_test_case("1b"), 1e-10),
                        (floor_cleaned("2b"), 1e-11)):
        ladder = [rho(prob, f, 0) for f in spectral_iterates(prob, 1, 60)]
        got = [rho(prob, f, 0) for f in run_cg(prob, 60).iterates]
        assert len(got) == 61
        floor = 1e-12 * ladder[0]
        gap = max(abs(a - b) / max(b, floor) for a, b in zip(got, ladder))
        assert gap <= bound, (prob.notes, gap)


def test_krylov_route_starts_on_the_exact_krylov_space_on_rough_data():
    # 1a and 2a at their defaults carry a roundoff floor in their data; the
    # recurrence applies A to R0 itself at step 1, not to its rounded
    # normalization, so theta_iterate's rho0 stays near the eigenbasis
    # minimizer's: measured 1.2e-3 (1a) and 1.4e-4 (2a) at most over
    # theta = 1, 2, 3, against 3.9e-2 and 3.6e-3 when step 1 applied A to
    # the rounded start. Over perturbed draws of g theta = 1 read 2.4e-4 to
    # 1.2e-3 (1a) and 2.5e-5 to 1.2e-4 (2a), against 5.9e-3 to 3.9e-2 and
    # 1.7e-3 to 6.4e-3, so each bound sits between the two
    for test, bound in (("1a", 3e-3), ("2a", 5e-4)):
        prob = build_test_case(test)
        for theta in (1, 2, 3):
            ladder = [rho(prob, f, 0)
                      for f in spectral_iterates(prob, theta, 60)]
            got = [rho(prob, theta_iterate(prob, theta, N), 0)
                   for N in range(61)]
            floor = 1e-12 * ladder[0]
            gap = max(abs(a - b) / max(b, floor) for a, b in zip(got, ladder))
            assert gap <= bound, (test, theta, gap)


def test_theta_iterate_matrix_free_path():
    # same minimizer through MatrixOperator (no spectral access) and
    # DiagonalOperator
    rng = np.random.default_rng(17)
    lam = np.sort(rng.uniform(0.5, 4.0, 6))
    sol = rng.standard_normal(6)
    spec = InverseProblem(DiagonalOperator(lam), g=lam * sol)
    mat = InverseProblem(MatrixOperator(np.diag(lam)), g=lam * sol)
    for theta in (1, 2, 3):
        for N in (1, 3, 5):
            a = theta_iterate(spec, theta, N)
            b = theta_iterate(mat, theta, N)
            assert np.allclose(a, b, rtol=1e-9, atol=1e-12)


def test_theta_iterate_is_history_free():
    # one problem keeps one Lanczos recurrence, and one factorization per
    # theta, for every call: the order of the calls must not show in any
    # iterate
    thetas = (1, 2, 3, 4, 5)
    want = {(theta, N): theta_iterate(dense_problem(47), theta, N)
            for theta in thetas for N in range(1, 21)}
    orders = [[(2, N) for N in range(1, 21)],
              [(3, N) for N in range(20, 0, -1)],
              [(theta, N) for N in (7, 20, 1, 13, 4, 18, 9)
               for theta in (3, 1, 5, 2, 4)]]
    for calls in orders:
        prob = dense_problem(47)
        for theta, N in calls:
            assert np.array_equal(theta_iterate(prob, theta, N),
                                  want[theta, N]), (theta, N)
    # run to full dimension past a breakdown at 3: every degree from 3 on
    # returns the saturated minimizer, whatever came before
    full = {(theta, N): theta_iterate(dense_problem(47, distinct=3), theta, N)
            for theta in thetas for N in range(1, 25)}
    prob = dense_problem(47, distinct=3)
    for theta in thetas:
        for N in range(24, 0, -1):
            assert np.array_equal(theta_iterate(prob, theta, N),
                                  full[theta, N]), (theta, N)
        for N in range(4, 25):
            assert np.array_equal(full[theta, N], full[theta, 3])
    assert prob._lanczos.breakdown and prob._lanczos.steps == 3
    # full dimension past the positive-definite prefix at 9: the cut is the
    # same whichever theta grew the Cholesky factor first, even theta too
    full = {(theta, N): theta_iterate(dense_problem(44, 10), theta, N)
            for theta in thetas for N in range(1, 11)}
    orders = [[(theta, N) for theta in (2, 4, 1, 3, 5) for N in range(1, 11)],
              [(theta, N) for N in range(10, 0, -1) for theta in (4, 2, 5, 1, 3)]]
    for calls in orders:
        prob = dense_problem(44, 10)
        for theta, N in calls:
            assert np.array_equal(theta_iterate(prob, theta, N),
                                  full[theta, N]), (theta, N)
        assert len(prob._lanczos.chol_diag) == 9


def test_theta_series_extends_one_lanczos_basis():
    # N = 1..K at theta = 2: K + 2 Lanczos applies in all, plus one apply
    # for R0, where rebuilding per N would cost O(K^2)
    class CountingOperator(MatrixOperator):
        applies = 0

        def _apply(self, x):
            self.applies += 1
            return super()._apply(x)

    M = dense_problem(59).operator.matrix
    op = CountingOperator(M)
    prob = InverseProblem(op, g=M @ np.ones(M.shape[0]))
    K = 15
    for N in range(1, K + 1):
        theta_iterate(prob, 2, N)
    assert op.applies == (K + 2) + 1


def test_theta_series_factors_once(monkeypatch):
    # a theta >= 2 series extends one stored QR of the projected matrix, one
    # column per new degree, and makes no dense least-squares solve; theta =
    # 1 sweeps the stored Cholesky factor and makes no dense solve either
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} called")
        return call
    for name in ("lstsq", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse(name))
    prob = dense_problem(59)
    K = 15
    for N in range(1, K + 1):
        theta_iterate(prob, 1, N)
        assert len(prob._lanczos.chol_diag) == N + 1
    for theta in (2, 3):
        for N in range(1, K + 1):
            theta_iterate(prob, theta, N)
            assert len(prob._lanczos.factors[theta].R) == N
        theta_iterate(prob, theta, K - 3)
        assert len(prob._lanczos.factors[theta].R) == K


def test_theta_iterate_stops_at_the_positive_definite_prefix(monkeypatch):
    # at full dimension the Krylov space is exhausted: either roundoff leaks
    # a kernel direction into the last Lanczos steps and a Cholesky pivot of
    # T falls to BREAKDOWN_REL ||A|| (dense_problem(41, 40): 39 pivots of 40
    # steps; the benchmark's case: 37 of 38), or the recurrence breaks down
    # at beta with every pivot kept (dense_problem(44, 10) after 9 steps,
    # dense_problem(48, 16) after 15). Every integer theta reads T only up
    # to the cut, so degree dim repeats degree dim - 1 bit for bit and still
    # solves A f = g, with the stored QR alone
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    probs = [dense_problem(44, 10), dense_problem(41, 40),
             dense_problem(48, 16), benchmark_dense_case(40, 3, 0)]
    for prob in probs:
        M, g, dim = prob.operator.matrix, prob.g, prob.dimension
        for theta in (1, 2, 3, 4, 5):
            f = theta_iterate(prob, theta, dim)
            assert np.array_equal(f, theta_iterate(prob, theta, dim - 1)), (
                dim, theta)
            assert (np.linalg.norm(M @ f - g)
                    <= 1e-10 * np.linalg.norm(g)), (dim, theta)
    for prob, cut in zip(probs, (False, True, False, True)):
        st = prob._lanczos
        if cut:
            assert len(st.chol_diag) < st.steps, prob.dimension
        else:
            assert st.breakdown and len(st.chol_diag) == st.steps, \
                prob.dimension
    # the benchmark's case keeps its iterates in ran A, on its solution
    sol = probs[-1].known_solution
    for theta in (1, 2, 3, 4, 5):
        f = theta_iterate(probs[-1], theta, 40)
        assert np.linalg.norm(f - sol) <= 1e-8 * np.linalg.norm(sol), theta


def test_cg_is_the_theta_one_series_of_the_stored_recurrence(monkeypatch):
    # run_cg reads the problem's one Lanczos recurrence: a fresh problem
    # pays N + 1 applies (R0 and N steps), a theta = 2 and 3 series after it
    # only the steps past N, a repeated run_cg none, and every iterate is
    # theta_iterate(p, 1, N) and a fresh run's, whatever ran before
    applies = []
    apply = MatrixOperator._apply

    def spy(self, x):
        applies.append(None)
        return apply(self, x)
    monkeypatch.setattr(MatrixOperator, "_apply", spy)

    def theta3_series(p):
        for n in range(1, p.dimension + 1):
            theta_iterate(p, 3, n)
    for make, N in ((lambda: dense_problem(44, 10), 8),
                    (lambda: benchmark_dense_case(40, 3, 0), 30)):
        prob = make()
        full = run_cg(prob, prob.dimension)
        prob = make()
        applies.clear()
        hist = run_cg(prob, N)
        assert len(applies) == N + 1 and len(hist.iterates) == N + 1
        for theta in (2, 3):
            for n in range(1, N + 1):
                theta_iterate(prob, theta, n)
        assert len(applies) <= N + 1 + 3
        applies.clear()
        again = run_cg(prob, N)
        assert not applies
        for n, f in enumerate(hist.iterates):
            assert np.array_equal(f, again.iterates[n]), n
            assert np.array_equal(f, theta_iterate(prob, 1, n)), n
        # the stop rule too: converged at 9 of 10, and at 37 of 40
        assert full.reason == f"converged at N={len(full.iterates) - 1}"
        for before in (lambda p: run_cg(p, p.dimension), theta3_series):
            prob = make()
            before(prob)
            got = run_cg(prob, N).iterates
            assert len(got) == N + 1
            for n, f in enumerate(got):
                assert np.array_equal(f, hist.iterates[n]), n
            again = run_cg(prob, prob.dimension)
            assert again.reason == full.reason
            assert len(again.iterates) == len(full.iterates)
            for n, f in enumerate(again.iterates):
                assert np.array_equal(f, full.iterates[n]), n


def test_theta_iterate_against_brute_force():
    rng = np.random.default_rng(19)
    for _ in range(6):
        dim = int(rng.integers(2, 9))
        prob = random_problem(rng, dim, lo=0.1, hi=10.0)
        for theta in (1.0, 2.0, 3.0, 4.0, 5.0):
            for N in range(1, dim + 1):
                got = brute_force_objective(
                    prob, theta, theta_iterate(prob, theta, N))
                want = brute_force_objective(
                    prob, theta, brute_force_iterate(prob, theta, N))
                assert got <= want * (1 + 1e-8) + 1e-14
                assert abs(got - want) <= 1e-8 * max(want, 1e-14)


def test_fractional_theta_against_brute_force(monkeypatch):
    rng = np.random.default_rng(23)
    prob = random_problem(rng, 6, lo=0.2, hi=5.0)
    made = []
    from_coefficients = DiagonalOperator.from_coefficients

    def spy(self, c):
        made.append(c)
        return from_coefficients(self, c)
    monkeypatch.setattr(DiagonalOperator, "from_coefficients", spy)
    for theta in (0.5, 1.5):
        made.clear()
        iterates = []
        for f in spectral_iterates(prob, theta, 6):
            iterates.append(f)
            # f0 is a copy; each later degree transforms its own polynomial
            # back, once
            assert len(made) == len(iterates) - 1
        assert len(iterates) == 7
        for N, f in enumerate(iterates):
            got = brute_force_objective(prob, theta, f)
            want = brute_force_objective(
                prob, theta, brute_force_iterate(prob, theta, N))
            assert abs(got - want) <= 1e-8 * max(want, 1e-14), (theta, N)


def test_spectral_iterates_against_brute_force_past_breakdown():
    # zero initial error on 4 of 8 atoms, or every eigenvalue of 8 taken
    # twice (coincident atoms, the ladder runs on the 4 distinct ones):
    # the ladder degenerates at degree 4 and degrees 5..8 must repeat the
    # terminated minimizer
    rng = np.random.default_rng(37)
    lam = np.sort(rng.uniform(0.1, 10.0, 8))
    e0 = rng.standard_normal(8)
    e0[::2] = 0.0
    lam2 = np.repeat(np.sort(rng.uniform(0.1, 10.0, 4)), 2)
    e02 = rng.standard_normal(8)
    for lam, e0 in ((lam, e0), (lam2, e02)):
        _check_past_breakdown(InverseProblem(
            DiagonalOperator(lam), g=-lam * e0, known_solution=-e0))


def _check_past_breakdown(prob):
    for theta in (1.0, 2.0):
        floor = 1e-12 * brute_force_objective(prob, theta, prob.f0)
        iterates = list(spectral_iterates(prob, theta, 8))
        assert len(iterates) == 9
        for N, f in enumerate(iterates):
            got = brute_force_objective(prob, theta, f)
            want = brute_force_objective(
                prob, theta, brute_force_iterate(prob, theta, N))
            assert abs(got - want) <= 1e-8 * max(want, floor), (theta, N)
            assert np.array_equal(f, list(spectral_iterates(prob, theta, N))[N])


def test_theta_iterate_validation():
    prob = two_dim()
    with pytest.raises(ValueError, match="exceeds dimension"):
        theta_iterate(prob, 1, 3)
    assert np.array_equal(theta_iterate(prob, 1, 0), prob.f0)
    mat = InverseProblem(MatrixOperator(np.diag([1.0, 2.0])),
                         g=np.array([1.0, 2.0]))
    three = InverseProblem(DiagonalOperator(np.array([1.0, 2.0, 3.0])),
                           g=np.array([1.0, 2.0, 3.0]))
    # theta_iterate takes an integer theta >= 1 only, on every problem,
    # refused before the degree is looked at, N = 0 included; the rest is
    # spectral_iterates'
    for p in (three, mat):
        for theta in (0, 0.0, 0.5, 1.5, -1.0, np.inf, np.nan):
            for N in (0, 1):
                with pytest.raises(ValueError, match="^theta_iterate takes an "
                                   "integer theta >= 1.*spectral_iterates"):
                    theta_iterate(p, theta, N)
    with pytest.raises(SpectralAccessError):
        spectral_iterates(mat, 1.0, 1)
    with pytest.raises(ValueError, match=">= 0"):
        spectral_iterates(prob, -0.5, 1)
    # a non-finite theta is refused, not rounded or carried into the weights
    for p in (three, mat):
        for theta in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and >= 0"):
                spectral_iterates(p, theta, 1)
    # a negative or non-integer degree is refused on every route
    calls = [(theta_iterate, p, theta) for p in (three, mat)
             for theta in (1, 2, 3)]
    calls += [(spectral_iterates, three, 0.5), (spectral_iterates, three, 1.0)]
    for N in (-1, -3, 2.5, 1.0, True):
        for f, p, theta in calls:
            with pytest.raises(ValueError, match="^N must be an integer"):
                f(p, theta, N)


def test_theta_iterate_at_solution_returns_f0():
    op = DiagonalOperator(np.array([1.0, 2.0]))
    prob = InverseProblem(op, g=np.array([1.0, 2.0]), f0=np.array([1.0, 1.0]))
    assert np.array_equal(theta_iterate(prob, 2, 1), prob.f0)
    # R0 all but in the kernel: the first Cholesky pivot is at the breakdown
    # tolerance, the positive-definite prefix is empty, and every degree
    # returns f0
    prob = InverseProblem(MatrixOperator(np.diag([0.0, 1.0])),
                          g=np.array([1.0, 1e-14]))
    for theta in (1, 2, 3, 4, 5):
        for N in (1, 2):
            assert np.array_equal(theta_iterate(prob, theta, N), prob.f0)


def test_kernel_component_of_f0_is_preserved():
    op = FourierOperator(32, 4.0, shift=0.0)
    x = op.grid()
    g = np.sin(2 * np.pi * x / 4.0) * (2 * np.pi / 4.0) ** 2
    f0 = np.full(32, 0.7)
    prob = InverseProblem(op, g=g, f0=f0)
    for N in (1, 3):
        for f in (theta_iterate(prob, 1, N),
                  list(spectral_iterates(prob, 2.0, N))[N]):
            assert abs(f.mean() - 0.7) < 1e-12
    hist = run_cg(prob, 4)
    assert abs(hist.iterates[-1].mean() - 0.7) < 1e-12


def test_objective_is_monotone_in_degree():
    rng = np.random.default_rng(29)
    prob = random_problem(rng, 7, lo=0.1, hi=10.0)
    for theta in (1.0, 2.0):
        vals = [brute_force_objective(prob, theta,
                                      theta_iterate(prob, theta, N))
                for N in range(8)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a * (1 + 1e-10) + 1e-16


def test_spectral_minimizer_beats_any_krylov_member():
    # the spectral route solves the same least-squares problem; its
    # objective can never exceed the tridiagonal route's by more than noise
    rng = np.random.default_rng(31)
    prob = random_problem(rng, 8, lo=1e-2, hi=1e2)
    for theta in (1.0, 2.0):
        for N in (2, 5, 8):
            s = brute_force_objective(
                prob, theta, list(spectral_iterates(prob, theta, N))[N])
            t = brute_force_objective(
                prob, theta, theta_iterate(prob, theta, N))
            assert s <= t * (1 + 1e-6) + 1e-16

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

from powercg.linop import (DiagonalOperator, FourierOperator, MatrixOperator,
                           KernelComponentError, SpectralAccessError)
from powercg.krylov import (ConsistencyError, InverseProblem, JacobiMatrix,
                            lanczos, run_cg, spectral_iterates, theta_iterate)

from mp_reference import brute_force_iterate, brute_force_objective


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


def test_solution_and_error_coefficients():
    prob = two_dim()
    assert np.allclose(prob.solution_coefficients(), [1.0, 1.0])
    e0 = prob.error_coefficients(prob.f0)
    assert np.allclose(e0, [-1.0, -1.0])
    # kernel entries stay exactly zero on an operator with a kernel
    op = FourierOperator(16, 4.0, shift=0.0)
    x = op.grid()
    g = np.sin(2 * np.pi * x / 4.0)
    p = InverseProblem(op, g=g)
    e = p.error_coefficients(np.ones(16))
    assert e[op.kernel_mask()] == pytest.approx(0.0, abs=0.0)


# run_cg ---------------------------------------------------------------------

def test_cg_hand_first_step():
    hist = run_cg(two_dim(), 2)
    assert np.allclose(hist.iterates[0], [0.0, 0.0])
    assert np.allclose(hist.iterates[1], [5.0 / 9.0, 10.0 / 9.0],
                       rtol=0, atol=1e-14)
    assert np.allclose(hist.iterates[2], [1.0, 1.0], rtol=0, atol=1e-12)
    assert np.allclose(hist.residuals[0], [-1.0, -2.0])


def test_cg_finite_termination_and_reason():
    rng = np.random.default_rng(7)
    prob = random_problem(rng, 6)
    hist = run_cg(prob, 6)
    assert hist.terminated and hist.reason.startswith("converged at N=")
    assert np.linalg.norm(hist.last - prob.known_solution) < 1e-9


def test_cg_zero_residual_start():
    op = DiagonalOperator(np.array([1.0, 2.0]))
    prob = InverseProblem(op, g=np.array([1.0, 2.0]), f0=np.array([1.0, 1.0]))
    hist = run_cg(prob, 2)
    assert hist.terminated and hist.reason == "converged at N=0"
    assert len(hist) == 1


def test_cg_breakdown_on_near_null_direction():
    # once the two healthy components have converged the remaining search
    # direction lies along the 1e-15 eigenvalue; with the convergence test
    # disabled the step must stop on the vanishing curvature rather than
    # divide by it
    op = DiagonalOperator(np.array([1e-15, 1.0, 2.0]))
    prob = InverseProblem(op, g=np.array([1e-15, 1.0, 2.0]))
    hist = run_cg(prob, 3, tol_rel=0.0, tol_abs=0.0)
    assert hist.terminated and hist.reason.startswith("breakdown at N=2")
    assert len(hist) == 3
    assert np.allclose(hist.last[1:], [1.0, 1.0], atol=1e-12)


def test_cg_rejects_n_max_beyond_dimension():
    with pytest.raises(ValueError, match="exceeds dimension"):
        run_cg(two_dim(), 3)


# lanczos --------------------------------------------------------------------

def test_lanczos_basis_and_projection():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((8, 8))
    M = M @ M.T + 8 * np.eye(8)
    op = MatrixOperator(M)
    b = rng.standard_normal(8)
    T, V, brk = lanczos(op, b, 6)
    assert not brk
    assert np.allclose(V.T @ V, np.eye(6), atol=1e-12)
    assert np.allclose(V.T @ (M @ V), T.dense(), atol=1e-10 * np.linalg.norm(M))
    assert np.allclose(V[:, 0], b / np.linalg.norm(b))


def test_lanczos_breakdown_flag():
    op = DiagonalOperator(np.array([1.0, 1.0, 2.0]))
    T, V, brk = lanczos(op, np.array([1.0, 1.0, 1.0]), 3)
    assert brk and T.order == 2 and V.shape == (3, 2)


def test_lanczos_validation():
    op = DiagonalOperator(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="zero"):
        lanczos(op, np.zeros(2), 1)
    with pytest.raises(ValueError, match="exceeds dimension"):
        lanczos(op, np.ones(2), 3)


def dense_problem(seed, dim=24):
    """Seeded A = Q diag(lam) Q^T with one kernel direction, lam log-uniform
    on [1e-4, 1], solution in the range."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lam = np.exp(rng.uniform(np.log(1e-4), 0.0, dim))
    lam[0] = 0.0
    coeff = rng.standard_normal(dim)
    coeff[0] = 0.0
    M = (q * lam) @ q.T
    return InverseProblem(MatrixOperator(M), g=M @ (q @ coeff))


def assert_same_lanczos(short, long, k):
    (T, V, _), (TL, VL, _) = short, long
    assert np.array_equal(T.alphas, TL.alphas[:k])
    assert np.array_equal(T.betas, TL.betas[:k - 1])
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
    assert full[2]
    for k in (1, 2):
        short = lanczos(op, start, k)
        assert not short[2]
        assert_same_lanczos(short, full, k)


def test_jacobi_matrix_validates_offdiagonal():
    with pytest.raises(ValueError, match="positive"):
        JacobiMatrix(np.ones(3), np.array([1.0, -0.5]))


def test_ritz_values_match_polynomial_zeros():
    # the xi = 1 orthogonality measure is the residual's spectral measure,
    # so the zeros of its polynomials are the Lanczos Ritz values of A
    # started from R0
    from scipy.linalg import eigh_tridiagonal
    from powercg.measures import spectral_measure, weight_by_power
    from powercg.orthopoly import residual_polynomials

    rng = np.random.default_rng(5)
    prob = random_problem(rng, 8)
    R0 = prob.residual0()
    T, V, _ = lanczos(prob.operator, R0, 8)
    nu = weight_by_power(spectral_measure(prob.operator, R0), 0.0)
    polys = residual_polynomials(nu, 8)
    for N in range(1, 9):
        ritz = np.sort(eigh_tridiagonal(T.alphas[:N], T.betas[:N - 1],
                                        eigvals_only=True))
        assert np.allclose(polys[N].zeros, ritz, rtol=1e-8, atol=0)


# theta_iterate --------------------------------------------------------------

def test_theta_one_hand_value():
    prob = two_dim()
    assert np.allclose(theta_iterate(prob, 1, 1), [5.0 / 9.0, 10.0 / 9.0],
                       rtol=0, atol=1e-13)


def test_theta_two_hand_value():
    prob = two_dim()
    want = [9.0 / 17.0, 18.0 / 17.0]
    assert np.allclose(theta_iterate(prob, 2, 1), want, rtol=0, atol=1e-13)
    assert np.allclose(spectral_iterates(prob, 2.0, 1)[1], want,
                       rtol=0, atol=1e-13)


def test_theta_zero_hand_value():
    # minimize (y+1)^2 + (2y+1)^2 over f = y (1, 2): y = -3/5
    prob = two_dim()
    want = [0.6, 1.2]
    assert np.allclose(theta_iterate(prob, 0, 1), want, rtol=0, atol=1e-13)
    assert np.allclose(spectral_iterates(prob, 0.0, 1)[1], want,
                       rtol=0, atol=1e-13)


def test_theta_one_equals_cg_path():
    rng = np.random.default_rng(13)
    for _ in range(5):
        dim = int(rng.integers(2, 9))
        prob = random_problem(rng, dim)
        hist = run_cg(prob, dim, tol_rel=0.0)
        for N in range(1, len(hist)):
            fN = theta_iterate(prob, 1, N)
            scale = max(np.linalg.norm(hist.iterates[N]), 1e-30)
            assert np.linalg.norm(fN - hist.iterates[N]) <= 1e-10 * scale


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
    # one problem keeps one Lanczos recurrence for every call: the order of
    # the calls must not show in any iterate
    want = {(theta, N): theta_iterate(dense_problem(47), theta, N)
            for theta in (1, 2, 3) for N in range(1, 21)}
    orders = [[(2, N) for N in range(1, 21)],
              [(3, N) for N in range(20, 0, -1)],
              [(theta, N) for N in (7, 20, 1, 13, 4, 18, 9)
               for theta in (3, 1, 2)]]
    for calls in orders:
        prob = dense_problem(47)
        for theta, N in calls:
            assert np.array_equal(theta_iterate(prob, theta, N),
                                  want[theta, N]), (theta, N)


def test_theta_iterate_follows_changed_data():
    # a new f0 or g is a new R0: results must match a fresh problem's
    rng = np.random.default_rng(53)
    prob = dense_problem(53)
    op = prob.operator
    for N in (3, 9):
        theta_iterate(prob, 2, N)
    f0 = rng.standard_normal(prob.dimension)
    prob.f0 = f0
    fresh = InverseProblem(op, g=prob.g, f0=f0)
    for N in (2, 11):
        assert np.array_equal(theta_iterate(prob, 2, N),
                              theta_iterate(fresh, 2, N))
    g = op.apply(rng.standard_normal(prob.dimension))
    prob.g = g
    fresh = InverseProblem(op, g=g, f0=f0)
    for N in (5, 12):
        assert np.array_equal(theta_iterate(prob, 3, N),
                              theta_iterate(fresh, 3, N))
    prob.f0[0] += 1.0
    fresh = InverseProblem(op, g=g, f0=prob.f0.copy())
    assert np.array_equal(theta_iterate(prob, 2, 6),
                          theta_iterate(fresh, 2, 6))


def test_theta_series_extends_one_lanczos_basis():
    # N = 1..K at theta = 2: K + 2 Lanczos applies in all, plus one apply
    # per call for R0, where rebuilding per N would cost O(K^2)
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
    assert op.applies == (K + 2) + K


def test_theta_iterate_against_brute_force():
    rng = np.random.default_rng(19)
    for _ in range(6):
        dim = int(rng.integers(2, 9))
        prob = random_problem(rng, dim, lo=0.1, hi=10.0)
        for theta in (1.0, 2.0):
            for N in range(1, dim + 1):
                got = brute_force_objective(
                    prob, theta, theta_iterate(prob, theta, N))
                want = brute_force_objective(
                    prob, theta, brute_force_iterate(prob, theta, N))
                assert got <= want * (1 + 1e-8) + 1e-14
                assert abs(got - want) <= 1e-8 * max(want, 1e-14)


def test_fractional_theta_against_brute_force():
    rng = np.random.default_rng(23)
    prob = random_problem(rng, 6, lo=0.2, hi=5.0)
    for theta in (0.5, 1.5):
        for N in (1, 2, 4, 6):
            f = theta_iterate(prob, theta, N)
            # non-integer theta takes the spectral route
            assert np.array_equal(f, spectral_iterates(prob, theta, N)[N])
            got = brute_force_objective(prob, theta, f)
            want = brute_force_objective(
                prob, theta, brute_force_iterate(prob, theta, N))
            assert abs(got - want) <= 1e-8 * max(want, 1e-14)


def test_spectral_iterates_against_brute_force_past_breakdown():
    # zero initial error on 4 of 8 atoms: the ladder degenerates at degree
    # 4 and degrees 5..8 must repeat the terminated minimizer
    rng = np.random.default_rng(37)
    lam = np.sort(rng.uniform(0.1, 10.0, 8))
    e0 = rng.standard_normal(8)
    e0[::2] = 0.0
    prob = InverseProblem(DiagonalOperator(lam), g=-lam * e0,
                          known_solution=-e0)
    for theta in (1.0, 2.0):
        floor = 1e-12 * brute_force_objective(prob, theta, prob.f0)
        iterates = spectral_iterates(prob, theta, 8)
        assert len(iterates) == 9
        for N, f in enumerate(iterates):
            got = brute_force_objective(prob, theta, f)
            want = brute_force_objective(
                prob, theta, brute_force_iterate(prob, theta, N))
            assert abs(got - want) <= 1e-8 * max(want, floor), (theta, N)
            assert np.array_equal(f, spectral_iterates(prob, theta, N)[N])


def test_theta_iterate_validation():
    prob = two_dim()
    with pytest.raises(ValueError, match=">= 0"):
        theta_iterate(prob, -1.0, 1)
    with pytest.raises(ValueError, match="exceeds dimension"):
        theta_iterate(prob, 1, 3)
    assert np.array_equal(theta_iterate(prob, 1, 0), prob.f0)
    mat = InverseProblem(MatrixOperator(np.diag([1.0, 2.0])),
                         g=np.array([1.0, 2.0]))
    with pytest.raises(SpectralAccessError):
        theta_iterate(mat, 0.5, 1)
    with pytest.raises(SpectralAccessError):
        theta_iterate(mat, 1.5, 1)
    with pytest.raises(SpectralAccessError):
        spectral_iterates(mat, 1.0, 1)
    with pytest.raises(ValueError, match=">= 0"):
        spectral_iterates(prob, -0.5, 1)


def test_theta_iterate_at_solution_returns_f0():
    op = DiagonalOperator(np.array([1.0, 2.0]))
    prob = InverseProblem(op, g=np.array([1.0, 2.0]), f0=np.array([1.0, 1.0]))
    assert np.array_equal(theta_iterate(prob, 2, 1), prob.f0)


def test_kernel_component_of_f0_is_preserved():
    op = FourierOperator(32, 4.0, shift=0.0)
    x = op.grid()
    g = np.sin(2 * np.pi * x / 4.0) * (2 * np.pi / 4.0) ** 2
    f0 = np.full(32, 0.7)
    prob = InverseProblem(op, g=g, f0=f0)
    for N in (1, 3):
        for f in (theta_iterate(prob, 1, N),
                  spectral_iterates(prob, 2.0, N)[N]):
            assert abs(f.mean() - 0.7) < 1e-12
    hist = run_cg(prob, 4)
    assert abs(hist.last.mean() - 0.7) < 1e-12


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
                prob, theta, spectral_iterates(prob, theta, N)[N])
            t = brute_force_objective(
                prob, theta, theta_iterate(prob, theta, N))
            assert s <= t * (1 + 1e-6) + 1e-16

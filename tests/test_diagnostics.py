"""Error functionals and rate monitors.

The hand problem is diag(1, 2) with g = (1, 2): solution (1, 1), and the
energy-norm minimizer at N = 1 is (5/9, 10/9) with error (-4/9, 1/9), so
rho_0 = 17/81, rho_1 = 2/9, rho_2 = 20/81 as exact fractions.
"""

import gc

import numpy as np
import pytest

from powercg.diagnostics import (ConvergenceRecord, np_rate_monitor, rho,
                                 rho_evaluator)
from powercg.krylov import InverseProblem, run_cg, theta_iterate
from powercg.linop import (DiagonalOperator, FourierOperator, MatrixOperator,
                           KernelComponentError, SpectralAccessError)

from mp_reference import benchmark_dense_case, exact_residual_sq


def two_dim():
    op = DiagonalOperator(np.array([1.0, 2.0]))
    return InverseProblem(op, g=np.array([1.0, 2.0]))


F1 = np.array([5.0 / 9.0, 10.0 / 9.0])


def test_rho_hand_values():
    prob = two_dim()
    assert rho(prob, F1, 0) == pytest.approx(17.0 / 81.0, rel=1e-14)
    assert rho(prob, F1, 1) == pytest.approx(2.0 / 9.0, rel=1e-14)
    assert rho(prob, F1, 2) == pytest.approx(20.0 / 81.0, rel=1e-14)
    z = np.zeros(2)
    assert rho(prob, z, 0) == pytest.approx(2.0, rel=1e-14)
    assert rho(prob, z, 1) == pytest.approx(3.0, rel=1e-14)
    assert rho(prob, z, 2) == pytest.approx(5.0, rel=1e-14)
    # negative exponent, kernel-free operator: sum lambda^-1 |e|^2
    assert rho(prob, z, -1) == pytest.approx(1.5, rel=1e-14)
    # one atom: A = 4, g = 2, e0 = -1/2, so rho_-1 = 4^-1 * 1/4
    one = InverseProblem(DiagonalOperator(np.array([4.0])), g=np.array([2.0]))
    assert rho(one, np.zeros(1), -1) == 0.0625
    # a non-finite exponent is refused, not returned as inf or nan
    three = InverseProblem(DiagonalOperator(np.array([1.0, 2.0, 3.0])),
                           g=np.array([1.0, 2.0, 3.0]))
    for sigma in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite exponent"):
            rho(three, np.zeros(3), sigma)
        with pytest.raises(ValueError, match="finite exponent"):
            rho_evaluator(three, (0.0, sigma))


def test_rho_two_is_recomputed_residual():
    rng = np.random.default_rng(41)
    M = rng.standard_normal((6, 6))
    M = M @ M.T + 6 * np.eye(6)
    g = rng.standard_normal(6)
    prob = InverseProblem(MatrixOperator(M), g=g)
    x = rng.standard_normal(6)
    want = float(np.linalg.norm(M @ x - g) ** 2)
    assert rho(prob, x, 2) == pytest.approx(want, rel=1e-13)


def test_rho_spectral_and_matrix_free_agree():
    rng = np.random.default_rng(43)
    lam = np.sort(rng.uniform(0.5, 4.0, 6))
    sol = rng.standard_normal(6)
    spec = InverseProblem(DiagonalOperator(lam), g=lam * sol)
    mat = InverseProblem(MatrixOperator(np.diag(lam)), g=lam * sol,
                         known_solution=sol)
    x = rng.standard_normal(6)
    for sigma in (0, 1, 2):
        assert rho(spec, x, sigma) == pytest.approx(rho(mat, x, sigma),
                                                    rel=1e-12)


def test_rho_matrix_free_needs_solution_and_integer_sigma():
    op = MatrixOperator(np.diag([1.0, 2.0]))
    prob = InverseProblem(op, g=np.array([1.0, 2.0]))
    with pytest.raises(SpectralAccessError):
        rho(prob, np.zeros(2), 0.5)
    with pytest.raises(ValueError, match="known_solution"):
        rho(prob, np.zeros(2), 0)
    # refused at construction, before any iterate is evaluated
    with pytest.raises(SpectralAccessError):
        rho_evaluator(prob, (0.5,))
    with pytest.raises(ValueError, match="known_solution"):
        rho_evaluator(prob, (0.0,))
    withsol = InverseProblem(op, g=np.array([1.0, 2.0]),
                             known_solution=np.ones(2))
    assert rho(withsol, np.zeros(2), 0) == pytest.approx(2.0)
    assert rho(withsol, np.zeros(2), 1) == pytest.approx(3.0)


def test_matrix_free_rho_takes_one_apply_per_iterate(monkeypatch):
    # sigma = 1 and 2 read one image A (f - s) per iterate, kept from the
    # first read to the second: a sigma-major loop of rho calls and an
    # evaluator of (0, 1, 2) each apply A once per iterate, rho0 and rho1
    # are d.d and d.(M d), and rho2 = ||A d + (A s - g)||^2 stays at the
    # exact residual of the float iterate
    applies = []
    apply = MatrixOperator._apply

    def spy(self, x):
        applies.append(None)
        return apply(self, x)
    monkeypatch.setattr(MatrixOperator, "_apply", spy)

    def series(prob):
        # N = 38..40 repeat degree 37, past the positive-definite prefix
        return {theta: [theta_iterate(prob, theta, N) for N in range(41)]
                for theta in (1, 2, 3)}

    sigmas = (0.0, 1.0, 2.0)
    table = {}
    for by_sigma in (True, False):
        prob = benchmark_dense_case(40, 3, 0)
        for theta, fs in series(prob).items():
            applies.clear()
            if by_sigma:
                vals = {s: [rho(prob, f, s) for f in fs] for s in sigmas}
            else:
                rho_of = rho_evaluator(prob, sigmas)
                evals = [rho_of(f) for f in fs]
                vals = {s: [e[s] for e in evals] for s in sigmas}
            assert len(applies) == len(fs), (by_sigma, theta)
            # sigma = 2 read every image sigma = 1 made
            assert not prob._images
            # both ways give the same bits, as the iterates are the same
            assert table.setdefault(theta, vals) == vals, theta

    M, sol, g = prob.operator.matrix, prob.known_solution, prob.g
    residual_sq = exact_residual_sq(M, g)
    for theta, fs in series(prob).items():
        vals = table[theta]
        floor = 1e-12 * residual_sq(fs[0])
        for N, f in enumerate(fs):
            d = f - sol
            assert vals[0.0][N] == float(np.dot(d, d)), (theta, N)
            assert vals[1.0][N] == float(np.dot(d, M @ d)), (theta, N)
            want = residual_sq(f)
            assert abs(vals[2.0][N] - want) <= 1e-9 * max(want, floor), (
                theta, N)

    # an image no second read takes lives as long as its vector
    fs = [theta_iterate(prob, 2, N) for N in range(30)]
    applies.clear()
    for f in fs:
        rho(prob, f, 1)
    assert len(applies) == len(prob._images) == 30
    del fs, f
    gc.collect()
    assert not prob._images

    # a vector changed in place is measured afresh; a strided view of the
    # same values reads the same image
    x = theta_iterate(prob, 2, 5)
    applies.clear()
    first = rho(prob, x, 1)
    x *= 0.5
    d = x - sol
    assert rho(prob, x, 1) == float(np.dot(d, M @ d)) != first
    assert len(applies) == 2
    view = np.repeat(x, 2)[::2]
    assert rho(prob, view, 2) == rho(prob, x.copy(), 2)
    assert len(applies) == 3
    del x, view
    gc.collect()
    assert not prob._images

    # without a known solution, s = 0: rho2 is ||M x - g||^2 bit for bit
    prob = benchmark_dense_case(40, 3, 0, known_solution=False)
    rho_of = rho_evaluator(prob, (2.0,))
    for fs in series(prob).values():
        for f in fs:
            r = M @ f - g
            assert rho_of(f)[2.0] == float(np.dot(r, r))


def test_negative_sigma_kernel_drift_guard():
    op = FourierOperator(16, 4.0, shift=0.0)
    x = op.grid()
    g = np.sin(2 * np.pi * x / 4.0) * (2 * np.pi / 4.0) ** 2
    prob = InverseProblem(op, g=g)
    drifted = np.full(16, 0.3)  # mean differs from f0 = 0
    rho(prob, drifted, 0)  # fine for sigma >= 0
    with pytest.raises(KernelComponentError, match="kernel drift"):
        rho(prob, drifted, -1)


def records_from(rho1_series, rho0_at_0=1.0):
    recs = [ConvergenceRecord(N=0, rho={0.0: rho0_at_0, 1.0: 1.0},
                              n_sq_rho1=0.0)]
    for N, v in enumerate(rho1_series, start=1):
        recs.append(ConvergenceRecord(N=N, rho={0.0: 1.0, 1.0: v},
                                      n_sq_rho1=N * N * v))
    return recs


def test_rate_monitor_bounded_series():
    # rho_1(N) = (2N+1)^-2 makes the monitored series exactly constant
    series = [(2.0 * N + 1.0) ** -2 for N in range(1, 33)]
    bounded, sup, slope = np_rate_monitor(records_from(series), 0.0, 1.0)
    assert bounded
    assert sup == pytest.approx(1.0, rel=1e-12)
    assert abs(slope) < 1e-10


def test_rate_monitor_unbounded_series():
    bounded, sup, slope = np_rate_monitor(records_from([1.0] * 32), 0.0, 1.0)
    assert not bounded
    assert sup == pytest.approx(65.0 ** 2, rel=1e-12)
    assert slope > 1.5


def test_rate_monitor_ignores_terminated_zeros():
    series = [(2.0 * N + 1.0) ** -2 for N in range(1, 17)] + [0.0] * 16
    bounded, sup, slope = np_rate_monitor(records_from(series), 0.0, 1.0)
    assert bounded and abs(slope) < 1e-10
    allzero = records_from([0.0] * 16)
    bounded, sup, slope = np_rate_monitor(allzero, 0.0, 1.0)
    assert bounded and sup == 0.0 and slope == 0.0


def test_rate_monitor_validation():
    recs = records_from([1.0] * 16)
    with pytest.raises(ValueError, match="sigma"):
        np_rate_monitor(recs, 1.0, 1.0)
    with pytest.raises(ValueError, match="at least 8"):
        np_rate_monitor(recs[:4], 0.0, 1.0)
    with pytest.raises(ValueError, match="N = 0"):
        np_rate_monitor(recs[1:], 0.0, 1.0)
    bad0 = records_from([1.0] * 16, rho0_at_0=0.0)
    with pytest.raises(ValueError, match="positive"):
        np_rate_monitor(bad0, 0.0, 1.0)


def test_convergence_record_validation():
    with pytest.raises(ValueError, match="finite"):
        ConvergenceRecord(N=1, rho={0.0: float("nan")}, n_sq_rho1=0.0)
    with pytest.raises(ValueError, match="finite"):
        ConvergenceRecord(N=1, rho={1.0: -1e-3}, n_sq_rho1=0.0)
    rec = ConvergenceRecord(N=1, rho={0: 1.0, "1": 2.0}, n_sq_rho1=2.0)
    assert rec.rho[0.0] == 1.0 and rec.rho[1.0] == 2.0


def test_rho_along_cg_run_is_monotone_where_minimized():
    rng = np.random.default_rng(47)
    lam = np.sort(rng.uniform(0.1, 10.0, 8))
    sol = rng.standard_normal(8)
    prob = InverseProblem(DiagonalOperator(lam), g=lam * sol)
    hist = run_cg(prob, 8)
    vals = [rho(prob, f, 1) for f in hist.iterates]
    for a, b in zip(vals, vals[1:]):
        assert b <= a * (1 + 1e-12) + 1e-16

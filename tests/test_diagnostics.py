"""Error functionals and rate monitors.

The hand problem is diag(1, 2) with g = (1, 2): solution (1, 1), and the
energy-norm minimizer at N = 1 is (5/9, 10/9) with error (-4/9, 1/9), so
rho_0 = 17/81, rho_1 = 2/9, rho_2 = 20/81 as exact fractions.
"""

import gc
import weakref

import numpy as np
import pytest

from powercg.diagnostics import (ConvergenceRecord, np_rate_monitor, rho,
                                 rho_evaluator)
from powercg.krylov import InverseProblem, run_cg, theta_iterate
from powercg.linop import (DiagonalOperator, DimensionMismatchError,
                           FourierOperator, MatrixOperator,
                           KernelComponentError, SelfAdjointOperator,
                           SpectralAccessError)

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
    # sigma = 0 checks its vector as sigma = 1 and 2 do: a shape that would
    # broadcast against the solution, nan and a complex vector are refused
    dense = benchmark_dense_case(40, 3, 0)
    for x, error, match in (
            (np.ones(1), DimensionMismatchError, "expected shape"),
            (np.array(1.0), DimensionMismatchError, "expected shape"),
            (np.full(40, np.nan), ValueError, "non-finite"),
            (np.ones(40) + 1j, ValueError, "is complex")):
        for sigma in (0, 1, 2):
            with pytest.raises(error, match=match):
                rho(dense, x, sigma)


def spy_on_products(monkeypatch):
    """Record the row count of every MatrixOperator._apply_rows call and
    count its _apply calls."""
    rows, applies = [], []
    apply, apply_rows = MatrixOperator._apply, MatrixOperator._apply_rows

    def spy_rows(self, X):
        rows.append(len(X))
        return apply_rows(self, X)

    def spy(self, x):
        applies.append(None)
        return apply(self, x)
    monkeypatch.setattr(MatrixOperator, "_apply_rows", spy_rows)
    monkeypatch.setattr(MatrixOperator, "_apply", spy)
    return rows, applies


def energy_gap_bound(M, d):
    """2 gamma_n |d|^T |M| |d|, gamma_n = n u / (1 - n u): how far two
    summation orders of d.(M d) may lie apart."""
    n, u = M.shape[0], np.finfo(float).eps / 2
    return 2 * n * u / (1 - n * u) * float(np.abs(d) @ np.abs(M) @ np.abs(d))


def dense_series(prob, theta):
    # N = 38..40 repeat degree 37, past the positive-definite prefix
    return [theta_iterate(prob, theta, N) for N in range(41)]


def test_matrix_free_rho_takes_one_apply_per_iterate(monkeypatch):
    # a miss images every pending iterate in one apply_rows call and keeps
    # each image for sigma = 1 and 2: a series measured after it is made is
    # one product of one row per distinct iterate, whether a sigma-major
    # loop of rho calls or an evaluator of (0, 1, 2) reads it, and the two
    # give the same bits. rho0 is d.d, rho1 d.(M d) up to the summation
    # order, and rho2 = ||A d + (A s - g)||^2 stays at the exact residual
    # of the float iterate
    rows, applies = spy_on_products(monkeypatch)
    sigmas = (0.0, 1.0, 2.0)
    table = {}
    for by_sigma in (True, False):
        prob = benchmark_dense_case(40, 3, 0)
        for theta in (1, 2, 3):
            fs = dense_series(prob, theta)
            distinct = len({f.tobytes() for f in fs})
            assert distinct == 38
            rows.clear()
            applies.clear()
            if by_sigma:
                vals = {s: [rho(prob, f, s) for f in fs] for s in sigmas}
            else:
                rho_of = rho_evaluator(prob, sigmas)
                evals = [rho_of(f) for f in fs]
                vals = {s: [e[s] for e in evals] for s in sigmas}
            assert rows == [distinct] and not applies, (by_sigma, theta)
            # sigma = 2 read every image, four times for degree 37's
            assert not prob._images and not prob._pending
            assert table.setdefault(theta, vals) == vals, theta

    M, sol, g = prob.operator.matrix, prob.known_solution, prob.g
    residual_sq = exact_residual_sq(M, g)
    for theta in (1, 2, 3):
        fs = dense_series(prob, theta)
        vals = table[theta]
        floor = 1e-12 * residual_sq(fs[0])
        for N, f in enumerate(fs):
            d = f - sol
            assert vals[0.0][N] == float(np.dot(d, d)), (theta, N)
            assert abs(vals[1.0][N] - float(np.dot(d, M @ d))) <= (
                energy_gap_bound(M, d)), (theta, N)
            want = residual_sq(f)
            assert abs(vals[2.0][N] - want) <= 1e-9 * max(want, floor), (
                theta, N)

    # an image no second read takes lives as long as its vector
    fs = [theta_iterate(prob, 2, N) for N in range(30)]
    rows.clear()
    for f in fs:
        rho(prob, f, 1)
    assert rows == [30] and len(prob._images) == 30
    del fs, f
    gc.collect()
    assert not prob._images

    # a vector changed in place is measured afresh; a strided view of the
    # same values reads the same image
    x = theta_iterate(prob, 2, 5)
    rows.clear()
    first = rho(prob, x, 1)
    x *= 0.5
    d = x - sol
    again = rho(prob, x, 1)
    assert again != first
    assert abs(again - float(np.dot(d, M @ d))) <= energy_gap_bound(M, d)
    assert rows == [1, 1]
    view = np.repeat(x, 2)[::2]
    assert rho(prob, view, 2) == rho(prob, x.copy(), 2)
    assert rows == [1, 1, 1]
    del x, view
    gc.collect()
    assert not prob._images

    # without a known solution, s = 0: rho2 is ||M x - g||^2 to the same
    # gate
    prob = benchmark_dense_case(40, 3, 0, known_solution=False)
    rho_of = rho_evaluator(prob, (2.0,))
    for theta in (1, 2, 3):
        fs = dense_series(prob, theta)
        floor = 1e-12 * residual_sq(fs[0])
        for f in fs:
            want = residual_sq(f)
            assert abs(rho_of(f)[2.0] - want) <= 1e-9 * max(want, floor)


def test_matrix_free_rho_on_an_apply_only_operator():
    # a user operator that implements _apply alone images a batch row by
    # row, so its rho is the per-vector applies' bit for bit
    class ApplyOnly(SelfAdjointOperator):
        def __init__(self, matrix):
            self.matrix = matrix
            self.dimension = matrix.shape[0]
            self.applies = 0

        def _apply(self, x):
            self.applies += 1
            return self.matrix @ x

        def norm_estimate(self):
            return float(np.linalg.norm(self.matrix, 2))

    dense = benchmark_dense_case(40, 3, 0)
    M, sol = dense.operator.matrix, dense.known_solution
    prob = InverseProblem(ApplyOnly(M), g=dense.g, known_solution=sol)
    residual_s = M @ sol - dense.g
    for theta in (1, 2, 3):
        fs = dense_series(prob, theta)
        prob.operator.applies = 0
        rho_of = rho_evaluator(prob, (0.0, 1.0, 2.0))
        for f in fs:
            d = f - sol
            r = M @ d + residual_s
            assert rho_of(f) == {0.0: float(np.dot(d, d)),
                                 1.0: float(np.dot(d, M @ d)),
                                 2.0: float(np.dot(r, r))}, theta
        assert prob.operator.applies == 38


def test_iterate_registry_is_weak(monkeypatch):
    # the registry of handed-out iterates keeps none alive: a dropped one
    # leaves it and is never imaged, and a pending iterate changed in place
    # to nan does not fail its siblings; spectral problems register nothing
    rows, _ = spy_on_products(monkeypatch)
    prob = benchmark_dense_case(40, 3, 0)
    fs = run_cg(prob, 12).iterates
    assert len(prob._pending) == 13
    dropped = weakref.ref(fs[5])
    key = fs.pop(5).tobytes()
    gc.collect()
    assert dropped() is None and len(prob._pending) == 12
    fs[7][0] = np.nan
    rho(prob, fs[0], 1)
    assert rows == [11] and key not in prob._images
    assert fs[7].tobytes() not in prob._images
    assert not prob._pending
    fs += [theta_iterate(prob, 2, N) for N in range(1, 5)]
    assert len(prob._pending) == 4
    del fs
    gc.collect()
    assert not prob._pending and not prob._images

    # nor does a pending iterate given another shape in place
    prob = benchmark_dense_case(40, 3, 0)
    fs = run_cg(prob, 6).iterates
    fs[3].shape = (20, 2)
    rho(prob, fs[0], 1)
    assert rows == [11, 6] and not prob._pending

    op = DiagonalOperator(np.linspace(0.0, 1.0, 9))
    spectral = InverseProblem(op, g=op.apply(np.ones(9)))
    kept = [theta_iterate(spectral, 2, 3), *run_cg(spectral, 4).iterates]
    assert len(kept) == 6 and not spectral._pending


def test_matrix_free_image_follows_an_in_place_change(monkeypatch):
    # an iterate changed in place after its batch is imaged afresh, alone,
    # and its siblings keep their images
    rows, _ = spy_on_products(monkeypatch)
    prob = benchmark_dense_case(40, 3, 0)
    M, sol = prob.operator.matrix, prob.known_solution
    fs = dense_series(prob, 2)
    before = [rho(prob, f, 1) for f in fs]
    fs[5] *= 0.5
    d = fs[5] - sol
    after = rho(prob, fs[5], 1)
    assert after != before[5]
    assert abs(after - float(np.dot(d, M @ d))) <= energy_gap_bound(M, d)
    assert rows == [38, 1]
    for f in fs:
        rho(prob, f, 2)
    assert rows == [38, 1]
    # what is left is the image of fs[5]'s old bytes, dropped with it
    assert len(prob._images) == 1
    del fs, f
    gc.collect()
    assert not prob._images


def test_negative_sigma_kernel_drift_guard():
    op = FourierOperator(16, 4.0, shift=0.0)
    x = op.grid()
    g = np.sin(2 * np.pi * x / 4.0) * (2 * np.pi / 4.0) ** 2
    prob = InverseProblem(op, g=g)
    drifted = np.full(16, 0.3)  # mean differs from f0 = 0
    rho(prob, drifted, 0)  # fine for sigma >= 0
    with pytest.raises(KernelComponentError, match="kernel drift"):
        rho(prob, drifted, -1)
    # at _KER_DRIFT_REL's boundary: a drift of 1.5e-9 against ||x|| =
    # sqrt(2) raises at 1e-10 (and would pass at 1e-8), one of 1e-11 passes
    # (and would raise at 1e-12)
    prob = InverseProblem(DiagonalOperator([0.0, 1.0, 2.0]),
                          g=[0.0, 1.0, 1.0])
    with pytest.raises(KernelComponentError, match="kernel drift"):
        rho(prob, [1.5e-9, 1.0, 1.0], -1)
    assert rho(prob, [1e-11, 1.0, 1.0], -1) == 0.125


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

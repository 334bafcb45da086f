"""Error functionals and rate monitors.

The hand problem is diag(1, 2) with g = (1, 2): solution (1, 1), and the
energy-norm minimizer at N = 1 is (5/9, 10/9) with error (-4/9, 1/9), so
rho_0 = 17/81, rho_1 = 2/9, rho_2 = 20/81 as exact fractions.
"""

import numpy as np
import pytest

from powercg.diagnostics import (ConvergenceRecord, class_membership_indicator,
                                 np_rate_monitor, rho)
from powercg.krylov import InverseProblem, run_cg
from powercg.linop import (DiagonalOperator, FourierOperator, MatrixOperator,
                           KernelComponentError, SpectralAccessError)


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
    withsol = InverseProblem(op, g=np.array([1.0, 2.0]),
                             known_solution=np.ones(2))
    assert rho(withsol, np.zeros(2), 0) == pytest.approx(2.0)
    assert rho(withsol, np.zeros(2), 1) == pytest.approx(3.0)


def test_negative_sigma_kernel_drift_guard():
    op = FourierOperator(16, 4.0, shift=0.0)
    x = op.grid()
    g = np.sin(2 * np.pi * x / 4.0) * (2 * np.pi / 4.0) ** 2
    prob = InverseProblem(op, g=g)
    drifted = np.full(16, 0.3)  # mean differs from f0 = 0
    rho(prob, drifted, 0)  # fine for sigma >= 0
    with pytest.raises(KernelComponentError, match="kernel drift"):
        rho(prob, drifted, -1)


def test_class_membership_indicator():
    op = DiagonalOperator(np.array([4.0]))
    prob = InverseProblem(op, g=np.array([2.0]))
    member, mag = class_membership_indicator(prob, np.zeros(1), -1.0)
    assert member and mag == pytest.approx(0.0625, rel=1e-14)

    ker_op = FourierOperator(16, 4.0, shift=0.0)
    x = ker_op.grid()
    g = np.sin(2 * np.pi * x / 4.0) * (2 * np.pi / 4.0) ** 2
    kprob = InverseProblem(ker_op, g=g)
    sol = np.sin(2 * np.pi * x / 4.0)
    ok, _ = class_membership_indicator(kprob, sol + 0.5, -1.0)
    assert not ok  # constant offset lives in the kernel
    ok, _ = class_membership_indicator(kprob, sol + 0.5, 0.0)
    assert ok  # sigma >= 0 admits everything
    ok, _ = class_membership_indicator(
        kprob, sol + 0.1 * np.sin(4 * np.pi * x / 4.0), -2.0)
    assert ok
    with pytest.raises(SpectralAccessError):
        class_membership_indicator(
            InverseProblem(MatrixOperator(np.eye(2)), g=np.ones(2)),
            np.ones(2), -1.0)


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
    hist = run_cg(prob, 8, tol_rel=0.0)
    vals = [rho(prob, f, 1) for f in hist.iterates]
    for a, b in zip(vals, vals[1:]):
        assert b <= a * (1 + 1e-12) + 1e-16

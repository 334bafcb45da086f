import numpy as np
import pytest

import powercg as pc
from powercg.linop import DimensionMismatchError


def test_diagonal_apply_hand():
    op = pc.DiagonalOperator(np.array([1.0, 2.0, 5.0]))
    assert np.array_equal(op.apply(np.array([1.0, 1.0, 1.0])),
                          [1.0, 2.0, 5.0])
    assert op.norm_estimate() == 5.0
    assert op.spectral


def test_diagonal_requires_ascending():
    with pytest.raises(ValueError):
        pc.DiagonalOperator(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        pc.DiagonalOperator(np.array([-1.0, 1.0]))


def test_diagonal_coefficients_identity():
    op = pc.DiagonalOperator(np.array([1.0, 3.0]))
    x = np.array([0.5, -2.0])
    assert np.array_equal(op.coefficients(x), x)
    assert np.array_equal(op.from_coefficients(x), x)


def test_matrix_operator_against_dense():
    rng = np.random.default_rng(1)
    B = rng.standard_normal((6, 6))
    M = B @ B.T
    op = pc.MatrixOperator(M)
    x = rng.standard_normal(6)
    assert np.allclose(op.apply(x), M @ x, atol=1e-12)
    top = np.linalg.eigvalsh(M)[-1]
    assert abs(op.norm_estimate() - top) <= 1e-3 * top
    assert not op.spectral


def test_matrix_operator_rejects_asymmetry():
    with pytest.raises(ValueError):
        pc.MatrixOperator(np.array([[2.0, 1.0], [0.0, 2.0]]))
    # roundoff-level asymmetry is averaged away, not rejected
    M = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
    op = pc.MatrixOperator(M)
    assert op.matrix[0, 1] == op.matrix[1, 0]


def test_fourier_eigenvalues_formula():
    n, L, shift = 16, 2.5, 1.0
    op = pc.FourierOperator(n, L, shift=shift)
    lam = op.eigenvalues()
    for m in range(n):
        mm = m if m < n // 2 else m - n
        want = (np.pi * mm / L) ** 2 + shift
        assert abs(lam[m] - want) < 1e-12 * max(1.0, want)


def test_fourier_grid():
    op = pc.FourierOperator(8, 2.0)
    x = op.grid()
    assert x[0] == -2.0
    assert np.allclose(np.diff(x), 0.5)
    assert x[-1] == 1.5  # right endpoint excluded


def test_fourier_eigenfunction_oracle():
    # sin(k pi x / L) is an exact eigenfunction of -d2/dx2 + shift
    n, L, shift = 64, 3.0, 1.0
    op = pc.FourierOperator(n, L, shift=shift)
    x = op.grid()
    for k in (1, 3, 7):
        u = np.sin(k * np.pi * x / L)
        lam = (k * np.pi / L) ** 2 + shift
        assert np.allclose(op.apply(u), lam * u, atol=1e-10 * lam)


def test_fourier_validation():
    with pytest.raises(ValueError):
        pc.FourierOperator(12, 1.0)  # not a power of two
    with pytest.raises(ValueError):
        pc.FourierOperator(16, -1.0)
    with pytest.raises(ValueError):
        pc.FourierOperator(16, 1.0, shift=-0.5)


def test_fourier_coefficients_hermitian_for_real_input():
    op = pc.FourierOperator(32, 5.0, shift=1.0)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(32)
    c = op.coefficients(x)
    idx = (-np.arange(32)) % 32
    # exact, not approximate: the conjugate mirror is built in
    assert np.array_equal(c, np.conj(c[idx]))
    assert c[0].imag == 0.0 and c[16].imag == 0.0
    back = op.from_coefficients(c)
    assert np.isrealobj(back)
    assert np.allclose(back, x, atol=1e-12)


def test_fourier_complex_coefficient_round_trip():
    op = pc.FourierOperator(16, 1.0)
    rng = np.random.default_rng(4)
    z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    back = op.from_coefficients(op.coefficients(z))
    assert np.allclose(back, z, atol=1e-12)


def test_kernel_mask():
    op = pc.FourierOperator(32, 2.0, shift=0.0)
    mask = op.kernel_mask()
    assert mask.sum() == 1 and mask[0]
    op2 = pc.FourierOperator(32, 2.0, shift=1.0)
    assert op2.kernel_mask().sum() == 0
    d = pc.DiagonalOperator(np.array([0.0, 1e-20, 1.0]))
    assert d.kernel_mask().tolist() == [True, True, False]


def test_dimension_mismatch():
    op = pc.DiagonalOperator(np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatchError):
        op.apply(np.ones(3))
    fo = pc.FourierOperator(8, 1.0)
    with pytest.raises(DimensionMismatchError):
        fo.from_coefficients(np.ones(9))


def test_symmetry_and_nonnegativity_sweep():
    rng = np.random.default_rng(20260814)
    ops = [pc.DiagonalOperator(np.sort(rng.uniform(0, 10, 7))),
           pc.FourierOperator(64, 3.0, shift=0.0),
           pc.MatrixOperator((lambda B: B @ B.T)(rng.standard_normal((5, 5))))]
    for op in ops:
        for _ in range(5):
            x = rng.standard_normal(op.dimension)
            y = rng.standard_normal(op.dimension)
            ax = op.apply(x)
            sym = abs(np.dot(ax, y) - np.dot(x, op.apply(y)))
            assert sym <= 1e-10 * (np.linalg.norm(ax) * np.linalg.norm(y) + 1)
            assert np.dot(ax, x) >= -1e-10 * np.dot(x, x) * op.norm_estimate()

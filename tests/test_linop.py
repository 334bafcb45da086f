import numpy as np
import pytest

import powercg as pc
from powercg.linop import DimensionMismatchError, SpectralAccessError


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
    # a real field takes the real-FFT route: a real array, within roundoff
    # of the complex DFT route
    rng = np.random.default_rng(5)
    for x in (rng.standard_normal(n), np.exp(-op.grid() ** 2)):
        got = op.apply(x)
        assert np.isrealobj(got)
        lam = op.eigenvalues()
        want = np.fft.ifft(lam * np.fft.fft(x)).real
        assert (np.abs(got - want).max()
                <= 1e-13 * np.abs(lam).max() * np.linalg.norm(x))


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
    # exactly hermitian input, built by hand: the real route from the half
    # spectrum
    h = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    h[0] = h[0].real
    h[16] = h[16].real
    c = np.concatenate([h, np.conj(h[1:16][::-1])])
    assert np.array_equal(c, np.conj(c[idx]))
    back = op.from_coefficients(c)
    assert np.isrealobj(back)
    assert np.array_equal(back, np.fft.irfft(h * np.sqrt(32), 32))
    # a one-ulp break of the mirror names no real field: it raises, and no
    # tolerance rounds it back to one
    c[20] = np.nextafter(c[20].real, np.inf) + 1j * c[20].imag
    with pytest.raises(ValueError, match="conjugate-symmetric"):
        op.from_coefficients(c)


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
    # both spectral operators: a wrong shape is a DimensionMismatchError on
    # every route, a complex field a ValueError of its own
    for op in (pc.DiagonalOperator(np.arange(8.0)), fo):
        for method in (op.apply, op.coefficients, op.from_coefficients):
            for bad in (np.ones(7), np.ones((8, 1)), np.ones((2, 8))):
                with pytest.raises(DimensionMismatchError):
                    method(bad)
        for method in (op.apply, op.coefficients):
            with pytest.raises(ValueError, match="is complex") as info:
                method(np.ones(8) + 1e-300j)
            assert info.type is ValueError
    # diagonal coefficients are coordinates, so they are a real field too;
    # Fourier coefficients are complex and must mirror exactly
    with pytest.raises(ValueError, match="is complex"):
        pc.DiagonalOperator(np.arange(8.0)).from_coefficients(np.ones(8) + 1j)
    with pytest.raises(ValueError, match="conjugate-symmetric"):
        fo.from_coefficients(np.ones(8) + 1j)


@pytest.mark.parametrize("make, error, match", [
    (lambda: pc.DiagonalOperator(np.ones(3)).apply([1.0, np.nan, 0.0]),
     ValueError, "non-finite"),
    (lambda: pc.FourierOperator(4, 1.0).coefficients([0.0, np.inf, 0, 0]),
     ValueError, "non-finite"),
    (lambda: pc.FourierOperator(4, 1.0).from_coefficients(
        [np.nan, 0, 0, 0]), ValueError, "non-finite"),
    (lambda: pc.DiagonalOperator(np.ones((2, 2))), ValueError, "1-d"),
    (lambda: pc.DiagonalOperator([1.0, np.inf]), ValueError, "finite"),
    (lambda: pc.DiagonalOperator([np.nan, 1.0]), ValueError, "finite"),
    (lambda: pc.MatrixOperator(np.ones((2, 3))), ValueError, "square"),
    (lambda: pc.MatrixOperator(np.ones(3)), ValueError, "square"),
    # a non-finite entry is refused for what it is, before any symmetry test
    (lambda: pc.MatrixOperator([[np.inf, 0.0], [0.0, 1.0]]), ValueError,
     "non-finite"),
    (lambda: pc.MatrixOperator([[1.0, np.nan], [0.0, 1.0]]), ValueError,
     "non-finite"),
    (lambda: pc.DiagonalOperator(np.ones(3)).from_coefficients(np.ones(2)),
     DimensionMismatchError, "expected shape"),
    (lambda: pc.MatrixOperator(np.eye(2)).coefficients(np.ones(2)),
     SpectralAccessError, "no spectral access"),
], ids=["non-finite-apply", "non-finite-coefficients",
        "non-finite-from-coefficients", "diagonal-not-1d",
        "diagonal-infinite", "diagonal-nan", "matrix-not-square",
        "matrix-not-2d", "matrix-infinite", "matrix-nan",
        "diagonal-from-coefficients-shape", "matrix-no-spectral-access"])
def test_operator_safety_branches(make, error, match):
    with pytest.raises(error, match=match) as info:
        make()
    assert info.type is error


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

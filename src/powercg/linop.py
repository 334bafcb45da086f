"""Self-adjoint non-negative operators with optional spectral access.

Three concrete operators: dense symmetric matrices (apply-only), diagonal
matrices (trivial spectral access), and periodic constant-coefficient
differential surrogates diagonalized by the FFT.
"""

import numpy as np

# eigenvalues at or below KERNEL_REL * ||A|| are treated as kernel
KERNEL_REL = 1e-12


class DimensionMismatchError(ValueError):
    pass


class KernelComponentError(ValueError):
    pass


class SpectralAccessError(TypeError):
    """Raised when an operation needs eigendata the operator cannot provide."""


def _as_vector(x, dim, who):
    """x as an array, checked for shape (dim,), a real dtype and finite
    entries."""
    x = np.asarray(x)
    if x.shape != (dim,):
        raise DimensionMismatchError(
            f"{who}: expected shape ({dim},), got {x.shape}")
    if np.iscomplexobj(x):
        raise ValueError(f"{who} is complex, expected a real vector")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{who} contains non-finite entries")
    return x


class SelfAdjointOperator:
    """Base class. Subclasses set .dimension and implement _apply, and may
    implement _apply_rows (the rows A x of an unchecked (k, dimension) stack)
    faster. Spectral ones also implement eigenvalues, _coefficients, the
    real coordinates in an orthonormal eigenbasis (coefficients(x)[j]
    belongs to eigenvalues()[j]), and its inverse _from_coefficients. The
    public methods check their input once, here."""

    spectral = False
    dimension = None

    def _apply(self, x):
        raise NotImplementedError

    def apply(self, x):
        x = _as_vector(x, self.dimension, type(self).__name__ + ".apply")
        return self._apply(x)

    def _apply_rows(self, X):
        out = np.empty(X.shape)
        for i, x in enumerate(X):
            out[i] = self._apply(x)
        return out

    def norm_estimate(self):
        """Upper spectral edge, within about 1 percent."""
        raise NotImplementedError

    # spectral-only interface
    def eigenvalues(self):
        raise SpectralAccessError(
            f"{type(self).__name__} has no spectral access")

    def _coefficients(self, x):
        raise SpectralAccessError(
            f"{type(self).__name__} has no spectral access")

    _from_coefficients = _coefficients

    def coefficients(self, x):
        return self._coefficients(_as_vector(
            x, self.dimension, type(self).__name__ + ".coefficients"))

    def from_coefficients(self, c):
        return self._from_coefficients(_as_vector(
            c, self.dimension, type(self).__name__ + ".from_coefficients"))

    def kernel_mask(self):
        """Boolean mask of eigenvalues treated as zero."""
        lam = self.eigenvalues()
        return lam <= KERNEL_REL * self.norm_estimate()


class MatrixOperator(SelfAdjointOperator):
    """Dense symmetric non-negative matrix, apply-only access."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix contains non-finite entries")
        if np.abs(m - m.T).max() > 1e-12 * np.abs(m).max():
            raise ValueError("matrix is not symmetric")
        self.matrix = 0.5 * (m + m.T)
        self.dimension = m.shape[0]
        self._norm = None

    def _apply(self, x):
        return self.matrix @ x

    def _apply_rows(self, X):
        # row i is (M x_i)^T because the stored matrix is exactly symmetric:
        # one level-3 product in place of k matrix-vector products
        return X @ self.matrix

    def norm_estimate(self):
        # power iteration; deterministic start avoids seeding questions
        if self._norm is None:
            n = self.dimension
            v = np.ones(n) + np.arange(n) / (7.0 * n)
            v /= np.linalg.norm(v)
            est = 0.0
            for _ in range(200):
                w = self.matrix @ v
                nw = np.linalg.norm(w)
                if nw == 0.0:
                    est = 0.0
                    break
                v = w / nw
                if abs(nw - est) <= 1e-4 * nw:
                    est = nw
                    break
                est = nw
            self._norm = float(est)
        return self._norm


class DiagonalOperator(SelfAdjointOperator):
    """Multiplication by a fixed non-negative diagonal.

    Eigenvalues must come in ascending order; that is the canonical form
    everything downstream assumes. Coefficients coincide with coordinates.
    """

    spectral = True

    def __init__(self, eigenvalues):
        lam = np.asarray(eigenvalues, dtype=float)
        if lam.ndim != 1:
            raise ValueError("eigenvalues must be a 1-d array")
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be finite")
        if np.any(lam < 0):
            raise ValueError(f"negative eigenvalue: min = {lam.min()}")
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        self._lam = lam
        self.dimension = lam.size

    def _apply(self, x):
        return self._lam * x

    def norm_estimate(self):
        return float(self._lam[-1]) if self.dimension else 0.0

    def eigenvalues(self):
        return self._lam

    def _coefficients(self, x):
        return x

    _from_coefficients = _coefficients


class FourierOperator(SelfAdjointOperator):
    """Constant-coefficient surrogate  -d^2/dx^2 + shift  on [-L, L) periodic.

    n grid points (power of two), the real orthonormal Fourier basis gives
    the spectral basis; eigenvalue at index m is (pi m / L)^2 + shift with
    the usual aliased frequency ordering. shift = 0 leaves a one-dimensional
    kernel (the constants); shift = 1 makes the operator strictly positive.
    """

    spectral = True

    def __init__(self, n, L, shift=0.0):
        n = int(n)
        if n <= 0 or (n & (n - 1)) != 0:
            raise ValueError(f"n must be a positive power of two, got {n}")
        if not 0 < L < np.inf:
            raise ValueError(f"L must be finite and > 0, got {L}")
        if not 0 <= shift < np.inf:
            raise ValueError(f"shift must be finite and >= 0, got {shift}")
        self.n = n
        self.L = float(L)
        self.shift = float(shift)
        self.dimension = n
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * self.L / n)
        self._lam = k * k + self.shift

    def grid(self):
        return -self.L + 2.0 * self.L * np.arange(self.n) / self.n

    def _apply(self, x):
        return np.fft.irfft(self._lam[: self.n // 2 + 1] * np.fft.rfft(x),
                            self.n)

    def norm_estimate(self):
        return float(self._lam.max())

    def eigenvalues(self):
        return self._lam

    def _coefficients(self, x):
        # the real orthonormal Fourier basis, each vector at its eigenvalue's
        # index: with h = rfft(x), h_0 (constant) and h_{n/2} (alternating)
        # over sqrt(n) at 0 and n/2, and for 0 < m < n/2 Re h_m (cosine) at m
        # and Im h_m (sine) at n - m over sqrt(n/2); scaled in place both ways
        h = np.fft.rfft(x)
        half = self.n // 2
        c = np.empty(self.n)
        c[: half + 1] = h.real
        c[half + 1:] = h[half - 1:0:-1].imag
        c *= np.sqrt(2.0 / self.n)
        c[0] = h[0].real / np.sqrt(self.n)
        c[half] = h[half].real / np.sqrt(self.n)
        return c

    def _from_coefficients(self, c):
        half = self.n // 2
        h = np.zeros(half + 1, dtype=complex)
        h.real = c[: half + 1]
        h.imag[1:half] = c[:half:-1]
        h *= np.sqrt(self.n / 2.0)
        h[0] = c[0] * np.sqrt(self.n)
        h[half] = c[half] * np.sqrt(self.n)
        return np.fft.irfft(h, self.n)

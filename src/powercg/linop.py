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


def _as_vector(x, dim, who, complex_ok=False):
    """x as an array, checked for shape (dim,) and finite entries. A field
    is a real vector; only Fourier coefficients (complex_ok) may be complex."""
    x = np.asarray(x)
    if x.shape != (dim,):
        raise DimensionMismatchError(
            f"{who}: expected shape ({dim},), got {x.shape}")
    if np.iscomplexobj(x) and not complex_ok:
        raise ValueError(f"{who} is complex, expected a real vector")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{who} contains non-finite entries")
    return x


class SelfAdjointOperator:
    """Base class. Subclasses set .dimension and implement _apply; spectral
    ones also implement eigenvalues, _coefficients and _from_coefficients.
    The public methods check their input once, here."""

    spectral = False
    dimension = None
    # the coefficients of a real field are complex (a Fourier basis)
    _complex_coefficients = False

    def _apply(self, x):
        raise NotImplementedError

    def apply(self, x):
        x = _as_vector(x, self.dimension, type(self).__name__ + ".apply")
        return self._apply(x)

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
            c, self.dimension, type(self).__name__ + ".from_coefficients",
            complex_ok=self._complex_coefficients))

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

    n grid points (power of two), unitary DFT gives the spectral basis;
    eigenvalue at DFT index m is (pi m / L)^2 + shift with the usual
    aliased frequency ordering. shift = 0 leaves a one-dimensional kernel
    (the constants); shift = 1 makes the operator strictly positive.
    """

    spectral = True
    _complex_coefficients = True

    def __init__(self, n, L, shift=0.0):
        n = int(n)
        if n <= 0 or (n & (n - 1)) != 0:
            raise ValueError(f"n must be a positive power of two, got {n}")
        if not (L > 0):
            raise ValueError(f"L must be positive, got {L}")
        if shift < 0:
            raise ValueError(f"shift must be non-negative, got {shift}")
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
        # a real field has exactly conjugate-symmetric coefficients: the
        # half spectrum and its conjugate mirror (a plain fft breaks the
        # symmetry at the roundoff floor, and the asymmetric part would turn
        # into spurious spectral-measure atoms)
        half = np.fft.rfft(x)
        half[0] = half[0].real
        half[-1] = half[-1].real
        c = np.concatenate([half, np.conj(half[-2:0:-1])])
        return c / np.sqrt(self.n)

    def _from_coefficients(self, c):
        h = self.n // 2
        if not (c[0].imag == 0.0 and c[h].imag == 0.0
                and np.array_equal(c[h + 1:], np.conj(c[1:h][::-1]))):
            raise ValueError(
                "FourierOperator.from_coefficients: the coefficients are not "
                "exactly conjugate-symmetric, so they name no real field")
        return np.fft.irfft(c[: h + 1] * np.sqrt(self.n), self.n)

"""Krylov iterations minimizing spectral-power-weighted error norms.

The degree-N iterate minimizes ||A^{theta/2}(h - P h)|| over the affine
Krylov space f0 + span{R_0, A R_0, ..., A^{N-1} R_0}, where P projects onto
the solution set of A f = g and R = A f - g (note the sign; the classic CG
literature negates it). theta = 1 is plain CG. Matrix-free evaluation works
for integer theta >= 1 through Lanczos tridiagonal powers; everything else
needs spectral access.
"""

from dataclasses import dataclass, field

import numpy as np

from .linop import KernelComponentError, SpectralAccessError

# Lanczos/CG breakdown: directions with curvature below this times the
# operator norm signal an exhausted (invariant) Krylov subspace
BREAKDOWN_REL = 1e-13
# a datum on a spectral operator may carry at most this fraction of ||g||
# in the kernel
KERNEL_TOL = 1e-10


class ConsistencyError(ValueError):
    """Manufactured solution fails to reproduce the datum."""


class InverseProblem:
    """Operator, datum, initial guess, and (optionally) a known solution.

    A supplied known_solution must reproduce g: ||A f - g|| is checked
    against consistency_tol * (||A||_est ||f|| + ||g||) at construction and
    the constructor raises when the gate fails. On spectral operators g must
    also be kernel-orthogonal (the datum must be attainable), up to
    KERNEL_TOL * ||g||. The default consistency_tol suits problems built by
    exact arithmetic; discretized surrogates pass their own gate value (see
    runs.build_test_case).
    """

    def __init__(self, operator, g, f0=None, known_solution=None,
                 consistency_tol=1e-10, notes=None):
        self.operator = operator
        n = operator.dimension
        g = np.asarray(g, dtype=float)
        if g.shape != (n,):
            raise ValueError(f"g: expected shape ({n},), got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("g contains non-finite entries")
        self.g = g
        if f0 is None:
            f0 = np.zeros(n)
        f0 = np.asarray(f0, dtype=float)
        if f0.shape != (n,):
            raise ValueError(f"f0: expected shape ({n},), got {f0.shape}")
        self.f0 = f0
        self.known_solution = None
        self.consistency_tol = consistency_tol
        self.notes = dict(notes) if notes else {}
        # the Lanczos recurrence from R0 that theta_iterate extends
        self._lanczos = None

        if operator.spectral:
            cg = operator.coefficients(g)
            ker = operator.kernel_mask()
            knorm = float(np.linalg.norm(cg[ker]))
            gnorm = float(np.linalg.norm(g))
            if knorm > KERNEL_TOL * max(gnorm, 1e-300):
                raise KernelComponentError(
                    f"datum has kernel component of norm {knorm:.6e}, "
                    f"allowed {KERNEL_TOL:g} * ||g|| = {KERNEL_TOL * gnorm:.6e}")
        if known_solution is not None:
            f = np.asarray(known_solution, dtype=float)
            if f.shape != (n,):
                raise ValueError(
                    f"known_solution: expected shape ({n},), got {f.shape}")
            resid = float(np.linalg.norm(operator.apply(f) - g))
            scale = (operator.norm_estimate() * float(np.linalg.norm(f))
                     + float(np.linalg.norm(g)))
            allowed = consistency_tol * max(scale, 1e-300)
            if resid > allowed:
                raise ConsistencyError(
                    f"known solution fails: ||A f - g|| = {resid:.6e} exceeds "
                    f"{consistency_tol:g} * (||A|| ||f|| + ||g||) = {allowed:.6e}")
            self.known_solution = f

    @property
    def dimension(self):
        return self.operator.dimension

    def residual0(self):
        return self.operator.apply(self.f0) - self.g

    # spectral helpers -----------------------------------------------------

    def solution_coefficients(self):
        """Coefficients of the minimal-norm solution (kernel part zero)."""
        op = self.operator
        cg = op.coefficients(self.g)
        lam = op.eigenvalues()
        ker = op.kernel_mask()
        sol = np.zeros_like(cg)
        sol[~ker] = cg[~ker] / lam[~ker]
        return sol

    def error_coefficients(self, x):
        """Coefficients of x minus its projection onto the solution set.

        The projection keeps x's own kernel component, so the kernel entries
        are exactly zero and the rest is coeff(x) - coeff(g)/lambda.
        """
        return self.error_transform()(x)

    def error_transform(self):
        """x -> error_coefficients(x), with the datum's part coeff(g)/lambda
        and the kernel mask computed once from the current g, so a series of
        iterates pays one coefficient transform each."""
        op = self.operator
        ker = op.kernel_mask()
        g_over_lam = op.coefficients(self.g) / np.where(ker, 1.0,
                                                        op.eigenvalues())

        def transform(x):
            e = op.coefficients(np.asarray(x)) - g_over_lam
            e[ker] = 0.0
            return e
        return transform


@dataclass
class IterateHistory:
    theta: float
    iterates: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    terminated: bool = False
    reason: str = None

    def __len__(self):
        return len(self.iterates)

    @property
    def last(self):
        return self.iterates[-1]


@dataclass
class JacobiMatrix:
    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.betas = np.asarray(self.betas, dtype=float)
        if self.betas.size and self.betas.min() <= 0:
            raise ValueError(f"off-diagonal must be positive, min = {self.betas.min()}")

    @property
    def order(self):
        return self.alphas.size

    def dense(self):
        T = np.diag(self.alphas)
        if self.betas.size:
            T += np.diag(self.betas, 1) + np.diag(self.betas, -1)
        return T


def _orthogonalize(B, v):
    """v minus its projection on the orthonormal columns of B, in two passes
    of classical Gram-Schmidt."""
    for _ in range(2):
        v = v - B @ (B.T @ v)
    return v


class _Lanczos:
    """Resumable symmetric Lanczos recurrence from b with two-pass full
    reorthogonalization.

    Holds the column-major basis, the alpha/beta lists, the unnormalized
    residual of the last step and the breakdown flag; extend(n) continues
    to n steps. The k-step factorization is the leading block of every
    longer one, bit for bit, however the basis grew."""

    def __init__(self, op, b):
        b = np.asarray(b, dtype=float)
        nb = np.linalg.norm(b)
        if nb == 0:
            raise ValueError("lanczos start vector is zero")
        self.op = op
        self.start = b.copy()
        self.tol = BREAKDOWN_REL * max(op.norm_estimate(), 1e-300)
        self.V = np.empty((op.dimension, 1), order="F")
        self.V[:, 0] = b / nb
        self.alphas = []
        self.betas = []
        self.residual = None
        self.breakdown = False

    @property
    def steps(self):
        return len(self.alphas)

    def extend(self, n_steps):
        if n_steps > self.op.dimension:
            raise ValueError(
                f"n_steps {n_steps} exceeds dimension {self.op.dimension}")
        room = self.V.shape[1]
        if n_steps > room:
            # grown column-major, so the leading block V[:, :k] stays one
            # contiguous operand and its products do not depend on the room
            grown = np.empty((self.op.dimension,
                              max(n_steps, min(2 * room, self.op.dimension))),
                             order="F")
            grown[:, :room] = self.V
            self.V = grown
        V = self.V
        while self.steps < n_steps and not self.breakdown:
            k = self.steps
            if k > 0:
                beta = float(np.linalg.norm(self.residual))
                if beta <= self.tol:
                    self.breakdown = True
                    break
                self.betas.append(beta)
                V[:, k] = self.residual / beta
            q = V[:, k]
            v = self.op.apply(q)
            if k > 0:
                v = v - self.betas[k - 1] * V[:, k - 1]
            a = float(np.dot(v, q))
            v = v - a * q
            self.residual = _orthogonalize(V[:, :k + 1], v)
            self.alphas.append(a)

    def leading(self, k):
        """JacobiMatrix and basis of the first min(k, steps) steps."""
        k = min(k, self.steps)
        return (JacobiMatrix(np.array(self.alphas[:k]),
                             np.array(self.betas[:max(k - 1, 0)])),
                self.V[:, :k])


def lanczos(op, b, n_steps):
    """n_steps of the symmetric Lanczos recurrence from b, with two-pass full
    reorthogonalization. Returns (JacobiMatrix, V, breakdown) where V's
    columns are the orthonormal Krylov basis; breakdown is set when an
    invariant subspace is hit early (the tridiagonal is then truncated)."""
    state = _Lanczos(op, b)
    state.extend(n_steps)
    T, V = state.leading(n_steps)
    return T, V, state.breakdown


def run_cg(problem, n_max, tol_rel=1e-12, tol_abs=0.0):
    """Conjugate gradients from f0, residual sign R = A f - g.

    Residuals are reorthogonalized against all previous ones; at condition
    numbers around 1e6 plain CG iterates drift from the exact Krylov
    minimizer by order one while the reorthogonalized ones stay at 1e-12
    (cost O(N^2 n), harmless here). Stops early when
    ||R|| <= tol_abs + tol_rel ||g|| or on curvature breakdown.
    """
    if n_max > problem.dimension:
        raise ValueError(
            f"n_max {n_max} exceeds dimension {problem.dimension}")
    op = problem.operator
    f = problem.f0.astype(float).copy()
    R = op.apply(f) - problem.g
    hist = IterateHistory(theta=1.0)
    hist.iterates.append(f.copy())
    hist.residuals.append(R.copy())
    threshold = tol_abs + tol_rel * float(np.linalg.norm(problem.g))
    crv_tol = BREAKDOWN_REL * max(op.norm_estimate(), 1e-300)
    r = -R
    rr = float(np.dot(r, r))
    if np.sqrt(rr) <= threshold:
        hist.terminated = True
        hist.reason = "converged at N=0"
        return hist
    p = r.copy()
    # column k holds the normalized residual of step k, column-major like
    # the Lanczos basis
    basis = np.empty((problem.dimension, n_max + 1), order="F")
    basis[:, 0] = r / np.sqrt(rr)
    for N in range(1, n_max + 1):
        Ap = op.apply(p)
        pAp = float(np.dot(p, Ap))
        if pAp <= crv_tol * float(np.dot(p, p)):
            hist.terminated = True
            hist.reason = f"breakdown at N={N - 1} (curvature {pAp:.3e})"
            return hist
        a = rr / pAp
        f = f + a * p
        r_new = _orthogonalize(basis[:, :N], r - a * Ap)
        rr_new = float(np.dot(r_new, r_new))
        hist.iterates.append(f.copy())
        hist.residuals.append(-r_new)
        if np.sqrt(rr_new) <= threshold:
            hist.terminated = True
            hist.reason = f"converged at N={N}"
            return hist
        basis[:, N] = r_new / np.sqrt(rr_new)
        p = r_new + (rr_new / rr) * p
        r = r_new
        rr = rr_new
    return hist


def _tridiag_powers(T, s_max):
    """T^0 .. T^{s_max} as dense matrices."""
    n = T.shape[0]
    out = [np.eye(n)]
    for _ in range(s_max):
        out.append(out[-1] @ T)
    return out


def theta_iterate(problem, theta, N):
    """Degree-N minimizer of the A^{theta/2}-weighted error, matrix-free for
    integer theta >= 1, spectral for the rest.

    Needs N + theta Lanczos steps from R0, so that every tridiagonal power
    touching the leading N columns is exact. The problem stores one Lanczos
    recurrence from R0 and extends it on demand; its leading steps are the
    same numbers whatever was asked before, so a series N = 1..K costs
    K + theta Lanczos applies (plus one apply per call for R0) instead of a
    rebuild per N. Another operator object or a changed R0 (f0 or g
    reassigned or edited) starts a new recurrence. The projected problem
    is solved in a square-rooted form (rectangular least squares; the
    normal equations would square the condition number). Early Lanczos
    breakdown saturates the Krylov space; the iterate returned is then the
    minimizer of the saturated space, which equals the requested one.
    """
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    if theta < 1 and not problem.operator.spectral:
        raise SpectralAccessError(
            f"theta = {theta} < 1 needs spectral access")
    if N > problem.dimension:
        raise ValueError(f"N {N} exceeds dimension {problem.dimension}")
    if N == 0:
        return problem.f0.copy()
    R0 = problem.residual0()
    nR0 = float(np.linalg.norm(R0))
    if nR0 == 0.0:
        return problem.f0.copy()
    op = problem.operator
    if float(theta) != int(theta) or theta < 1:
        # theta = 0 must take the spectral route too: the tridiagonal
        # branches index powers of T from theta >= 1
        if not op.spectral:
            raise SpectralAccessError(
                f"non-integer theta = {theta} needs spectral access")
        return spectral_iterates(problem, theta, N)[N]
    theta = int(theta)
    state = problem._lanczos
    if (state is None or state.op is not op
            or state.start.tobytes() != R0.tobytes()):
        state = problem._lanczos = _Lanczos(op, R0)
    m = min(N + theta, problem.dimension)
    state.extend(m)
    T_jac, V = state.leading(m)
    k = T_jac.order
    Nc = min(N, k)
    T = T_jac.dense()
    if theta == 1:
        # projected system T_N y = -||R0|| e1, the CG tridiagonal
        rhs = np.zeros(Nc)
        rhs[0] = -nR0
        y = np.linalg.solve(T[:Nc, :Nc], rhs)
    elif theta % 2 == 0:
        # ||A^s e||: coordinates of A^s V_N and A^{s-1} R0 in the long basis
        s = theta // 2
        P = _tridiag_powers(T, s)
        B = P[s][:, :Nc]
        a = nR0 * P[s - 1][:, 0]
        y, *_ = np.linalg.lstsq(B, -a, rcond=None)
    else:
        # odd theta = 2s+1: objective c^T T c with c the A^s-image
        # coordinates; T = L L^T is positive definite on the Krylov space
        # (A >= 0 and R0 in ran A keep the Ritz values positive)
        s = (theta - 1) // 2
        P = _tridiag_powers(T, s)
        Lc = _chol_psd(T)
        B = Lc.T @ P[s][:, :Nc]
        a = nR0 * (Lc.T @ P[s - 1][:, 0])
        y, *_ = np.linalg.lstsq(B, -a, rcond=None)
    return problem.f0 + V[:, :Nc] @ y


def _chol_psd(T):
    try:
        return np.linalg.cholesky(T)
    except np.linalg.LinAlgError:
        # roundoff pushed a tiny Ritz value below zero; fall back to the
        # symmetric square root with negatives clipped
        vals, vecs = np.linalg.eigh(T)
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _weighted_residual_values(lam, w, n_max):
    """Values at the atoms of the w-weighted least-squares minimizer of
    ||p||_w over polynomials with p(0) = 1, deg p <= N, yielded for every
    N = 1..n_max from one pass.

    p = 1 - (projection of 1 onto span{lambda q(lambda)}); the span is built
    by a multiplication ladder with two-pass Gram-Schmidt in the w-inner
    product. The ladder degenerates exactly when the weight carries fewer
    than N atoms; the minimizer then already vanishes w-a.e. and every
    later degree repeats it."""
    m = lam.size
    ones = np.ones(m)
    p = ones
    wnorm0 = np.sqrt(float(np.dot(w, ones)))
    live = wnorm0 > 0.0
    Q = np.empty((m, n_max))
    prev = ones / wnorm0 if live else ones
    lmax = max(float(lam.max()), 1e-300)
    for built in range(n_max):
        if live:
            v = lam * prev
            for _ in range(2):
                if built:
                    v = v - Q[:, :built] @ ((w * v) @ Q[:, :built])
            nv = np.sqrt(float(np.dot(w * v, v)))
            live = nv > 1e-15 * lmax
        if live:
            q = v / nv
            Q[:, built] = q
            p = p - float(np.dot(w * q, ones)) * q
            prev = q
        yield p


def spectral_iterates(problem, theta, n_max):
    """f0 and the minimizers of degree 1..n_max, computed in the eigenbasis
    from one least-squares ladder; valid for any theta >= 0.

    The objective is a weighted polynomial least-squares problem on the
    eigenvalue atoms with weights lambda^theta |e0|^2; the optimal residual
    polynomial evaluated at the atoms transports e0 to e_N directly.
    """
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    op = problem.operator
    if not op.spectral:
        raise SpectralAccessError("spectral iterates need spectral access")
    if n_max > problem.dimension:
        raise ValueError(f"N {n_max} exceeds dimension {problem.dimension}")
    e0 = problem.error_coefficients(problem.f0)
    lam = np.asarray(op.eigenvalues(), dtype=float)
    ker = op.kernel_mask()
    w = np.zeros(op.dimension)
    live = ~ker
    w[live] = lam[live] ** theta if theta > 0 else 1.0
    w = w * np.abs(e0) ** 2
    c0 = op.coefficients(problem.f0)
    out = [problem.f0.copy()]
    for p in _weighted_residual_values(lam, w, n_max):
        f = op.from_coefficients(c0 + (p - 1.0) * e0)
        if np.isrealobj(problem.f0) and np.iscomplexobj(f):
            f = f.real.copy()
        out.append(f)
    return out

"""Krylov iterations minimizing spectral-power-weighted error norms.

The degree-N iterate minimizes ||A^{theta/2}(h - P h)|| over the affine
Krylov space f0 + span{R_0, A R_0, ..., A^{N-1} R_0}, where P projects onto
the solution set of A f = g and R = A f - g (note the sign; the classic CG
literature negates it). theta = 1 is plain CG. theta_iterate takes integer
theta >= 1 matrix-free, through Lanczos tridiagonal powers; spectral_iterates
takes any theta >= 0 in the eigenbasis, which needs spectral access.
"""

import itertools
import math
import numbers
import weakref
from dataclasses import dataclass, field

import numpy as np

from .linop import KernelComponentError, SpectralAccessError, _as_vector
from .measures import _power_weights

# Lanczos/CG breakdown: directions with curvature below this times the
# operator norm signal an exhausted (invariant) Krylov subspace
BREAKDOWN_REL = 1e-13
# a datum on a spectral operator may carry at most this fraction of ||g||
# in the kernel
KERNEL_TOL = 1e-10
# run_cg stops once ||R|| falls to this fraction of ||g||
CG_TOL_REL = 1e-12


class ConsistencyError(ValueError):
    """Manufactured solution fails to reproduce the datum."""


class InverseProblem:
    """Operator, datum, initial guess, and (optionally) a known solution.

    Fixed at construction: g, f0 and known_solution are read-only float
    copies, checked for shape and finiteness, so the gates hold for the
    problem's whole life. A supplied known_solution must reproduce g:
    ||A f - g|| is checked against consistency_tol * (||A||_est ||f|| +
    ||g||) and the constructor raises when the gate fails. On spectral
    operators g must also be kernel-orthogonal (the datum must be
    attainable), up to KERNEL_TOL * ||g||. The default consistency_tol
    suits problems built by exact arithmetic; discretized surrogates pass
    their own gate value (see runs.build_test_case). On spectral operators
    f0 is transformed once, here, and e0 holds its error coefficients; the
    eigenvalues are grouped once, here: atoms[atom_index] == eigenvalues.
    Without spectral access the residual A s - g of s, the known solution
    or 0, is kept from the consistency check (exactly -g when s = 0) for
    the matrix-free rho.
    """

    def __init__(self, operator, g, f0=None, known_solution=None,
                 consistency_tol=1e-10, notes=None):
        self._operator = operator
        n = operator.dimension
        self._g = g = _fixed_vector(g, n, "g")
        self._f0 = _fixed_vector(np.zeros(n) if f0 is None else f0, n, "f0")
        self._known_solution = f = (
            None if known_solution is None
            else _fixed_vector(known_solution, n, "known_solution"))
        self.consistency_tol = consistency_tol
        self.notes = dict(notes) if notes else {}
        # the Lanczos recurrence from R0 that run_cg and theta_iterate extend
        self._lanczos = None
        self._ker = self._c0 = self._e0 = self._atoms = self._index = None
        # the matrix-free rho's images A (x - s): bytes of x -> (image, the
        # finalizer that drops the entry when x is collected)
        self._images = {}

        if operator.spectral:
            cg = operator.coefficients(g)
            ker = self._ker = operator.kernel_mask()
            knorm = float(np.linalg.norm(cg[ker]))
            gnorm = float(np.linalg.norm(g))
            if knorm > KERNEL_TOL * max(gnorm, 1e-300):
                raise KernelComponentError(
                    f"datum has kernel component of norm {knorm:.6e}, "
                    f"allowed {KERNEL_TOL:g} * ||g|| = {KERNEL_TOL * gnorm:.6e}")
            # the datum's part of every error coefficient vector
            self._g_over_lam = cg / np.where(ker, 1.0, operator.eigenvalues())
            self._c0 = operator.coefficients(self._f0)
            self._e0 = self._error(self._c0)
            self._atoms, self._index = np.unique(operator.eigenvalues(),
                                                 return_inverse=True)
            for a in (ker, self._c0, self._e0, self._atoms, self._index):
                a.flags.writeable = False
        r = -g if f is None else operator.apply(f) - g
        r.flags.writeable = False
        # A s - g, read by the matrix-free rho only
        self._residual_s = None if operator.spectral else r
        if f is not None:
            resid = float(np.linalg.norm(r))
            scale = (operator.norm_estimate() * float(np.linalg.norm(f))
                     + float(np.linalg.norm(g)))
            allowed = consistency_tol * max(scale, 1e-300)
            if resid > allowed:
                raise ConsistencyError(
                    f"known solution fails: ||A f - g|| = {resid:.6e} exceeds "
                    f"{consistency_tol:g} * (||A|| ||f|| + ||g||) = {allowed:.6e}")

    operator = property(lambda self: self._operator)
    g = property(lambda self: self._g)
    f0 = property(lambda self: self._f0)
    known_solution = property(lambda self: self._known_solution)
    # read-only; None without spectral access
    e0 = property(lambda self: self._e0)
    kernel_mask = property(lambda self: self._ker)
    atoms = property(lambda self: self._atoms)
    atom_index = property(lambda self: self._index)

    @property
    def dimension(self):
        return self.operator.dimension

    def residual0(self):
        return self.operator.apply(self.f0) - self.g

    def _error_image(self, x):
        """A (x - s), s the known solution or 0, with one apply for two
        reads: the image is kept under the bytes of x as a float vector
        until it is read once more or x is collected, so rho's sigma = 1 and
        2 of one iterate share it across calls and evaluators. A vector
        changed in place is looked up by its new bytes, never served the
        old image."""
        x = _as_vector(x, self.dimension, "f_n").astype(float, copy=False)
        key = x.tobytes()
        entry = self._images.pop(key, None)
        if entry is not None:
            image, dropper = entry
            dropper.detach()
            return image
        s = self._known_solution
        image = self.operator.apply(x if s is None else x - s)
        self._images[key] = (image, weakref.finalize(x, self._images.pop,
                                                     key, None))
        return image

    def error_coefficients(self, x):
        """Coefficients of x minus its projection onto the solution set.

        The projection keeps x's own kernel component, so the kernel entries
        are exactly zero and the rest is coeff(x) - coeff(g)/lambda, whose
        datum part the kernel gate computed. A non-spectral operator raises
        SpectralAccessError in coefficients.
        """
        return self._error(self.operator.coefficients(np.asarray(x)))

    def _error(self, c):
        e = c - self._g_over_lam
        e[self._ker] = 0.0
        return e


def _fixed_vector(x, n, name):
    """A read-only float copy of x, checked by linop._as_vector."""
    x = np.array(_as_vector(x, n, name), dtype=float)
    x.flags.writeable = False
    return x


@dataclass
class IterateHistory:
    iterates: list = field(default_factory=list)
    terminated: bool = False
    reason: str = None


class _Lanczos:
    """Resumable symmetric Lanczos recurrence from b with two-pass full
    reorthogonalization: a problem's one Krylov process, from R0, that
    run_cg and theta_iterate read.

    Holds ||b||, the column-major basis, the alpha/beta lists (the Jacobi
    matrix T, in this form only), the unnormalized residual of the last
    step and the breakdown flag; extend(n) continues to n steps. The
    k-step factorization is the leading block of every longer one, bit for
    bit, however the basis grew."""

    def __init__(self, op, b):
        b = np.asarray(b, dtype=float)
        nb = np.linalg.norm(b)
        if nb == 0:
            raise ValueError("lanczos start vector is zero")
        self.op = op
        self.norm = float(nb)
        self.tol = BREAKDOWN_REL * max(op.norm_estimate(), 1e-300)
        self.V = np.empty((op.dimension, 1), order="F")
        self.V[:, 0] = b / nb
        self.alphas = []
        self.betas = []
        self.residual = None
        self.breakdown = False
        # the nested Cholesky factor T = L L^T (L lower bidiagonal: diagonal
        # chol_diag, subdiagonal chol_sub) that cholesky() grows, and one
        # _ProjectedQR per integer theta >= 2
        self.chol_diag = []
        self.chol_sub = []
        self.factors = {}

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
            # two passes of classical Gram-Schmidt against the whole basis
            B = V[:, :k + 1]
            for _ in range(2):
                v = v - B @ (B.T @ v)
            self.residual = v
            self.alphas.append(a)

    def cholesky(self, rows):
        """Grow the Cholesky factor T = L L^T of the first min(rows, steps)
        steps and return the order of its positive-definite prefix there.

        The factor stops for good at the first pivot at or below self.tol,
        where run_cg reports breakdown: past it roundoff has leaked a kernel
        direction into the recurrence. Row i reads alpha_i and beta_(i-1)
        only, so the factor is nested like the recurrence and the prefix
        does not depend on the calls made before."""
        d, m = self.chol_diag, self.chol_sub
        while len(d) < min(rows, self.steps):
            i = len(d)
            pivot = self.alphas[i]
            if i:
                sub = self.betas[i - 1] / d[i - 1]
                pivot = pivot - sub * sub
            if not pivot > self.tol:
                break
            if i:
                m.append(sub)
            d.append(math.sqrt(pivot))
        return min(rows, len(d))

    def cg_solve(self, n):
        """y with T y = -||b|| e1 on the first n steps, n at most the
        Cholesky factor's order: a forward sweep on L, a back sweep on L^T."""
        d, m = self.chol_diag, self.chol_sub
        y = [-self.norm / d[0]]
        for i in range(1, n):
            y.append(-m[i - 1] * y[-1] / d[i])
        y[-1] /= d[n - 1]
        for i in range(n - 2, -1, -1):
            y[i] = (y[i] - m[i] * y[i + 1]) / d[i]
        return np.array(y)


def _check_degree(N, dimension, name="N"):
    """Refuse a degree that is not an integer in 0..dimension."""
    if isinstance(N, bool) or not isinstance(N, numbers.Integral) or N < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {N!r}")
    if N > dimension:
        raise ValueError(f"{name} {N} exceeds dimension {dimension}")


def _lanczos_state(problem):
    """The problem's Lanczos recurrence from R0, made on first use; None
    when R0 is exactly zero."""
    state = problem._lanczos
    if state is None:
        R0 = problem.residual0()
        if float(np.linalg.norm(R0)) == 0.0:
            return None
        state = problem._lanczos = _Lanczos(problem.operator, R0)
    return state


def run_cg(problem, n_max):
    """Conjugate gradients from f0, residual sign R = A f - g, as the
    theta = 1 series of the problem's stored Lanczos recurrence.

    Degree N is the Galerkin solve T_N y = -||R0|| e1 (Meurant, The Lanczos
    and Conjugate Gradient Algorithms, 2006), f0 + V_N y, bit for bit
    theta_iterate(problem, 1, N). Stops as converged at N once ||R_N|| =
    beta_N |y_N| (the Lanczos residual identity) is at most CG_TOL_REL ||g||
    or the recurrence breaks down there, and as breakdown at N - 1 at the
    Cholesky pivot of T_N that ends theta_iterate's prefix. A fresh problem
    pays N + 1 applies to degree N; a stored recurrence serves later series.

    The recurrence is reorthogonalized, yet on data with a roundoff floor
    its basis leaves the exact Krylov space. On the built-ins at their
    defaults, N <= 60, rho0 differs from the eigenbasis minimizer's by up to
    3.9e-2 (1a), 3.5e-3 (2a), 2.4e-12 (1b) and 1.9e-6 (2b), relative and
    floored at 1e-12 rho0(0): 20 to 230 times the gap of the three-term CG
    loop on 1a, 2a and 2b (1.5e-3, 1.3e-4, 8.2e-9). With the floor of 2b's
    datum cleaned the gap is 1.4e-13.
    """
    _check_degree(n_max, problem.dimension, "n_max")
    iterates = [problem.f0.copy()]
    threshold = CG_TOL_REL * float(np.linalg.norm(problem.g))
    state = _lanczos_state(problem)
    if state is None or state.norm <= threshold:
        return IterateHistory(iterates, True, "converged at N=0")
    for N in range(1, n_max + 1):
        state.extend(N)
        if state.cholesky(N) < N:
            return IterateHistory(iterates, True, f"breakdown at N={N - 1} "
                                  f"(pivot of T_{N} <= {state.tol:.3e})")
        y = state.cg_solve(N)
        iterates.append(problem.f0 + state.V[:, :N] @ y)
        # beta_N, or the norm extend will take as beta_N
        beta = (state.betas[N - 1] if state.steps > N
                else float(np.linalg.norm(state.residual)))
        if beta <= state.tol or beta * abs(y[-1]) <= threshold:
            return IterateHistory(iterates, True, f"converged at N={N}")
    return IterateHistory(iterates)


def _power_column(alphas, betas, k, j, s):
    """T^s e_j for the tridiagonal T of the first k (alphas, betas), as
    (first row, entries): rows j - s .. j + s cut at k, each entry summed in
    the same order whatever k is."""
    lo, x = j, [1.0]
    for _ in range(s):
        hi = lo + len(x) - 1
        y = []
        for i in range(max(lo - 1, 0), min(hi + 1, k - 1) + 1):
            t = 0.0
            if i - 1 >= lo:
                t += betas[i - 1] * x[i - 1 - lo]
            if lo <= i <= hi:
                t += alphas[i] * x[i - lo]
            if i + 1 <= hi:
                t += betas[i] * x[i + 1 - lo]
            y.append(t)
        lo, x = max(lo - 1, 0), y
    return lo, x


class _ProjectedQR:
    """Givens QR of the projected problem of one integer theta >= 2, grown
    one column per degree from a _Lanczos state's recurrence (Paige &
    Saunders' MINRES update, SIAM J. Numer. Anal. 12, 1975, for any s).

    With s = theta // 2 the factored matrix is B = W (T^s)[:, :N] and the
    right-hand side -||R0|| W T^(s-1) e1, with W = I for even theta and
    W = L^T for odd theta (T = L L^T, the state's nested Cholesky), T cut
    at the state's positive-definite prefix. There B has full column rank,
    so the QR is exact. Column j of B has rows j - s - (theta odd) .. j + s,
    and its s rotations pair row j with rows j + 1 .. j + s, so R has
    2s + (theta odd) rows above its diagonal and a later column's rotations
    touch later rows only: R's leading N x N block and the rotated
    right-hand side's first N entries are the same bits however far the
    factorization has grown.
    """

    def __init__(self, theta):
        self.s = theta // 2
        self.odd = theta % 2 == 1
        self.width = 2 * self.s + self.odd
        # column j: R's rows j - width .. j; rotations: column j's s (c, sn)
        self.R = []
        self.rotations = []
        self.rhs = None

    def _column(self, st, k, j, s):
        """W T^s e_j on the first k steps of the state st, k at most its
        Cholesky factor's order, as (first row, entries)."""
        lo, x = _power_column(st.alphas, st.betas, k, j, s)
        if not self.odd:
            return lo, x
        hi = lo + len(x) - 1
        d, m = st.chol_diag, st.chol_sub
        # (L^T x)_i = d_i x_i + m_i x_(i+1), rows lo - 1 .. hi
        z = [d[i] * x[i - lo] + m[i] * x[i + 1 - lo] for i in range(lo, hi)]
        z.append(d[hi] * x[-1])
        if lo:
            return lo - 1, [m[lo - 1] * x[0]] + z
        return lo, z

    def grow(self, st, k, n):
        """Factor columns up to n <= k of the first k steps of the state
        st's recurrence."""
        s, w = self.s, self.width
        if self.rhs is None:
            self.rhs = [-st.norm * v for v in self._column(st, k, 0, s - 1)[1]]
        rhs = self.rhs
        while len(self.R) < n:
            j = len(self.R)
            lo, x = self._column(st, k, j, s)
            # rows base .. j + s of column j, rows below 0 kept as zeros
            base = j - w
            v = [0.0] * (w + s + 1)
            v[lo - base:lo - base + len(x)] = x
            for i in range(max(base, 0), j):
                p = i - base
                for q, (c, sn) in enumerate(self.rotations[i], p + 1):
                    a, b = v[p], v[q]
                    v[p] = c * a + sn * b
                    v[q] = c * b - sn * a
            rhs.extend([0.0] * (j + s + 1 - len(rhs)))
            rots = []
            for q in range(w + 1, w + s + 1):
                a, b = v[w], v[q]
                r = math.hypot(a, b)
                c, sn = (a / r, b / r) if r > 0.0 else (1.0, 0.0)
                v[w], v[q] = r, 0.0
                rots.append((c, sn))
                a, b = rhs[j], rhs[j + q - w]
                rhs[j] = c * a + sn * b
                rhs[j + q - w] = c * b - sn * a
            self.rotations.append(rots)
            self.R.append(v[:w + 1])

    def solve(self, n):
        """y with R[:n, :n] y = rhs[:n], by back substitution."""
        w = self.width
        y = self.rhs[:n]
        for j in range(n - 1, -1, -1):
            col = self.R[j]
            y[j] = yj = y[j] / col[w]
            for i in range(max(j - w, 0), j):
                y[i] -= col[i - j + w] * yj
        return np.array(y)


def theta_iterate(problem, theta, N):
    """Degree-N minimizer of the A^{theta/2}-weighted error for an integer
    theta >= 1, matrix-free; any other theta raises ValueError (use
    spectral_iterates).

    Needs N + theta Lanczos steps from R0, so that every tridiagonal power
    touching the leading N columns is exact. The problem stores one Lanczos
    recurrence from R0, shared with run_cg, and extends it on demand; its
    leading steps are the same numbers whatever was asked before, so a
    series N = 1..K costs K + theta Lanczos applies plus one apply for R0,
    instead of a rebuild per N, and fewer after a run_cg or another series.
    Early Lanczos breakdown saturates the Krylov space; the iterate returned
    is then the minimizer of the saturated space, which equals the requested
    one.

    Only the positive-definite prefix of the recurrence is read: its first
    k steps, k the order of the Cholesky factor of T before a pivot at or
    below BREAKDOWN_REL ||A|| (see _Lanczos.cholesky). In exact arithmetic
    A >= 0 and R0 in ran A keep T positive definite; past that pivot
    roundoff has leaked a kernel direction into the recurrence, and run_cg
    reports breakdown at the same pivot. A degree past the prefix returns the
    minimizer of its k-dimensional space, as after a Lanczos breakdown, and
    k = 0 returns f0. The price: a Krylov space whose Ritz values span more
    than about 13 decades loses the degrees past the cut.

    theta = 1 solves the CG tridiagonal system T y = -||R0|| e1 by a forward
    sweep on L and a back sweep on L^T, with the factor T = L L^T that the
    prefix test grew: run_cg's iterate, bit for bit. For theta >= 2 the
    projected problem is solved in a square-rooted form (least squares
    on B = W (T^s)[:, :N], s = theta // 2; the normal equations would square
    the condition number) by one Givens QR of B per theta that the recurrence
    stores, grown one column per new degree (Paige & Saunders, SIAM J.
    Numer. Anal. 12, 1975, carried from MINRES's s = 1 to every s): a degree
    back-substitutes the leading N x N block of R, so a theta series costs
    one factorization as it costs one basis. Later columns rotate later rows
    only, so the leading block is the same bits however far the
    factorization has grown, and the iterate does not depend on the calls
    made before.
    """
    if not (theta >= 1 and float(theta).is_integer()):
        raise ValueError(f"theta_iterate takes an integer theta >= 1, got "
                         f"{theta!r}; spectral_iterates takes any theta >= 0")
    _check_degree(N, problem.dimension)
    if N == 0:
        return problem.f0.copy()
    state = _lanczos_state(problem)
    if state is None:
        return problem.f0.copy()
    theta = int(theta)
    m = min(N + theta, problem.dimension)
    state.extend(m)
    k = state.cholesky(m)
    Nc = min(N, k)
    if Nc == 0:
        return problem.f0.copy()
    if theta == 1:
        y = state.cg_solve(Nc)
    else:
        qr = state.factors.get(theta)
        if qr is None:
            qr = state.factors[theta] = _ProjectedQR(theta)
        qr.grow(state, k, Nc)
        y = qr.solve(Nc)
    return problem.f0 + state.V[:, :Nc] @ y


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


def _transported(problem, p):
    """The iterate whose error coefficients are p * e0, p given on the
    problem's atoms."""
    # equal eigenvalues share their atom's value, so the coefficients keep
    # the exact conjugate symmetry of c0 and e0 that from_coefficients checks
    return problem.operator.from_coefficients(
        problem._c0 + (p[problem.atom_index] - 1.0) * problem.e0)


def spectral_iterates(problem, theta, n_max):
    """f0 and the minimizers of degree 1..n_max, computed in the eigenbasis
    from one least-squares ladder; valid for any theta >= 0.

    The objective is a weighted polynomial least-squares problem on the
    eigenvalue atoms with weights lambda^theta |e0|^2; the optimal residual
    polynomial evaluated at the atoms transports e0 to e_N directly. Equal
    eigenvalues are one atom with their summed weight (a periodic
    surrogate's +-m pairs), so the ladder runs on the distinct ones only.

    Returns a lazy iterator: each degree's iterate is made when it is asked
    for, so a caller that drops one before asking for the next holds one at
    a time. The arguments, and the weights for overflow, are checked here,
    at the call.
    """
    if not 0 <= theta < math.inf:
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    op = problem.operator
    if not op.spectral:
        raise SpectralAccessError(
            f"spectral_iterates at theta = {theta} needs spectral access")
    _check_degree(n_max, problem.dimension)
    # e0 is exactly 0 on the kernel, so its atoms weigh 0 at any theta; the
    # power is taken per eigenvalue, before its atom sums it
    w = _power_weights(op.eigenvalues(), theta, np.abs(problem.e0) ** 2)
    values = _weighted_residual_values(
        problem.atoms, np.bincount(problem.atom_index, weights=w), n_max)
    return itertools.chain([problem.f0.copy()],
                           (_transported(problem, p) for p in values))

"""Krylov iterations minimizing spectral-power-weighted error norms.

The degree-N iterate minimizes ||A^{theta/2}(h - P h)|| over the affine
Krylov space f0 + span{R_0, A R_0, ..., A^{N-1} R_0}, where P projects onto
the solution set of A f = g and R = A f - g (note the sign; the classic CG
literature negates it). theta = 1 is plain CG. theta_iterate takes integer
theta >= 1 matrix-free, through the Cholesky factor of the Lanczos matrix;
spectral_iterates takes any theta >= 0 in the eigenbasis, which needs
spectral access.
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
        # the matrix-free rho's images A (x - s): bytes of x -> [image, reads
        # left, the finalizers that drop the entry when a vector it was
        # made for is collected]; and, weakly by id, the iterates handed
        # out since the last batch of images
        self._images = {}
        self._pending = weakref.WeakValueDictionary()

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

    def _hand_out(self, x):
        """x, an iterate made for the caller. Without spectral access it is
        registered, weakly, so that the next miss of _error_image images it
        in the same batch."""
        if not self.operator.spectral:
            self._pending[id(x)] = x
        return x

    def _error_image(self, x):
        """A (x - s), x a vector rho's evaluator has checked and s the known
        solution or 0, kept under the bytes of x for two reads (rho's sigma
        = 1 and 2) per vector of its batch with those bytes, across calls
        and evaluators, and dropped at the last read or when one of those
        vectors is collected. A miss images x with every live iterate handed
        out since the last miss whose bytes have no image yet, in one
        _apply_rows call, and empties that registry: a series measured after
        it is made costs one product, not one apply per iterate. A vector
        changed in place is looked up by its new bytes, never served the old
        image."""
        x = x.astype(float, copy=False)
        key = x.tobytes()
        entry = self._images.get(key)
        if entry is None:
            entry = self._image_batch(x, key)
        entry[1] -= 1
        if not entry[1]:
            self._release(key)
        return entry[0]

    def _image_batch(self, x, key):
        """Image x, checked by rho's evaluator, and the finite pending
        iterates of the problem's dimension in one _apply_rows call; x's
        entry."""
        batch = {key: [x]}
        for v in list(self._pending.values()):
            # a handed-out vector changed in place to another shape or to
            # non-finite values must not make its siblings' rho raise
            if v is not x and v.shape == x.shape and np.isfinite(v).all():
                k = v.tobytes()
                if k not in self._images:
                    batch.setdefault(k, []).append(v)
        self._pending.clear()
        X = np.array([vs[0] for vs in batch.values()])
        s = self._known_solution
        if s is not None:
            X -= s
        for (k, vs), image in zip(batch.items(), self.operator._apply_rows(X)):
            self._images[k] = [image, 2 * len(vs),
                               [weakref.finalize(v, self._release, k)
                                for v in vs]]
        return self._images[key]

    def _release(self, key):
        entry = self._images.pop(key, None)
        if entry is not None:
            for dropper in entry[2]:
                dropper.detach()

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

    Holds b, ||b||, the column-major basis, the alpha/beta lists of the
    Jacobi matrix T, the unnormalized residual of the last step and the
    breakdown flag; extend(n) continues to n steps. The k-step
    factorization is the leading block of every longer one, bit for bit,
    however the basis grew."""

    def __init__(self, op, b):
        b = np.asarray(b, dtype=float)
        nb = np.linalg.norm(b)
        if nb == 0:
            raise ValueError("lanczos start vector is zero")
        self.op = op
        self.start = b
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
        # _ProjectedQR per integer theta >= 1 that solve() grows
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
            # step 1 applies A to b itself: its rounded normalization q
            # leaves the Krylov space on data with a roundoff floor
            v = (self.op.apply(q) if k
                 else self.op.apply(self.start) / self.norm)
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

    def solve(self, theta, k, n):
        """y of the degree-n projected problem at the integer theta >= 1,
        on the first k steps, n <= k <= the Cholesky factor's order: the
        problem's one _ProjectedQR for theta, grown to n columns and
        back-substituted."""
        qr = self.factors.get(theta)
        if qr is None:
            qr = self.factors[theta] = _ProjectedQR(theta)
        qr.grow(self, k, n)
        return qr.solve(n)


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

    The recurrence is reorthogonalized and applies A to R0 itself at step
    1. On the built-ins at their defaults, N <= 60, rho0 differs from the
    eigenbasis minimizer's by up to 1.2e-3 (1a), 1.2e-4 (2a), 9.9e-13 (1b)
    and 2.8e-9 (2b), relative and floored at 1e-12 rho0(0): on 1a, 2a and
    2b below the gap of the three-term CG loop (1.5e-3, 1.3e-4, 8.2e-9).
    The gap is the data's roundoff floor: with the floor of 2b's datum
    cleaned it is 5e-15.
    """
    _check_degree(n_max, problem.dimension, "n_max")
    iterates = [problem._hand_out(problem.f0.copy())]
    threshold = CG_TOL_REL * float(np.linalg.norm(problem.g))
    state = _lanczos_state(problem)
    if state is None or state.norm <= threshold:
        return IterateHistory(iterates, True, "converged at N=0")
    for N in range(1, n_max + 1):
        state.extend(N)
        if state.cholesky(N) < N:
            return IterateHistory(iterates, True, f"breakdown at N={N - 1} "
                                  f"(pivot of T_{N} <= {state.tol:.3e})")
        y = state.solve(1, N, N)
        iterates.append(problem._hand_out(problem.f0 + state.V[:, :N] @ y))
        # beta_N, or the norm extend will take as beta_N
        beta = (state.betas[N - 1] if state.steps > N
                else float(np.linalg.norm(state.residual)))
        if beta <= state.tol or beta * abs(y[-1]) <= threshold:
            return IterateHistory(iterates, True, f"converged at N={N}")
    return IterateHistory(iterates)


def _factored_column(st, k, j, t):
    """P_t e_j on the first k steps of the state st, k at most its Cholesky
    factor's order, as (first row, entries): t factors of T = L L^T applied
    from the right, alternating L^T, L, L^T, ..., so P_2s = T^s and
    P_(2s+1) = L^T T^s. Rows j - ceil(t/2) .. j + t // 2, cut at k."""
    d, m = st.chol_diag, st.chol_sub
    lo, x = j, [1.0]
    for f in range(t):
        hi = lo + len(x) - 1
        if f % 2 == 0:
            # (L^T x)_i = d_i x_i + m_i x_(i+1), rows lo - 1 .. hi
            y = [d[i] * x[i - lo] + m[i] * x[i + 1 - lo]
                 for i in range(lo, hi)]
            y.append(d[hi] * x[-1])
            if lo:
                lo, y = lo - 1, [m[lo - 1] * x[0]] + y
        else:
            # (L x)_i = m_(i-1) x_(i-1) + d_i x_i, rows lo .. hi + 1
            y = [d[lo] * x[0]]
            y += [m[i - 1] * x[i - 1 - lo] + d[i] * x[i - lo]
                  for i in range(lo + 1, hi + 1)]
            if hi + 1 < k:
                y.append(m[hi] * x[-1])
        x = y
    return lo, x


class _ProjectedQR:
    """Givens QR of the projected problem of one integer theta >= 1, grown
    one column per degree from a _Lanczos state's nested Cholesky factor
    T = L L^T, the one form of T it reads (Paige & Saunders' MINRES update,
    SIAM J. Numer. Anal. 12, 1975, for any theta).

    The factored matrix is B = P_theta[:, :N] (see _factored_column), with
    B^T B = T^theta on the first N columns, and the right-hand side
    -||R0|| P_(theta-2) e1, P_0 = I; for theta = 1 it is -||R0|| L^-1 e1,
    grown by one forward-sweep entry per column, and B = L^T needs no
    rotation. T is cut at the state's positive-definite prefix; there B has
    full column rank, so the QR is exact. Column j of B has rows
    j - ceil(theta/2) .. j + theta // 2, and its s = theta // 2 rotations
    pair row j with rows j + 1 .. j + s, so R has theta rows above its
    diagonal and a later column's rotations touch later rows only: R's
    leading N x N block and the rotated right-hand side's first N entries
    are the same bits however far the factorization has grown.
    """

    def __init__(self, theta):
        self.theta = theta
        self.s = theta // 2
        # column j: R's rows j - theta .. j; rotations: column j's s (c, sn)
        self.R = []
        self.rotations = []
        self.rhs = None

    def grow(self, st, k, n):
        """Factor columns up to n <= k of the first k steps of the state
        st's recurrence."""
        s, w = self.s, self.theta
        if self.rhs is None:
            self.rhs = [] if w == 1 else [
                -st.norm * v for v in _factored_column(st, k, 0, w - 2)[1]]
        rhs = self.rhs
        d, m = st.chol_diag, st.chol_sub
        while len(self.R) < n:
            j = len(self.R)
            lo, x = _factored_column(st, k, j, w)
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
            if w == 1:
                # entry j of the forward sweep L z = -||R0|| e1
                rhs.append(-m[j - 1] * rhs[-1] / d[j] if j
                           else -st.norm / d[0])
            else:
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
        w = self.theta
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

    The projected problem is solved in a square-rooted form (least squares
    on B = P_theta[:, :N], theta factors of the Cholesky factor T = L L^T
    that the prefix test grew, so B^T B = T^theta; the normal equations
    would square the condition number) by one Givens QR of B per theta that
    the recurrence stores, grown one column per new degree (Paige &
    Saunders, SIAM J. Numer. Anal. 12, 1975, carried from MINRES to every
    theta): a degree back-substitutes the leading N x N block of R, so a
    theta series costs one factorization as it costs one basis. At theta = 1
    B = L^T and the solve is CG's forward sweep on L and back sweep on L^T:
    run_cg's iterate, bit for bit. Later columns rotate later rows only, so
    the leading block is the same bits however far the factorization has
    grown, and the iterate does not depend on the calls made before.
    """
    if not (theta >= 1 and float(theta).is_integer()):
        raise ValueError(f"theta_iterate takes an integer theta >= 1, got "
                         f"{theta!r}; spectral_iterates takes any theta >= 0")
    _check_degree(N, problem.dimension)
    state = _lanczos_state(problem) if N else None
    if state is None:
        return problem._hand_out(problem.f0.copy())
    theta = int(theta)
    m = min(N + theta, problem.dimension)
    state.extend(m)
    k = state.cholesky(m)
    Nc = min(N, k)
    if Nc == 0:
        return problem._hand_out(problem.f0.copy())
    y = state.solve(theta, k, Nc)
    return problem._hand_out(problem.f0 + state.V[:, :Nc] @ y)


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
    return problem.operator.from_coefficients(
        problem._c0 + (p[problem.atom_index] - 1.0) * problem.e0)


def spectral_iterates(problem, theta, n_max):
    """f0 and the minimizers of degree 1..n_max, computed in the eigenbasis
    from one least-squares ladder; valid for any theta >= 0.

    The objective is a weighted polynomial least-squares problem on the
    eigenvalue atoms with weights lambda^theta |e0|^2; the optimal residual
    polynomial evaluated at the atoms transports e0 to e_N directly. Equal
    eigenvalues are one atom with their summed weight (a periodic
    surrogate's cosine and sine of one frequency), so the ladder runs on
    the distinct ones only.

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

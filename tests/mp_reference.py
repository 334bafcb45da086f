"""Oracles the tests check the library against, mostly in mpmath.

mpmath is a test dependency only: the library's own extended-precision
zero table runs in stdlib decimal, so its oracle here shares neither code
nor arithmetic library with it.

- reference_zero_table, for orthopoly._mp_zero_table: the Jacobi matrix
  from a fully reorthogonalized Stieltjes pass over mpmath lists, the zeros
  of every degree from a dense mp.eigsy of its leading block, and the split
  integrals tested for captured atoms against every zero. Same working
  precision and breakdown rule as the library. Slow (O(n^2 m) for the
  recurrence plus a dense eigensolve per degree), so tests keep it small.
- brute_force_iterate / brute_force_objective, for the weighted Krylov
  minimizers: the monomial normal equations solved at many digits.
- cg_reference, for krylov.run_cg: the three-term conjugate gradient
  loop with its own residual basis, reorthogonalized, and its own
  curvature test, so the Lanczos route run_cg takes is checked against a
  second Krylov process.
- lemma_bound, for the lemma verdict chain_table reports as lemma_ok on
  its weighted_left_bound operands: the same comparison made in double
  precision from the zero table's split integrals and delta_n, outside
  chain_table, with the mass below z_1 from mass_below, a strict tail sum
  of its own.
- exact_residual_sq, for diagnostics.rho's sigma = 2 on the matrix-free
  path: ||M x - g||^2 of the float data in exact integer arithmetic.

benchmark_dense_case loads the benchmark's dense pool member as a problem,
for the tests of the matrix-free routes.
"""

import importlib.util
import os
from fractions import Fraction

import numpy as np
from mpmath import mp

from powercg.krylov import (BREAKDOWN_REL, CG_TOL_REL, InverseProblem,
                            IterateHistory)
from powercg.linop import MatrixOperator, SpectralAccessError
from powercg.orthopoly import LEMMA_SLACK


def reference_zero_table(measure, n_max):
    """[(zeros rounded to double, (left, right) split integrals)] for
    degrees 1..reached, as the library's table."""
    lam = measure.support
    w = measure.weights
    m = lam.size
    n_max = min(n_max, m)
    wpos = w[w > 0]
    span = float(wpos.max() / wpos.min()) if wpos.size else 1.0
    dps = 40 + int(np.log10(max(span, 1.0)))
    with mp.workdps(dps):
        lamm = [mp.mpf(float(v)) for v in lam]
        wm = [mp.mpf(float(v)) for v in w]
        scale = max(lamm) if lamm else mp.mpf(1)
        tol = scale * mp.mpf(10) ** (-(dps - 10))
        q = [mp.mpf(1) / mp.sqrt(mp.fsum(wm))] * m
        Q = [q]
        alphas, betas = [], []
        for k in range(n_max):
            v = [lamm[j] * Q[k][j] for j in range(m)]
            if k > 0:
                v = [v[j] - betas[k - 1] * Q[k - 1][j] for j in range(m)]
            a = mp.fsum(wm[j] * v[j] * Q[k][j] for j in range(m))
            v = [v[j] - a * Q[k][j] for j in range(m)]
            for t in range(k + 1):
                c = mp.fsum(wm[j] * v[j] * Q[t][j] for j in range(m))
                v = [v[j] - c * Q[t][j] for j in range(m)]
            alphas.append(a)
            b = mp.sqrt(mp.fsum(wm[j] * v[j] * v[j] for j in range(m)))
            if k == n_max - 1:
                break
            if b <= tol:
                break
            betas.append(b)
            Q.append([v[j] / b for j in range(m)])
        table = []
        for N in range(1, len(alphas) + 1):
            T = mp.zeros(N)
            for k in range(N):
                T[k, k] = alphas[k]
                if k + 1 < N:
                    T[k, k + 1] = betas[k]
                    T[k + 1, k] = betas[k]
            ev = sorted(mp.eigsy(T, eigvals_only=True))
            table.append((np.array([float(e) for e in ev]),
                          _reference_split(ev, dps, measure)))
    return table


def _reference_split(zeros, dps, nu):
    """Both split integrals against the unrounded zeros; an atom within
    10^-(dps-15) relative of any zero has been captured and counts zero."""
    with mp.workdps(dps):
        z1 = zeros[0]
        cut = mp.mpf(10) ** (-(dps - 15))
        lhs = mp.mpf(0)
        rhs = mp.mpf(0)
        for lam_j, w_j in zip(nu.support, nu.weights):
            lj = mp.mpf(float(lam_j))
            if any(abs(lj - z) <= cut * max(lj, z) for z in zeros):
                continue
            term = mp.mpf(float(w_j)) * abs(1 - lj / z1)
            for z in zeros[1:]:
                fac = 1 - lj / z
                term *= fac * fac
            if lj < z1:
                lhs += term
            else:
                rhs += term
        return float(lhs), float(rhs)


def brute_force_iterate(problem, theta, N, dps=None):
    """Monomial-basis oracle in extended precision.

    Diagonalizes dense operators once, forms the weighted monomial normal
    equations exactly at dps digits, and solves by Cholesky with a shrinking
    fallback when the Krylov space saturates. Capped at dimension 64; the
    float64 monomial Gram already fails near degree 8, which is the reason
    this oracle exists. The default precision scales with N and the spectral
    range: the Gram condition grows like (lambda_max / lambda_min)^{2N}, and
    a fixed dps would turn its Cholesky failure into a silent fallback onto
    the previous degree.
    """
    if problem.dimension > 64:
        raise ValueError("brute_force_iterate is capped at dimension 64")
    if N == 0:
        return problem.f0.copy()
    op = problem.operator
    n = op.dimension
    if dps is None:
        if op.spectral:
            ev = np.abs(np.asarray(op.eigenvalues(), dtype=float))
        else:
            ev = np.abs(np.linalg.eigvalsh(op.matrix))
        pos = ev[ev > 1e-12 * max(float(ev.max()), 1e-300)]
        span = float(pos.max() / pos.min()) if pos.size else 1.0
        dps = max(50, int(2 * N * np.log10(max(span, 10.0)) + 80))
    with mp.workdps(dps):
        if op.spectral:
            lam_np = np.asarray(op.eigenvalues(), dtype=float)
            ker = op.kernel_mask()
            e0c = problem.error_coefficients(problem.f0)
            lam = [mp.mpf(float(lam_np[i])) for i in range(n)]
            e0 = [mp.mpf(float(e0c[i])) for i in range(n)]
            U = None
        else:
            M = mp.matrix([[mp.mpf(float(op.matrix[i, j])) for j in range(n)]
                           for i in range(n)])
            E, U = mp.eigsy(M)
            lam = [E[i] for i in range(n)]
            scale = max(abs(v) for v in lam)
            ker = np.array([abs(lam[i]) <= 1e-12 * scale for i in range(n)])
            cf0 = U.T * mp.matrix([mp.mpf(float(v)) for v in problem.f0])
            cg = U.T * mp.matrix([mp.mpf(float(v)) for v in problem.g])
            e0 = [mp.mpf(0) if ker[i] else cf0[i] - cg[i] / lam[i]
                  for i in range(n)]
        w = [mp.mpf(0) if ker[i]
             else lam[i] ** theta * e0[i] ** 2
             for i in range(n)]
        live = [i for i in range(n) if w[i] > 0]
        mom = [sum(w[i] * lam[i] ** k for i in live)
               for k in range(2 * N + 1)]

        def solve_block(nn):
            G = mp.matrix(nn, nn)
            for i in range(nn):
                for j in range(nn):
                    G[i, j] = mom[i + j + 2]
            rhs = mp.matrix(nn, 1)
            for i in range(nn):
                rhs[i] = -mom[i + 1]
            return mp.cholesky_solve(G, rhs)

        coeff = None
        for nn in range(N, 0, -1):
            try:
                coeff = solve_block(nn)
                break
            except Exception:
                continue
        if coeff is None:
            return problem.f0.copy()
        deg = coeff.rows

        def pval(i):
            acc = mp.mpf(1)
            pw = mp.mpf(1)
            for k in range(deg):
                pw = pw * lam[i]
                acc += coeff[k] * pw
            return acc

        if op.spectral:
            pvals = np.array([float(pval(i)) if not ker[i] else 1.0
                              for i in range(n)])
            cN = op.coefficients(problem.f0) + (pvals - 1.0) * e0c
            return op.from_coefficients(cN)
        delta = mp.matrix([(pval(i) - 1) * e0[i] for i in range(n)])
        dvec = U * delta
        return problem.f0 + np.array([float(dvec[i]) for i in range(n)])


def brute_force_objective(problem, theta, x, dps=50):
    """||A^{theta/2}(x - P x)||^2 at dps digits."""
    op = problem.operator
    if not op.spectral:
        raise SpectralAccessError("objective oracle needs spectral access")
    with mp.workdps(dps):
        lam = op.eigenvalues()
        e = problem.error_coefficients(x)
        ker = op.kernel_mask()
        total = mp.mpf(0)
        for i in range(op.dimension):
            if ker[i]:
                continue
            total += mp.mpf(float(lam[i])) ** theta * mp.mpf(float(e[i])) ** 2
        return float(total)


def _orthogonalize(B, v):
    """v minus its projection on the orthonormal columns of B, in two passes
    of classical Gram-Schmidt."""
    for _ in range(2):
        v = v - B @ (B.T @ v)
    return v


def cg_reference(problem, n_max):
    """Conjugate gradients from f0, residual sign R = A f - g.

    Residuals are reorthogonalized against all previous ones; at condition
    numbers around 1e6 plain CG iterates drift from the exact Krylov
    minimizer by order one while the reorthogonalized ones stay at 1e-12
    (cost O(N^2 n), harmless here). Stops early when
    ||R|| <= CG_TOL_REL ||g|| or on curvature breakdown.
    """
    if n_max > problem.dimension:
        raise ValueError(
            f"n_max {n_max} exceeds dimension {problem.dimension}")
    op = problem.operator
    f = problem.f0.astype(float).copy()
    hist = IterateHistory([f.copy()])
    threshold = CG_TOL_REL * float(np.linalg.norm(problem.g))
    crv_tol = BREAKDOWN_REL * max(op.norm_estimate(), 1e-300)
    r = problem.g - op.apply(f)
    rr = float(np.dot(r, r))
    if np.sqrt(rr) <= threshold:
        hist.terminated = True
        hist.reason = "converged at N=0"
        return hist
    p = r.copy()
    # column k holds the normalized residual of step k
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
        if np.sqrt(rr_new) <= threshold:
            hist.terminated = True
            hist.reason = f"converged at N={N}"
            return hist
        basis[:, N] = r_new / np.sqrt(rr_new)
        p = r_new + (rr_new / rr) * p
        r = r_new
        rr = rr_new
    return hist


def mass_below(measure, t):
    """Measure of [0, t), the strict lower tail."""
    return float(measure.weights[measure.support < t].sum())


def lemma_bound(table, N, mu_sigma, xi, sigma):
    """Weighted left integral against the mass-below bound at degree N of
    the zero table.

    lhs = integral over [0, z1) of s^2 * z1/(z1 - lambda) d nu, with nu the
    measure the table is orthogonal to (lambda^q mu_sigma),
    rhs = mu_sigma([0, z1)) * (q / delta_n)^q with q = xi - sigma + 1 >= 0.
    Returns (lhs, rhs, satisfied with slack 1 + LEMMA_SLACK).
    """
    q = xi - sigma + 1.0
    if q < 0:
        raise ValueError(f"requires xi - sigma + 1 >= 0, got {q}")
    lhs = table.left[N - 1]
    below = mass_below(mu_sigma, table.zeros[N - 1][0])
    rhs = below * (q / table.delta[N - 1]) ** q
    return lhs, rhs, lhs <= rhs * (1.0 + LEMMA_SLACK)


# every finite double is an integer times 2^-_EXP
_EXP = 1074


def _scaled(values):
    return [int(Fraction(v) * 2 ** _EXP) for v in np.asarray(values).tolist()]


def exact_residual_sq(matrix, g):
    """x -> ||matrix @ x - g||^2, computed exactly from the float entries
    and rounded once to a float."""
    rows = [_scaled(row) for row in matrix]
    gs = [v << _EXP for v in _scaled(g)]

    def residual_sq(x):
        xs = _scaled(x)
        r = [sum(m * v for m, v in zip(row, xs)) - gi
             for row, gi in zip(rows, gs)]
        return float(Fraction(sum(ri * ri for ri in r), 2 ** (4 * _EXP)))
    return residual_sq


def benchmark_dense_case(n, kernel, index, known_solution=True):
    """perfbench/workloads.dense_case as an InverseProblem, with its known
    solution unless known_solution is False."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    M, sol = wl.dense_case(n, kernel, index)
    return InverseProblem(MatrixOperator(M), g=M @ sol,
                          known_solution=sol if known_solution else None)

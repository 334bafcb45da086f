"""Reference route for the extended-precision zero table of small measures.

An independent oracle for orthopoly._mp_zero_table: the Jacobi matrix from a
fully reorthogonalized Stieltjes pass over mpmath lists, the zeros of every
degree from a dense mp.eigsy of its leading block, and the split integrals
tested for captured atoms against every zero. Same working precision and
breakdown rule as the library; none of its code. Slow (O(n^2 m) for the
recurrence plus a dense eigensolve per degree), so tests keep it small.
"""

import numpy as np
from mpmath import mp


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

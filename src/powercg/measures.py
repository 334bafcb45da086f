"""Discrete spectral measures: atoms on the non-negative axis.

The measure attached to (A, x) puts weight |<x, phi_j>|^2 on eigenvalue
lambda_j. Everything downstream (orthogonal polynomials, error functionals,
bounds) is an integral against such a measure or a power-reweighted copy.
"""

import numpy as np

# atoms closer than MERGE_REL * max(1, lambda) merge into one
MERGE_REL = 1e-12
# weights at or below this are dropped outright
WEIGHT_FLOOR = 1e-300


class DiscreteSpectralMeasure:
    """Finitely many atoms (support[i], weights[i]), support ascending."""

    def __init__(self, support, weights):
        lam = np.asarray(support, dtype=float)
        w = np.asarray(weights, dtype=float)
        if lam.shape != w.shape or lam.ndim != 1:
            raise ValueError(
                f"support/weights shape mismatch: {lam.shape} vs {w.shape}")
        if lam.size and not (np.all(np.isfinite(lam)) and np.all(np.isfinite(w))):
            raise ValueError("support and weights must be finite")
        if np.any(lam < 0):
            raise ValueError(f"negative support point: {lam.min()}")
        if np.any(w < 0):
            raise ValueError(f"negative weight: {w.min()}")
        keep = w > WEIGHT_FLOOR
        lam, w = lam[keep], w[keep]
        order = np.argsort(lam, kind="stable")
        lam, w = lam[order], w[order]
        # merge near-coincident atoms, summing weight; an atom joins a
        # cluster by its distance to the cluster's first atom, so the loop
        # only runs when some consecutive gap is within reach
        if np.any(np.diff(lam) <= MERGE_REL * np.maximum(1.0, lam[1:])):
            out_l = [lam[0]]
            out_w = [w[0]]
            for li, wi in zip(lam[1:], w[1:]):
                if li - out_l[-1] <= MERGE_REL * max(1.0, li):
                    out_w[-1] += wi
                else:
                    out_l.append(li)
                    out_w.append(wi)
            lam = np.array(out_l)
            w = np.array(out_w)
        self.support = lam
        self.weights = w

    def __len__(self):
        return self.support.size

    def __repr__(self):
        return (f"DiscreteSpectralMeasure({len(self)} atoms, "
                f"mass={self.total_mass():.6g})")

    def total_mass(self):
        return float(self.weights.sum())


def spectral_measure(op, x):
    """Measure of (A, x): weight |c_j|^2 at lambda_j. Needs spectral access.

    Kernel-eigenvalue atoms below the squared coefficient floor
    (|c_j| <= 1e-12 ||x||, the same relative cutoff the operator uses to
    call an eigenvalue zero) are dropped: they are roundoff, and keeping
    them would put spurious mass at 0 on kernel-orthogonal vectors.
    """
    c = op.coefficients(x)
    w = np.abs(c) ** 2
    ker = op.kernel_mask()
    if ker.any():
        floor = (1e-12) ** 2 * float(w.sum())
        w = np.where(ker & (w <= floor), 0.0, w)
    return DiscreteSpectralMeasure(op.eigenvalues(), w)


def weight_by_power(measure, t):
    """New measure with weights lambda^t * w.

    t < 0 requires no atom at zero. t = 0 returns a copy (the zero atom
    keeps its weight, lambda^0 = 1).
    """
    lam = measure.support
    w = measure.weights
    if t < 0 and lam.size and lam[0] == 0.0:
        raise ValueError(
            f"lambda^{t} weighting undefined: atom at 0 with weight {w[0]:.6e}")
    if t == 0:
        return DiscreteSpectralMeasure(lam, w)
    # 0^t = 0 for t > 0 drops a kernel atom naturally
    out = np.empty_like(w)
    pos = lam > 0
    out[pos] = lam[pos] ** t * w[pos]
    out[~pos] = 0.0
    return DiscreteSpectralMeasure(lam, out)


def mass_below(measure, t):
    """Measure of [0, t), the strict lower tail."""
    return float(measure.weights[measure.support < t].sum())

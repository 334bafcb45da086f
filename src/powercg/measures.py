"""Discrete spectral measures: atoms on the non-negative axis.

The measure attached to (A, x) puts weight |<x, phi_j>|^2 on eigenvalue
lambda_j. Everything downstream (orthogonal polynomials, error functionals,
bounds) is an integral against such a measure or a power-reweighted copy.
"""

import numpy as np

# atoms closer than MERGE_REL * lambda merge into one
MERGE_REL = 1e-12
# weights at or below this are dropped outright
WEIGHT_FLOOR = 1e-300


class DiscreteSpectralMeasure:
    """Finitely many atoms (support[i], weights[i]), support ascending. The
    constructor checks its input, drops weights at or below WEIGHT_FLOOR,
    sums equal points' weights in index order and merges within MERGE_REL."""

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
        lam, inverse = np.unique(lam[keep], return_inverse=True)
        w = np.bincount(inverse, weights=w[keep], minlength=lam.size)
        # merge near-coincident atoms, summing weight; an atom joins a
        # cluster by its distance to the cluster's first atom, so the loop
        # only runs when some consecutive gap is within reach (equal atoms
        # are already one)
        if np.any(np.diff(lam) <= MERGE_REL * lam[1:]):
            out_l = [lam[0]]
            out_w = [w[0]]
            for li, wi in zip(lam[1:], w[1:]):
                if li - out_l[-1] <= MERGE_REL * li:
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


def _power_weights(lam, t, w):
    """lam^t * w, raising one ValueError that names the exponent and the
    eigenvalue (largest for t > 0, smallest for t < 0) where it overflows,
    or the exponent alone where it is not finite."""
    if not np.isfinite(t):
        raise ValueError(f"lambda^t weighting needs a finite exponent, "
                         f"got t = {t}")
    with np.errstate(over="raise"):
        try:
            return lam ** t * w
        except FloatingPointError:
            edge, at = (("largest", lam.max()) if t > 0
                        else ("smallest", lam.min()))
            raise ValueError(
                f"lambda^t weighting overflows: exponent t = {t:g} at the "
                f"{edge} eigenvalue {float(at):.6e}") from None


def weight_by_power(measure, t):
    """New measure with weights lambda^t * w on measure's atoms, less those
    at or below WEIGHT_FLOOR. It is not grouped or merged again: dropping
    atoms keeps a merged support merged, as gaps between atoms only grow.

    t < 0 requires no atom at zero. t = 0 returns a copy (the zero atom
    keeps its weight, lambda^0 = 1).
    """
    lam = measure.support
    w = measure.weights
    if t < 0 and lam.size and lam[0] == 0.0:
        raise ValueError(
            f"lambda^{t} weighting undefined: atom at 0 with weight {w[0]:.6e}")
    # 0^t = 0 for t > 0 drops a kernel atom naturally
    w = _power_weights(lam, t, w)
    keep = w > WEIGHT_FLOOR
    out = DiscreteSpectralMeasure.__new__(DiscreteSpectralMeasure)
    out.support, out.weights = lam[keep], w[keep]
    return out


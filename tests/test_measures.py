import numpy as np
import pytest

import powercg as pc
from powercg.measures import DiscreteSpectralMeasure, weight_by_power

from mp_reference import mass_below, spectral_measure


def test_spectral_measure_hand():
    op = pc.DiagonalOperator(np.array([1.0, 2.0]))
    mu = spectral_measure(op, np.array([1.0, 2.0]))
    assert np.array_equal(mu.support, [1.0, 2.0])
    assert np.array_equal(mu.weights, [1.0, 4.0])
    assert mu.total_mass() == 5.0


def test_total_mass_is_norm_squared():
    op = pc.FourierOperator(64, 3.0, shift=1.0)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(64)
    mu = spectral_measure(op, x)
    n2 = float(np.dot(x, x))
    assert abs(mu.total_mass() - n2) <= 1e-12 * n2


def test_equal_eigenvalues_merge():
    op = pc.DiagonalOperator(np.array([1.0, 1.0, 2.0]))
    mu = spectral_measure(op, np.array([1.0, 1.0, 2.0]))
    assert np.array_equal(mu.support, [1.0, 2.0])
    assert np.array_equal(mu.weights, [2.0, 4.0])


def test_near_equal_eigenvalues_merge():
    m = DiscreteSpectralMeasure(np.array([1.0, 1.0 + 1e-15, 2.0]),
                                np.array([1.0, 1.0, 1.0]))
    assert len(m) == 2
    assert m.weights[0] == 2.0


def test_merge_measures_distance_to_cluster_start():
    # 1 + 0.6e-12 joins the atom at 1; 1 + 1.2e-12 is within reach of its
    # predecessor but not of the cluster's first atom, so it stays apart
    m = DiscreteSpectralMeasure(np.array([1.0, 1.0 + 0.6e-12, 1.0 + 1.2e-12]),
                                np.array([1.0, 1.0, 1.0]))
    assert np.array_equal(m.support, [1.0, 1.0 + 1.2e-12])
    assert np.array_equal(m.weights, [2.0, 1.0])


def test_zero_weight_atoms_dropped():
    m = DiscreteSpectralMeasure(np.array([1.0, 2.0, 3.0]),
                                np.array([1.0, 0.0, 1e-301]))
    assert np.array_equal(m.support, [1.0])


def test_no_atom_at_zero_for_kernel_orthogonal_vector():
    op = pc.FourierOperator(32, 2.0, shift=0.0)
    x = np.sin(np.pi * op.grid() / 2.0)  # mean-free
    mu = spectral_measure(op, x)
    assert mu.support[0] > 0.0


def test_weight_by_power_hand():
    m = DiscreteSpectralMeasure(np.array([1.0, 2.0]), np.array([1.0, 4.0]))
    nu = weight_by_power(m, 2.0)
    assert np.array_equal(nu.support, [1.0, 2.0])
    assert np.array_equal(nu.weights, [1.0, 16.0])
    same = weight_by_power(m, 0.0)
    assert np.array_equal(same.weights, m.weights)
    for t in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite exponent"):
            weight_by_power(m, t)


def test_weight_by_power_kills_zero_atom_for_positive_power():
    m = DiscreteSpectralMeasure(np.array([0.0, 2.0]), np.array([3.0, 4.0]))
    nu = weight_by_power(m, 1.0)
    assert np.array_equal(nu.support, [2.0])
    assert np.array_equal(nu.weights, [8.0])


def test_weight_by_power_negative_rejects_zero_atom():
    m = DiscreteSpectralMeasure(np.array([0.0, 2.0]), np.array([3.0, 4.0]))
    with pytest.raises(ValueError):
        weight_by_power(m, -1.0)


def test_mass_below_strict():
    m = DiscreteSpectralMeasure(np.array([1.0, 2.0, 3.0]),
                                np.array([1.0, 1.0, 1.0]))
    assert mass_below(m, 2.0) == 1.0  # strict inequality
    assert mass_below(m, 2.0 + 1e-12) == 2.0
    assert mass_below(m, 0.5) == 0.0


def test_measure_respects_fractional_power_transport():
    # weights of A x are lambda^2 times the weights of x
    op = pc.DiagonalOperator(np.array([0.5, 1.0, 4.0]))
    x = np.array([1.0, 2.0, 3.0])
    mu = spectral_measure(op, x)
    y = op.apply(x)
    mu_y = spectral_measure(op, y)
    want = weight_by_power(mu, 2.0)
    assert np.allclose(mu_y.support, want.support)
    assert np.allclose(mu_y.weights, want.weights, rtol=1e-12)


def test_sorted_support():
    m = DiscreteSpectralMeasure(np.array([3.0, 1.0, 2.0]),
                                np.array([1.0, 1.0, 1.0]))
    assert np.array_equal(m.support, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("support, weights", [
    ([1.0, 2.0], [1.0]),
    ([[1.0], [2.0]], [[1.0], [1.0]]),
    ([1.0, np.nan], [1.0, 1.0]),
    ([1.0, 2.0], [np.inf, 1.0]),
    ([-1.0, 2.0], [1.0, 1.0]),
    ([1.0, 2.0], [1.0, -1.0]),
], ids=["shape-mismatch", "not-1d", "non-finite-support",
        "non-finite-weight", "negative-support", "negative-weight"])
def test_measure_rejects_malformed_atoms(support, weights):
    with pytest.raises(ValueError) as info:
        DiscreteSpectralMeasure(np.array(support), np.array(weights))
    assert info.type is ValueError

"""Power-of-two rescaling brings data to peak in [0.5, 1), exactly."""

import numpy as np

from repro.geometry.scale import power_of_two_scale


def test_scaled_data_peaks_in_half_open_unit_octave():
    rng = np.random.default_rng(3)
    for exponent in (-40, -20, -1, 0, 3):
        points = np.ldexp(rng.random((50, 3)), exponent)
        targets = np.ldexp(rng.random((7, 3)), exponent)
        scale = power_of_two_scale(points, targets)
        peak = max(np.abs(points).max(), np.abs(targets).max()) * scale
        assert 0.5 <= peak < 1.0
        # Exact: scaling back recovers every bit.
        assert np.array_equal(points * scale / scale, points)


def test_unit_octave_zero_and_empty_data_keep_scale_one():
    assert power_of_two_scale(np.array([[0.5, 0.99]])) == 1.0
    assert power_of_two_scale(np.zeros((3, 2))) == 1.0
    assert power_of_two_scale(np.empty((0, 2))) == 1.0


def test_extreme_magnitudes_stay_finite():
    tiny = power_of_two_scale(np.array([1e-310]))
    huge = power_of_two_scale(np.array([1e308]))
    assert np.isfinite(tiny) and np.isfinite(huge)
    # Brought part of the way: still finite and nearer the unit octave.
    assert 1e-310 < 1e-310 * tiny < 1.0
    assert 1.0 < 1e308 * huge < 1e308

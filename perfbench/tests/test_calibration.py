"""Smoothing of the machine-speed samples."""

import pytest

import calibration


def test_speed_around_each_operation():
    # sample i precedes operation i; the last sample follows the last operation
    samples = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert calibration.speeds(samples, window=1) == pytest.approx([1.5, 2.5, 3.5, 4.5])
    assert calibration.speeds(samples, window=2) == pytest.approx([2.0, 2.5, 3.5, 4.0])


def test_sample_is_a_positive_ratio():
    assert 0.0 < calibration.sample() < 1e3

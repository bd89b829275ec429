"""Scaling a measured time to the reference host speed."""

import pytest

from speed import REFERENCE_S, scaled


def test_at_reference_speed_time_is_unchanged():
    assert scaled(1.5, REFERENCE_S, REFERENCE_S) == pytest.approx(1.5)


def test_a_host_twice_as_slow_halves_the_time():
    assert scaled(3.0, 2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(1.5)


def test_probes_before_and_after_are_averaged_geometrically():
    assert scaled(2.0, REFERENCE_S, 4 * REFERENCE_S) == pytest.approx(1.0)

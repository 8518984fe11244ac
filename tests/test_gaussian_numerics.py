import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtr, ndtri

from threshold_lab import normal_cdf, normal_quantile


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_textbook_points(self):
        assert normal_cdf(1.6448536269514722) == pytest.approx(0.95, abs=1e-12)
        assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
        assert normal_cdf(-2.3263478740408408) == pytest.approx(0.01, abs=1e-12)

    def test_matches_reference_within_spec_band(self):
        zs = np.linspace(-8.0, 8.0, 40001)
        got = np.array([normal_cdf(z) for z in zs])
        assert np.max(np.abs(got - ndtr(zs))) < 1e-12

    @given(st.floats(-8.0, 8.0))
    def test_reflection(self, z):
        assert abs(normal_cdf(z) + normal_cdf(-z) - 1.0) < 1e-13

    def test_monotone(self):
        # adjacent values can collide with the ulp grid once |z| > ~7.8, so
        # strictness is only meaningful on the slightly narrower range
        zs = np.linspace(-8.0, 8.0, 8001)
        vals = [normal_cdf(z) for z in zs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        inner = [v for z, v in zip(zs, vals) if -7.0 <= z <= 7.0]
        assert all(a < b for a, b in zip(inner, inner[1:]))

    def test_open_unit_interval_on_working_range(self):
        for z in (-8.0, -6.5, 0.0, 6.5, 8.0):
            assert 0.0 < normal_cdf(z) < 1.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            normal_cdf(float("nan"))
        with pytest.raises(ValueError):
            normal_cdf(float("inf"))


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_textbook_points(self):
        assert normal_quantile(0.975) == pytest.approx(1.95996, abs=1e-5)
        assert normal_quantile(0.99) == pytest.approx(2.32635, abs=1e-5)
        assert normal_quantile(0.05) == pytest.approx(-1.64485, abs=1e-5)

    def test_matches_reference_within_spec_band(self):
        qs = np.concatenate(
            [
                np.geomspace(1e-10, 0.02, 4000),
                np.linspace(0.02, 0.98, 8001),
                1.0 - np.geomspace(1e-10, 0.02, 4000),
            ]
        )
        worst = max(abs(normal_quantile(q) - ndtri(q)) for q in qs)
        assert worst < 1e-14

    def test_deep_lower_tail_matches_reference(self):
        qs = np.geomspace(1e-300, 1e-10, 4000)
        worst = max(abs(normal_quantile(q) / ndtri(q) - 1.0) for q in qs)
        assert worst < 4e-15

    def test_round_trip_through_cdf(self):
        zs = np.arange(-6.0, 6.0 + 1e-9, 0.01)
        worst = max(abs(normal_quantile(normal_cdf(z)) - z) for z in zs)
        assert worst < 1e-8

    @given(st.floats(1e-4, 0.5))
    def test_symmetry(self, q):
        # below q ~ 1e-4 the rounding of the literal 1.0 - q dominates: the
        # stored complement is off by up to half an ulp of 1.0, which alone
        # moves the quantile by more than this bound
        assert abs(normal_quantile(q) + normal_quantile(1.0 - q)) < 1e-10

    def test_strictly_increasing(self):
        qs = np.linspace(1e-8, 1.0 - 1e-8, 20001)
        vals = [normal_quantile(q) for q in qs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_out_of_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5, float("nan")):
            with pytest.raises(ValueError):
                normal_quantile(bad)

    def test_deep_tail_round_trip(self):
        # lower tail: q ~ 1e-13 is still finely representable, so the round
        # trip stays sharp even past the central working range
        for z in (-7.5, -7.0, -6.5):
            assert normal_quantile(normal_cdf(z)) == pytest.approx(z, abs=1e-8)
        # upper tail: cdf(7) = 1 - 1.3e-12 is pinned to the ulp grid of 1.0,
        # and that storage error alone costs ~6e-6 in the recovered z
        assert normal_quantile(normal_cdf(7.0)) == pytest.approx(7.0, abs=2e-5)


def test_inverse_pair_consistency():
    # cdf(quantile(q)) == q to near working precision across the central range
    for q in np.linspace(0.001, 0.999, 999):
        assert normal_cdf(normal_quantile(q)) == pytest.approx(q, abs=1e-12)

"""Tests for cross-rate BER prediction."""

import pytest
from hypothesis import given, strategies as st

from repro.core.prediction import (BER_CEILING, BER_FLOOR, predict_ber)


class TestPrediction:
    def test_one_step_up_is_10x(self):
        assert predict_ber(1e-5, 2, 3) == pytest.approx(1e-4)

    def test_one_step_down_is_tenth(self):
        assert predict_ber(1e-5, 2, 1) == pytest.approx(1e-6)

    def test_same_rate_identity(self):
        assert predict_ber(3e-4, 2, 2) == pytest.approx(3e-4)

    def test_two_step_jump(self):
        assert predict_ber(1e-6, 1, 3) == pytest.approx(1e-4)

    def test_ceiling(self):
        assert predict_ber(0.2, 0, 3) == BER_CEILING

    def test_floor(self):
        assert predict_ber(1e-11, 3, 0) == BER_FLOOR

    def test_custom_separation(self):
        assert predict_ber(1e-4, 0, 1, separation=100.0) == \
            pytest.approx(1e-2)

    def test_validation(self):
        with pytest.raises(ValueError):
            predict_ber(1.5, 0, 1)
        for separation in (0.5, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="separation"):
                predict_ber(1e-4, 0, 1, separation=separation)


@given(st.floats(min_value=1e-10, max_value=0.4),
       st.integers(0, 5), st.integers(0, 5))
def test_monotone_in_rate_property(ber, i, j):
    # Higher rate must never be predicted to have lower BER.
    if i <= j:
        assert predict_ber(ber, i, j) >= ber * (1 - 1e-12)
    else:
        assert predict_ber(ber, i, j) <= ber * (1 + 1e-12)


@given(st.floats(min_value=1e-8, max_value=1e-3), st.integers(0, 4))
def test_roundtrip_property(ber, i):
    # Predicting up one rate then back down returns the original
    # (within clipping).
    up = predict_ber(ber, i, i + 1)
    back = predict_ber(up, i + 1, i)
    assert back == pytest.approx(ber, rel=1e-9)

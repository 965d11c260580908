"""Tests for SoftPHY hint to BER conversion (paper Eq. 1-4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hints import (error_probabilities, frame_ber_estimate,
                              hints_from_llrs, symbol_ber_profile)


class TestHintsFromLlrs:
    def test_magnitudes(self):
        llrs = np.array([-3.0, 0.0, 5.0])
        assert np.array_equal(hints_from_llrs(llrs), [3.0, 0.0, 5.0])


class TestErrorProbabilities:
    def test_eq3_values(self):
        # p = 1 / (1 + e^s): s=0 -> 0.5 (no information), large s -> ~0.
        p = error_probabilities(np.array([0.0, np.log(3), 20.0]))
        assert p[0] == pytest.approx(0.5)
        assert p[1] == pytest.approx(0.25)       # 1/(1+3)
        assert p[2] == pytest.approx(np.exp(-20), rel=1e-6)

    def test_monotone_decreasing(self):
        s = np.linspace(0, 30, 100)
        p = error_probabilities(s)
        assert np.all(np.diff(p) < 0)

    def test_huge_hints_stable(self):
        p = error_probabilities(np.array([1000.0]))
        assert p[0] == 0.0  # underflows cleanly, no overflow warnings

    def test_negative_hint_rejected(self):
        with pytest.raises(ValueError):
            error_probabilities(np.array([-1.0]))

    def test_nan_hint_rejected(self):
        # NaN passes a ``hints < 0`` test; it must not reach p_k.
        with pytest.raises(ValueError):
            error_probabilities(np.array([0.5, np.nan]))
        with pytest.raises(ValueError):
            frame_ber_estimate(np.array([np.nan]))

    def test_infinite_hint_is_certainty(self):
        assert error_probabilities(np.array([np.inf]))[0] == 0.0

    @given(st.floats(min_value=0, max_value=100))
    def test_range_property(self, s):
        p = error_probabilities(np.array([s]))[0]
        assert 0.0 <= p <= 0.5


class TestFrameBer:
    def test_average(self):
        hints = np.array([0.0, 0.0])     # both bits are coin flips
        assert frame_ber_estimate(hints) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            frame_ber_estimate(np.array([]))

    def test_error_free_frame_nonzero_estimate(self):
        # Finite hints always give a nonzero BER estimate — the paper's
        # "estimate channel BER even using a frame received with no
        # errors".
        hints = np.full(1000, 12.0)
        estimate = frame_ber_estimate(hints)
        assert 0 < estimate < 1e-4


class TestSymbolProfile:
    def test_eq4_per_symbol_means(self):
        hints = np.array([0.0, 0.0, 20.0, 20.0])
        info_symbol = np.array([0, 0, 1, 1])
        profile = symbol_ber_profile(hints, info_symbol, 2)
        assert profile[0] == pytest.approx(0.5)
        assert profile[1] == pytest.approx(np.exp(-20), rel=1e-5)

    def test_empty_symbol_inherits_previous(self):
        hints = np.array([0.0, 0.0])
        info_symbol = np.array([0, 0])
        profile = symbol_ber_profile(hints, info_symbol, 3)
        assert profile[1] == profile[0]
        assert profile[2] == profile[0]

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            symbol_ber_profile(np.zeros(3), np.zeros(4, dtype=int), 2)
        with pytest.raises(ValueError):
            symbol_ber_profile(np.zeros(3), np.zeros(3, dtype=int), 0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 30), st.integers(0, 2**32 - 1))
    def test_profile_mean_matches_frame_ber(self, n_symbols, per_symbol,
                                            seed):
        # When every symbol carries the same number of bits, the mean
        # of the per-symbol profile equals the frame BER estimate.
        rng = np.random.default_rng(seed)
        hints = rng.uniform(0, 20, size=n_symbols * per_symbol)
        info_symbol = np.repeat(np.arange(n_symbols), per_symbol)
        profile = symbol_ber_profile(hints, info_symbol, n_symbols)
        assert np.mean(profile) == pytest.approx(
            frame_ber_estimate(hints), rel=1e-9)

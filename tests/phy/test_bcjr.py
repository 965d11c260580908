"""Tests for the soft-output BCJR decoder (the SoftPHY hint source)."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy import bits as bitutil
from repro.phy.bcjr import _butterfly, bcjr_decode
from repro.phy.convcode import ConvolutionalCode, depuncture, puncture
from repro.phy.viterbi import viterbi_decode


def _to_llrs(coded_bits, magnitude=4.0):
    return magnitude * (2.0 * coded_bits.astype(np.float64) - 1.0)


def _noisy_llrs(coded_bits, snr_db, rng):
    """BPSK-over-AWGN channel LLRs with true statistics."""
    snr = 10 ** (snr_db / 10)
    x = 2.0 * coded_bits.astype(np.float64) - 1.0
    noise = rng.normal(0, np.sqrt(1 / (2 * snr)), size=x.size)
    y = x + noise
    return 4.0 * snr * y / 2.0 * 2.0 / 2.0  # 2y/sigma^2 with Es=1


@pytest.fixture(scope="module")
def code():
    return ConvolutionalCode()


class TestCleanDecoding:
    @pytest.mark.parametrize("variant", ["log-map", "max-log-map"])
    def test_recovers_clean_stream(self, code, variant):
        rng = np.random.default_rng(0)
        info = bitutil.random_bits(150, rng)
        result = bcjr_decode(code, _to_llrs(code.encode(info)), variant)
        assert np.array_equal(result.bits, info)

    def test_llr_signs_match_bits(self, code):
        rng = np.random.default_rng(1)
        info = bitutil.random_bits(100, rng)
        result = bcjr_decode(code, _to_llrs(code.encode(info)))
        assert np.array_equal((result.llrs >= 0).astype(np.uint8),
                              result.bits)

    def test_clean_input_high_confidence(self, code):
        rng = np.random.default_rng(2)
        info = bitutil.random_bits(100, rng)
        result = bcjr_decode(code, _to_llrs(code.encode(info), 8.0))
        assert np.abs(result.llrs).min() > 10.0

    @pytest.mark.parametrize("rate", [Fraction(2, 3), Fraction(3, 4)])
    def test_decodes_through_puncturing(self, code, rate):
        rng = np.random.default_rng(3)
        info = bitutil.random_bits(120, rng)
        coded = code.encode(info)
        llrs = depuncture(_to_llrs(puncture(coded, rate)), coded.size, rate)
        assert np.array_equal(bcjr_decode(code, llrs).bits, info)


class TestSoftness:
    def test_confidence_drops_near_weak_input(self, code):
        # Bits near a zeroed-out (erased) region must have lower
        # posterior confidence than bits in the clean region.
        rng = np.random.default_rng(4)
        info = bitutil.random_bits(300, rng)
        llrs = _to_llrs(code.encode(info))
        llrs[200:260] = 0.0
        result = bcjr_decode(code, llrs)
        hints = np.abs(result.llrs)
        weak = hints[100:130].mean()     # inside the erased bit range
        strong = hints[:50].mean()
        assert weak < strong

    def test_posterior_is_calibrated_on_awgn(self, code):
        # The average of p_k = 1/(1+e^|llr|) over many noisy frames
        # must approximate the actual bit error rate — the foundation
        # of the whole paper (Fig. 7).
        rng = np.random.default_rng(5)
        est, true = [], []
        for _ in range(30):
            info = bitutil.random_bits(200, rng)
            coded = code.encode(info)
            snr = 10 ** (0.5 / 10)  # 0.5 dB: a lossy operating point
            x = 2.0 * coded.astype(np.float64) - 1.0
            sigma2 = 1 / snr
            y = x + rng.normal(0, np.sqrt(sigma2 / 2), size=x.size)
            llrs = 4.0 * y / sigma2 * 0.5
            result = bcjr_decode(code, llrs)
            p = 1.0 / (1.0 + np.exp(np.abs(result.llrs)))
            est.append(p.mean())
            true.append(np.mean(result.bits != info))
        est_ber, true_ber = np.mean(est), np.mean(true)
        assert true_ber > 0, "operating point should produce errors"
        assert 0.3 < est_ber / true_ber < 3.0

    def test_matches_viterbi_decisions_at_high_confidence(self, code):
        rng = np.random.default_rng(6)
        info = bitutil.random_bits(200, rng)
        coded = code.encode(info).astype(np.float64)
        llrs = _to_llrs(coded, 3.0)
        llrs += rng.normal(0, 1.0, size=llrs.size)
        soft = bcjr_decode(code, llrs)
        hard = viterbi_decode(code, llrs)
        confident = np.abs(soft.llrs) > 5.0
        assert np.array_equal(soft.bits[confident], hard[confident])


class TestVariants:
    def test_max_log_close_to_log_map(self, code):
        rng = np.random.default_rng(7)
        info = bitutil.random_bits(150, rng)
        llrs = _to_llrs(code.encode(info), 2.0)
        llrs += rng.normal(0, 1.5, size=llrs.size)
        exact = bcjr_decode(code, llrs, "log-map")
        approx = bcjr_decode(code, llrs, "max-log-map")
        agree = np.mean(exact.bits == approx.bits)
        assert agree > 0.97

    def test_unknown_variant_rejected(self, code):
        with pytest.raises(ValueError):
            bcjr_decode(code, np.zeros(40), variant="turbo")


class TestValidation:
    def test_odd_length_rejected(self, code):
        with pytest.raises(ValueError):
            bcjr_decode(code, np.zeros(11))

    def test_too_short_rejected(self, code):
        with pytest.raises(ValueError):
            bcjr_decode(code, np.zeros(8))

    def test_non_butterfly_trellis_rejected(self):
        # The kernel relies on next_state[s, b] == b * S/2 + s // 2.
        code = ConvolutionalCode(3, (0o7, 0o5))
        code.trellis = dataclasses.replace(
            code.trellis, next_state=code.trellis.next_state[:, ::-1])
        with pytest.raises(ValueError, match="butterfly"):
            bcjr_decode(code, np.zeros(20))

    def test_tables_built_once_per_code(self, code):
        bcjr_decode(code, np.zeros(20))
        assert _butterfly(code) is _butterfly(code)
        assert _butterfly(ConvolutionalCode()) is not _butterfly(code)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=100), st.integers(0, 2**32 - 1))
def test_clean_roundtrip_property(n_bits, seed):
    code = ConvolutionalCode()
    rng = np.random.default_rng(seed)
    info = bitutil.random_bits(n_bits, rng)
    result = bcjr_decode(code, _to_llrs(code.encode(info)))
    assert np.array_equal(result.bits, info)

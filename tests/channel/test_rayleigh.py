"""Tests for the Zheng-Xiao Rayleigh fading simulator."""

import numpy as np
import pytest

from repro.channel.rayleigh import (RayleighFadingProcess, coherence_time,
                                    doppler_for_coherence)


class TestCoherenceTime:
    def test_inverse_pair(self):
        assert doppler_for_coherence(coherence_time(40.0)) == \
            pytest.approx(40.0)

    def test_paper_rules_of_thumb(self):
        # Paper footnote 2: Doppler 40 Hz -> ~10 ms coherence;
        # 4 kHz -> ~100 us.
        assert coherence_time(40.0) == pytest.approx(10e-3, rel=0.1)
        assert coherence_time(4000.0) == pytest.approx(100e-6, rel=0.1)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            coherence_time(0.0)


class TestFadingStatistics:
    def test_unit_average_power(self):
        rng = np.random.default_rng(0)
        powers = []
        for _ in range(30):
            process = RayleighFadingProcess(100.0, rng)
            t = np.linspace(0, 5.0, 2000)
            powers.append(np.mean(np.abs(process.gains(t)) ** 2))
        assert np.mean(powers) == pytest.approx(1.0, abs=0.1)

    def test_rayleigh_envelope(self):
        # |h| must be Rayleigh distributed: P(|h| < 0.5) ~ 22%,
        # P(|h| > 1.5) ~ 10.5% for unit mean power.
        rng = np.random.default_rng(1)
        samples = []
        for _ in range(50):
            process = RayleighFadingProcess(200.0, rng)
            t = np.linspace(0, 2.0, 400)
            samples.append(np.abs(process.gains(t)))
        env = np.concatenate(samples)
        assert np.mean(env < 0.5) == pytest.approx(1 - np.exp(-0.25),
                                                   abs=0.05)
        assert np.mean(env > 1.5) == pytest.approx(np.exp(-2.25), abs=0.05)

    def test_correlation_follows_coherence_time(self):
        rng = np.random.default_rng(2)
        doppler = 100.0
        tc = coherence_time(doppler)

        def avg_corr(lag):
            vals = []
            for _ in range(40):
                p = RayleighFadingProcess(doppler, rng)
                t = np.arange(0, 1.0, tc / 5)
                h = p.gains(t)
                h2 = p.gains(t + lag)
                num = np.abs(np.mean(h * np.conj(h2)))
                den = np.mean(np.abs(h) ** 2)
                vals.append(num / den)
            return np.mean(vals)

        # Within a small fraction of the coherence time the channel is
        # nearly unchanged; several coherence times later it is not.
        assert avg_corr(tc / 20) > 0.9
        assert avg_corr(5 * tc) < 0.5

    def test_deterministic_given_realisation(self):
        rng = np.random.default_rng(3)
        p = RayleighFadingProcess(40.0, rng)
        t = np.linspace(0, 1, 100)
        assert np.array_equal(p.gains(t), p.gains(t))

    def test_symbol_gains_shape(self):
        rng = np.random.default_rng(4)
        p = RayleighFadingProcess(40.0, rng)
        g = p.symbol_gains(0.5, 20, 8e-6)
        assert g.shape == (20,)
        assert g[0] == p.gains(np.array([0.5]))[0]

    def test_validation(self):
        rng = np.random.default_rng(5)
        for doppler in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="Doppler"):
                RayleighFadingProcess(doppler, rng)
        with pytest.raises(ValueError):
            RayleighFadingProcess(40.0, rng, n_sinusoids=2)

"""Tests for the analytic PHY model — including validation against the
bit-exact pipeline, which is what justifies using the model for
network-scale trace generation."""

import numpy as np
import pytest

from repro.channel.awgn import apply_channel
from repro.phy.rates import RATE_TABLE
from repro.phy.snr import db_to_linear
from repro.phy.transceiver import Transceiver
from repro.traces.analytic import (coded_ber, frame_ber,
                                   frame_loss_probability, uncoded_ber)

RATES = RATE_TABLE.prototype_subset()


class TestUncodedBer:
    def test_bpsk_known_value(self):
        # Q(sqrt(2 * 10^(9.6/10))) ~ 1e-5 for BPSK at ~9.6 dB.
        ber = uncoded_ber("BPSK", db_to_linear(9.6))
        assert 3e-6 < ber < 3e-5

    def test_monotone_in_snr(self):
        snrs = np.linspace(0.1, 100, 50)
        for mod in ("BPSK", "QPSK", "QAM16", "QAM64"):
            bers = uncoded_ber(mod, snrs)
            assert np.all(np.diff(bers) < 0)

    def test_ordering_across_modulations(self):
        snr = db_to_linear(10.0)
        assert uncoded_ber("BPSK", snr) < uncoded_ber("QPSK", snr) \
            < uncoded_ber("QAM16", snr) < uncoded_ber("QAM64", snr)

    def test_unknown_modulation_rejected(self):
        with pytest.raises(ValueError):
            uncoded_ber("QAM1024", 1.0)


class TestCodedBer:
    def test_coding_gain(self):
        # In the waterfall region the coded BER must be far below the
        # uncoded BER (that's what the code is for).
        rate = RATES[0]      # BPSK 1/2
        snr = db_to_linear(4.0)
        assert coded_ber(rate, snr) < uncoded_ber("BPSK", snr) / 10

    def test_monotone_in_rate_index(self):
        snr = db_to_linear(9.0)
        bers = [coded_ber(r, snr) for r in RATES]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(bers, bers[1:]))

    def test_separation_at_least_tenfold(self):
        # Observation 2 of section 3.3, in the usable BER band.  The
        # (BPSK 3/4, QPSK 1/2) pair is the known near-degenerate one —
        # 9 vs 12 Mbps with nearly identical error performance — which
        # is why the paper allows "picking a subset of rates with the
        # property"; we skip that pair.
        for snr_db in np.arange(2.0, 16.0, 0.5):
            snr = db_to_linear(snr_db)
            bers = [float(coded_ber(r, snr)) for r in RATES]
            for i, (low, high) in enumerate(zip(bers, bers[1:])):
                if i == 1:
                    continue
                if 1e-7 < high < 1e-2 and low > 1e-12:
                    assert high / max(low, 1e-300) > 5.0, (i, snr_db)

    def test_saturates_at_half(self):
        assert coded_ber(RATES[5], db_to_linear(-20.0)) == 0.5


class TestFrameLoss:
    def test_loss_increases_with_frame_size(self):
        snrs = np.array([db_to_linear(5.2)])
        small = frame_loss_probability(RATES[3], snrs, 1000)
        large = frame_loss_probability(RATES[3], snrs, 10000)
        assert 0 < small < large < 1

    def test_fade_dominates(self):
        # One deeply faded symbol among many clean ones sinks the frame.
        clean = np.full(31, db_to_linear(20.0))
        faded = np.concatenate([clean, [db_to_linear(-3.0)]])
        assert frame_loss_probability(RATES[3], clean, 8000) < 0.01
        assert frame_loss_probability(RATES[3], faded, 8000) > 0.9

    def test_frame_ber_averages_symbols(self):
        snrs = np.array([db_to_linear(0.0), db_to_linear(30.0)])
        per_symbol = coded_ber(RATES[3], snrs)
        assert frame_ber(RATES[3], snrs) == pytest.approx(
            float(np.mean(per_symbol)))


class TestAgainstFullPhy:
    def test_waterfall_matches_measured(self):
        """The analytic curve must track the bit-exact PHY within a
        small factor in the measurable BER range, for every rate."""
        rng = np.random.default_rng(42)
        phy = Transceiver()
        payload = rng.integers(0, 2, 1600).astype(np.uint8)
        checked = 0
        for rate_index, rate in enumerate(RATES):
            tx = phy.transmit(payload, rate_index=rate_index)
            for snr_db in np.arange(0.0, 16.0, 1.0):
                model = float(coded_ber(rate, db_to_linear(snr_db)))
                if not 3e-4 < model < 0.2:
                    continue
                measured = []
                for _ in range(6):
                    gains = np.ones(tx.layout.n_symbols, dtype=complex)
                    rx_sym, g = apply_channel(
                        tx.symbols, gains, db_to_linear(-snr_db), rng)
                    rx = phy.receive(rx_sym, g, tx.layout, tx_frame=tx)
                    measured.append(rx.true_ber)
                mean = np.mean(measured)
                if mean == 0:
                    continue
                assert 0.1 < model / mean < 10.0, \
                    f"{rate.name} at {snr_db} dB: model {model}, " \
                    f"measured {mean}"
                checked += 1
        assert checked >= 6

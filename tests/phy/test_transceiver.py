"""End-to-end tests of the PHY pipeline (transmit -> channel -> receive)."""

import numpy as np
import pytest

from repro.channel import apply_channel
from repro.phy import Transceiver
from repro.phy.bits import random_bits
from repro.phy.snr import db_to_linear


@pytest.fixture(scope="module")
def phy():
    return Transceiver()


def _run(phy, payload, rate_index, snr_db, rng, gains=None,
         interference=None):
    tx = phy.transmit(payload, rate_index=rate_index)
    noise_var = db_to_linear(-snr_db)
    if gains is None:
        gains = np.ones(tx.layout.n_symbols, dtype=complex)
    rx_sym, gains = apply_channel(tx.symbols, gains, noise_var, rng,
                                  interference=interference)
    return tx, phy.receive(rx_sym, gains, tx.layout, tx_frame=tx)


class TestCleanDelivery:
    @pytest.mark.parametrize("rate_index,snr_db", [
        (0, 5), (1, 8), (2, 8), (3, 11), (4, 14), (5, 18),
    ])
    def test_delivers_at_adequate_snr(self, phy, rate_index, snr_db):
        rng = np.random.default_rng(rate_index)
        payload = random_bits(800, rng)
        tx, rx = _run(phy, payload, rate_index, snr_db, rng)
        assert rx.header_ok
        assert rx.header.rate_index == rate_index
        assert rx.crc_ok
        assert np.array_equal(rx.payload_bits, payload)
        assert rx.true_ber == 0.0

    def test_header_fields_roundtrip(self, phy):
        rng = np.random.default_rng(9)
        payload = random_bits(160, rng)
        tx = phy.transmit(payload, rate_index=2, dest=7, src=3, seq=1234)
        gains = np.ones(tx.layout.n_symbols, dtype=complex)
        rx_sym, gains = apply_channel(tx.symbols, gains,
                                      db_to_linear(-15), rng)
        rx = phy.receive(rx_sym, gains, tx.layout)
        assert rx.header_ok
        assert (rx.header.dest, rx.header.src, rx.header.seq) == (7, 3, 1234)
        assert rx.header.length_bytes == 20


class TestDegradedChannel:
    def test_low_snr_fails_crc_but_header_survives(self, phy):
        # The header goes at the lowest rate: there is an SNR band where
        # a QAM16 body is hopeless but the header still decodes — the
        # regime SoftRate's feedback depends on.
        rng = np.random.default_rng(10)
        payload = random_bits(800, rng)
        header_ok = crc_ok = 0
        for _ in range(10):
            _, rx = _run(phy, payload, 5, 6.0, rng)
            header_ok += rx.header_ok
            crc_ok += rx.crc_ok
        assert header_ok >= 9
        assert crc_ok <= 1

    def test_estimated_ber_tracks_truth(self, phy):
        from repro.core import frame_ber_estimate
        rng = np.random.default_rng(11)
        payload = random_bits(800, rng)
        est, true = [], []
        for _ in range(25):
            _, rx = _run(phy, payload, 3, 4.0, rng)
            est.append(frame_ber_estimate(rx.hints))
            true.append(rx.true_ber)
        assert np.mean(true) > 1e-3
        assert 0.25 < np.mean(est) / np.mean(true) < 4.0

    def test_error_free_frame_still_yields_ber_estimate(self, phy):
        # Key paper claim (section 3.1): the receiver can estimate the
        # channel BER even from frames with zero errors, and the
        # estimate falls as SNR rises.
        from repro.core import frame_ber_estimate
        rng = np.random.default_rng(12)
        payload = random_bits(400, rng)
        _, rx_mid = _run(phy, payload, 2, 9.0, rng)
        _, rx_high = _run(phy, payload, 2, 14.0, rng)
        assert rx_mid.true_ber == rx_high.true_ber == 0.0
        assert frame_ber_estimate(rx_mid.hints) > \
            frame_ber_estimate(rx_high.hints)

    def test_fade_inside_frame_visible_in_hints(self, phy):
        from repro.core import symbol_ber_profile
        rng = np.random.default_rng(13)
        payload = random_bits(1600, rng)
        tx = phy.transmit(payload, rate_index=3)
        n = tx.layout.n_symbols
        gains = np.ones(n, dtype=complex)
        body = tx.layout.body
        mid = (body.start + body.stop) // 2
        gains[mid:mid + 2] = 0.25       # a deep fade, two symbols long
        rx_sym, gains = apply_channel(tx.symbols, gains,
                                      db_to_linear(-11), rng)
        rx = phy.receive(rx_sym, gains, tx.layout, tx_frame=tx)
        profile = symbol_ber_profile(rx.hints, rx.info_symbol,
                                     rx.n_body_symbols)
        faded = mid - body.start
        clean = np.delete(profile, [faded, faded + 1])
        assert profile[faded] > 10 * clean.mean()


class TestSnrEstimate:
    def test_preamble_snr_close_to_truth(self, phy):
        rng = np.random.default_rng(14)
        payload = random_bits(400, rng)
        for snr_db in (5.0, 10.0, 15.0):
            estimates = [
                _run(phy, payload, 2, snr_db, rng)[1].snr_db
                for _ in range(5)
            ]
            assert np.mean(estimates) == pytest.approx(snr_db, abs=1.5)


class TestScrambling:
    def test_scrambler_transparent_end_to_end(self):
        rng = np.random.default_rng(15)
        payload = np.zeros(800, dtype=np.uint8)   # worst case: all zeros
        for scramble in (True, False):
            phy = Transceiver(scramble=scramble)
            tx, rx = _run(phy, payload, 2, 15.0, rng)
            assert rx.crc_ok
            assert np.array_equal(rx.payload_bits, payload)


class TestValidation:
    def test_symbol_shape_checked(self, phy):
        rng = np.random.default_rng(16)
        tx = phy.transmit(random_bits(160, rng), rate_index=0)
        with pytest.raises(ValueError, match="does not match layout"):
            phy.receive(tx.symbols[:-1], np.ones(tx.layout.n_symbols),
                        tx.layout)

    def test_gain_length_checked(self, phy):
        rng = np.random.default_rng(17)
        tx = phy.transmit(random_bits(160, rng), rate_index=0)
        with pytest.raises(ValueError, match="one channel gain per"):
            phy.receive(tx.symbols, np.ones(3), tx.layout)

    def test_2d_gain_shape_checked(self, phy):
        rng = np.random.default_rng(18)
        tx = phy.transmit(random_bits(160, rng), rate_index=0)
        with pytest.raises(ValueError, match="2-D gains must match"):
            phy.receive(tx.symbols, np.ones(tx.symbols.shape)[:, :-1],
                        tx.layout)

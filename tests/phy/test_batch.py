"""Parity suite: the batched PHY fast path is bit-identical to the
per-frame reference path.

Every assertion here is **exact** (``np.array_equal`` on float arrays,
``==`` on scalars): the batched kernels perform the same elementwise
operations and last-axis reductions as the scalar code, so any
difference at all — even in the last ulp — is a regression.  This is
what lets ``repro.phy.batch.FRAMES_PER_DECODE`` be a constant rather
than a parameter: the sweeps may stack frames however they like
without shifting a single paper curve.

``Transceiver.transmit`` and ``Transceiver.receive`` are the batched
paths at one frame.  ``_reference_transmit`` and ``_reference_receive``
below are the scalar pipelines they replaced, kept as the oracles every
stack size, the one-frame stack included, must match.
"""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.awgn import apply_channel, noise_var_for_snr_db
from repro.phy import bits as bitutil
from repro.phy.batch import _SCRAMBLE_SEED
from repro.phy.bcjr import bcjr_decode, bcjr_decode_batch
from repro.phy.convcode import ConvolutionalCode, depuncture, puncture
from repro.phy.frame import FLAG_HAS_POSTAMBLE, LinkHeader
from repro.phy.interleaver import deinterleave, interleave
from repro.phy.modulation import (CONSTELLATIONS, modulate, soft_demap,
                                  soft_demap_batch)
from repro.phy.ofdm import training_symbols
from repro.phy.rates import MODES, RATE_TABLE
from repro.phy.snr import estimate_preamble_snr
from repro.phy.transceiver import RxResult, Transceiver, TxFrame
from repro.phy.viterbi import viterbi_decode, viterbi_decode_batch

ALL_RATES = [0, 1, 2, 3, 4, 5]          # BPSK/QPSK/QAM16 x 1/2, 3/4
PUNCTURED_RATES = [1, 3, 5]             # rate-3/4 bodies


@pytest.fixture(scope="module")
def code():
    return ConvolutionalCode()


@pytest.fixture(scope="module")
def phy():
    return Transceiver()


def _reference_encode_block(phy, info_bits, code_rate, bits_per_symbol,
                            pad):
    """Encode, puncture, pad and interleave one coded region."""
    coded = phy.code.encode(info_bits)
    punctured = puncture(coded, code_rate)
    padded = np.concatenate([punctured, np.zeros(pad, dtype=np.uint8)])
    if not phy.use_interleaver:
        return padded
    block = bits_per_symbol * phy.mode.n_subcarriers
    return interleave(padded, block, bits_per_symbol)


def _reference_transmit(phy, payload_bits, rate_index, dest=1, src=0,
                        seq=0, flags=0):
    """The scalar transmit pipeline, one frame at a time."""
    payload_bits = np.asarray(payload_bits, dtype=np.uint8)
    layout = phy.frame_layout(payload_bits.size, rate_index)
    if layout.has_postamble:
        flags |= FLAG_HAS_POSTAMBLE
    header = LinkHeader(dest=dest, src=src, seq=seq,
                        rate_index=rate_index,
                        length_bytes=payload_bits.size // 8, flags=flags)
    body_info = bitutil.append_crc32(payload_bits)
    if phy.scramble:
        body_info = bitutil.scramble(body_info, _SCRAMBLE_SEED)
    rate = phy.rates[rate_index]
    base = phy.rates.lowest
    header_stream = _reference_encode_block(
        phy, header.to_bits(), base.code_rate, base.bits_per_symbol,
        layout.header_pad_bits)
    body_stream = _reference_encode_block(
        phy, body_info, rate.code_rate, rate.bits_per_symbol,
        layout.body_pad_bits)
    n = phy.mode.n_subcarriers
    parts = [training_symbols(layout.n_preamble_symbols, n),
             modulate(header_stream, base.modulation).reshape(-1, n),
             modulate(body_stream, rate.modulation).reshape(-1, n)]
    if layout.has_postamble:
        parts.append(training_symbols(layout.n_preamble_symbols + 1,
                                      n)[-1:])
    symbols = np.concatenate(parts, axis=0)
    assert symbols.shape[0] == layout.n_symbols
    return TxFrame(header=header, payload_bits=payload_bits,
                   body_info_bits=body_info, symbols=symbols,
                   layout=layout)


def _reference_decode_block(phy, rx, gains, noise_var, modulation,
                            bits_per_symbol, code_rate, n_mother_bits,
                            pad, soft: bool):
    """Demap and decode one coded region; returns LLRs or bits."""
    if gains.ndim == 2:
        per_sample_gains = gains.ravel()
    else:
        per_sample_gains = np.repeat(gains, phy.mode.n_subcarriers)
    channel_llrs = soft_demap(rx.ravel(), modulation, noise_var,
                              gains=per_sample_gains)
    if phy.use_interleaver:
        block = bits_per_symbol * phy.mode.n_subcarriers
        channel_llrs = deinterleave(channel_llrs, block,
                                    bits_per_symbol)
    if pad:
        channel_llrs = channel_llrs[:-pad]
    mother_llrs = depuncture(channel_llrs, n_mother_bits, code_rate)
    if soft:
        return bcjr_decode(phy.code, mother_llrs,
                           variant=phy.decoder_variant)
    return viterbi_decode(phy.code, mother_llrs)


def _reference_receive(phy, rx_symbols, gains, layout, tx_frame=None):
    """The scalar receive pipeline, one frame at a time."""
    rx_symbols = np.asarray(rx_symbols, dtype=np.complex128)
    gains = np.asarray(gains, dtype=np.complex128)
    if rx_symbols.shape != (layout.n_symbols, layout.n_subcarriers):
        raise ValueError("received symbol array does not match layout")
    if gains.ndim == 1:
        if gains.size != layout.n_symbols:
            raise ValueError(
                "one channel gain per OFDM symbol required")
    elif gains.shape != rx_symbols.shape:
        raise ValueError(
            "2-D gains must match the received symbol array")

    training = training_symbols(layout.n_preamble_symbols,
                                layout.n_subcarriers)
    snr_db, _gain_est = estimate_preamble_snr(
        rx_symbols[layout.preamble], training)
    # Preamble-residual noise power; floor it to keep LLRs finite.
    ref = training.ravel()
    rx_pre = rx_symbols[layout.preamble].ravel()
    if gains.ndim == 2:
        pre_gains = gains[layout.preamble].ravel()
    else:
        pre_gains = np.repeat(gains[layout.preamble],
                              layout.n_subcarriers)
    noise_var = float(np.mean(np.abs(rx_pre - pre_gains * ref) ** 2))
    noise_var = max(noise_var, 1e-9)

    header_bits = _reference_decode_block(
        phy, rx_symbols[layout.header], gains[layout.header], noise_var,
        layout.header_modulation,
        CONSTELLATIONS[layout.header_modulation].bits_per_symbol,
        layout.header_code_rate, layout.n_header_mother_bits,
        layout.header_pad_bits, soft=False)
    header, header_ok = LinkHeader.from_bits(header_bits)

    rate = phy.rates[layout.body_rate_index]
    body = _reference_decode_block(
        phy, rx_symbols[layout.body], gains[layout.body], noise_var,
        layout.body_modulation, rate.bits_per_symbol,
        layout.body_code_rate, layout.n_body_mother_bits,
        layout.body_pad_bits, soft=True)

    decoded = body.bits
    if phy.scramble:
        decoded = bitutil.descramble(decoded, _SCRAMBLE_SEED)
    crc_ok = bitutil.check_crc32(decoded)
    payload = decoded[:-32]

    error_mask = None
    true_ber = None
    if tx_frame is not None:
        error_mask = body.bits != tx_frame.body_info_bits
        true_ber = float(np.mean(error_mask))

    return RxResult(header=header, header_ok=header_ok,
                    payload_bits=payload, body_bits=decoded,
                    crc_ok=crc_ok, llrs=body.llrs,
                    info_symbol=layout.info_symbol,
                    n_body_symbols=layout.n_body_symbols,
                    snr_db=snr_db, noise_var_est=noise_var,
                    error_mask=error_mask, true_ber=true_ber)


def _noisy_llr_batch(code, code_rate, n_info, n_frames, rng,
                     snr_db=2.0):
    """Depunctured channel-LLR rows for random frames over BPSK/AWGN."""
    rows = []
    snr = 10 ** (snr_db / 10)
    for _ in range(n_frames):
        info = bitutil.random_bits(n_info, rng)
        coded = code.encode(info)
        kept = puncture(coded, code_rate)
        x = 2.0 * kept.astype(np.float64) - 1.0
        y = x + rng.normal(0, np.sqrt(1 / (2 * snr)), size=x.size)
        rows.append(depuncture(4.0 * snr * y / 2.0, coded.size,
                               code_rate))
    return np.stack(rows)


class TestDecoderKernelParity:
    @pytest.mark.parametrize("variant", ["log-map", "max-log-map"])
    @pytest.mark.parametrize("rate", [Fraction(1, 2), Fraction(2, 3),
                                      Fraction(3, 4)])
    def test_bcjr_batch_matches_scalar(self, code, variant, rate):
        rng = np.random.default_rng(10)
        batch = _noisy_llr_batch(code, rate, 61, 5, rng)
        result = bcjr_decode_batch(code, batch, variant)
        for i in range(batch.shape[0]):
            scalar = bcjr_decode(code, batch[i], variant)
            assert np.array_equal(result.llrs[i], scalar.llrs)
            assert np.array_equal(result.bits[i], scalar.bits)

    @pytest.mark.parametrize("rate", [Fraction(1, 2), Fraction(2, 3),
                                      Fraction(3, 4)])
    def test_viterbi_batch_matches_scalar(self, code, rate):
        rng = np.random.default_rng(11)
        batch = _noisy_llr_batch(code, rate, 77, 5, rng)
        decoded = viterbi_decode_batch(code, batch)
        for i in range(batch.shape[0]):
            assert np.array_equal(decoded[i],
                                  viterbi_decode(code, batch[i]))

    def test_batch_of_one_is_scalar(self, code):
        rng = np.random.default_rng(12)
        batch = _noisy_llr_batch(code, Fraction(1, 2), 40, 1, rng)
        assert np.array_equal(
            bcjr_decode_batch(code, batch).llrs[0],
            bcjr_decode(code, batch[0]).llrs)

    @pytest.mark.parametrize("variant", ["log-map", "max-log-map"])
    @pytest.mark.parametrize("n_frames", [1, 7, 8, 9, 16, 33])
    def test_every_batch_size_matches_scalar(self, code, n_frames,
                                             variant):
        """Batch size is a pure throughput knob: every row of a batch
        of any size equals the scalar wrapper's decode of that row."""
        rng = np.random.default_rng(19)
        batch = _noisy_llr_batch(code, Fraction(1, 2), 53, n_frames,
                                 rng)
        result = bcjr_decode_batch(code, batch, variant)
        for i in range(n_frames):
            scalar = bcjr_decode(code, batch[i], variant)
            assert np.array_equal(result.llrs[i], scalar.llrs)

    def test_rejects_wrong_dimensionality(self, code):
        with pytest.raises(ValueError, match="2-D"):
            bcjr_decode_batch(code, np.zeros(40))
        with pytest.raises(ValueError, match="2-D"):
            viterbi_decode_batch(code, np.zeros(40))
        with pytest.raises(ValueError, match="1-D"):
            bcjr_decode(code, np.zeros((2, 40)))
        with pytest.raises(ValueError, match="1-D"):
            viterbi_decode(code, np.zeros((2, 40)))


class TestNonFiniteLlrs:
    """One NaN or infinity among a frame's channel LLRs used to turn
    the BCJR posterior into all-NaN LLRs and all-zero bits, and the
    Viterbi decision into a wrong path, with no more than a
    RuntimeWarning.  Both kernels and both scalar wrappers raise."""

    @settings(max_examples=25, deadline=None)
    @given(n_frames=st.integers(1, 6), n_steps=st.integers(7, 40),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           data=st.data())
    def test_batch_kernels_name_the_first_bad_frame(self, code, n_frames,
                                                    n_steps, bad, data):
        frame = data.draw(st.integers(0, n_frames - 1), label="frame")
        pos = data.draw(st.integers(0, 2 * n_steps - 1), label="pos")
        llrs = np.random.default_rng(pos).normal(
            size=(n_frames, 2 * n_steps))
        llrs[frame, pos] = bad
        for decode in (bcjr_decode_batch, viterbi_decode_batch):
            with pytest.raises(ValueError, match=f"frame {frame} "):
                decode(code, llrs)
        for decode in (bcjr_decode, viterbi_decode):
            with pytest.raises(ValueError, match="non-finite"):
                decode(code, llrs[frame])

    def test_later_bad_frames_do_not_hide_the_first(self, code):
        llrs = np.zeros((5, 20))
        llrs[4, 0] = np.nan
        llrs[2, 7] = -np.inf
        with pytest.raises(ValueError, match="frame 2 "):
            bcjr_decode_batch(code, llrs)


class TestEncoderKernelParity:
    def test_encode_batch_matches_scalar(self, code):
        rng = np.random.default_rng(13)
        frames = rng.integers(0, 2, (6, 91)).astype(np.uint8)
        batch = code.encode_batch(frames)
        for i in range(frames.shape[0]):
            assert np.array_equal(batch[i], code.encode(frames[i]))

    def test_puncture_depuncture_rows(self):
        rng = np.random.default_rng(14)
        vals = rng.normal(size=(4, 24))
        for rate in (Fraction(2, 3), Fraction(3, 4)):
            kept = puncture(vals, rate)
            back = depuncture(kept, 24, rate)
            for i in range(vals.shape[0]):
                assert np.array_equal(kept[i],
                                      puncture(vals[i], rate))
                assert np.array_equal(
                    back[i], depuncture(puncture(vals[i], rate), 24,
                                        rate))

    def test_interleave_rows(self):
        rng = np.random.default_rng(15)
        vals = rng.normal(size=(3, 2 * 128))
        out = interleave(vals, 128, 2)
        back = deinterleave(out, 128, 2)
        assert np.array_equal(back, vals)
        for i in range(vals.shape[0]):
            assert np.array_equal(out[i], interleave(vals[i], 128, 2))

    def test_scramble_rows(self):
        rng = np.random.default_rng(16)
        frames = rng.integers(0, 2, (4, 300)).astype(np.uint8)
        out = bitutil.scramble(frames)
        for i in range(frames.shape[0]):
            assert np.array_equal(out[i], bitutil.scramble(frames[i]))
        assert np.array_equal(bitutil.descramble(out), frames)


class TestDemapParity:
    @pytest.mark.parametrize("modulation",
                             ["BPSK", "QPSK", "QAM16", "QAM64"])
    @pytest.mark.parametrize("max_log", [False, True])
    def test_batch_matches_scalar_per_frame_noise(self, modulation,
                                                  max_log):
        rng = np.random.default_rng(17)
        y = (rng.normal(size=(5, 48))
             + 1j * rng.normal(size=(5, 48)))
        gains = (rng.normal(size=(5, 48))
                 + 1j * rng.normal(size=(5, 48)))
        noise_var = rng.uniform(0.1, 2.0, size=5)
        batch = soft_demap_batch(y, modulation, noise_var, gains=gains,
                                 max_log=max_log)
        for i in range(5):
            scalar = soft_demap(y[i], modulation, float(noise_var[i]),
                                gains=gains[i], max_log=max_log)
            assert np.array_equal(batch[i], scalar)

    def test_noise_var_validation(self):
        with pytest.raises(ValueError, match="positive"):
            soft_demap_batch(np.zeros((2, 4), complex), "BPSK",
                             np.array([1.0, 0.0]))


class TestPipelineParity:
    """End-to-end: transmit/receive stacks vs the scalar reference."""

    @pytest.mark.parametrize("rate_index", ALL_RATES)
    def test_transmit_batch(self, phy, rate_index):
        rng = np.random.default_rng(20 + rate_index)
        payloads = rng.integers(0, 2, (4, 104)).astype(np.uint8)
        batch = phy.transmit_batch(payloads, rate_index,
                                   seqs=[5, 6, 7, 8])
        for i in range(4):
            ref = _reference_transmit(phy, payloads[i], rate_index,
                                      seq=5 + i)
            assert np.array_equal(batch.symbols[i], ref.symbols)
            assert np.array_equal(batch.body_info_bits[i],
                                  ref.body_info_bits)
            assert batch.headers[i] == ref.header
        assert batch.layout == _reference_transmit(phy, payloads[0],
                                                   rate_index).layout

    def test_txbatch_frame_view(self, phy):
        """TxBatch.frame(i) is a faithful scalar TxFrame view."""
        rng = np.random.default_rng(25)
        payloads = rng.integers(0, 2, (3, 104)).astype(np.uint8)
        batch = phy.transmit_batch(payloads, 2, seqs=[3, 4, 5])
        assert len(batch) == 3
        for i in range(3):
            view = batch.frame(i)
            ref = _reference_transmit(phy, payloads[i], 2, seq=3 + i)
            assert isinstance(view, TxFrame)
            assert view.header == ref.header
            assert view.layout == ref.layout
            assert np.array_equal(view.symbols, ref.symbols)
            assert np.array_equal(view.payload_bits, ref.payload_bits)
            assert np.array_equal(view.body_info_bits,
                                  ref.body_info_bits)

    def test_bcjr_batch_result_frame_view(self, code):
        rng = np.random.default_rng(26)
        batch = _noisy_llr_batch(code, Fraction(1, 2), 50, 3, rng)
        result = bcjr_decode_batch(code, batch)
        assert len(result) == 3
        for i in range(3):
            view = result.frame(i)
            assert np.array_equal(view.llrs, result.llrs[i])
            assert np.array_equal(view.bits, result.bits[i])

    @pytest.mark.parametrize("rate_index", ALL_RATES)
    def test_receive_batch(self, phy, rate_index):
        """Bits, LLRs, hints, SNR/noise estimates, CRC and header
        outcomes are all bit-identical — across modulations, punctured
        code rates, and the odd-length padded tails each rate's layout
        produces for a 104-bit payload."""
        rng = np.random.default_rng(30 + rate_index)
        payload = rng.integers(0, 2, 104).astype(np.uint8)
        tx = phy.transmit(payload, rate_index)
        noise_var = noise_var_for_snr_db(5.0)
        n_frames = 4
        gains = np.ones((n_frames, tx.layout.n_symbols), complex)
        rx_syms = np.empty((n_frames, tx.layout.n_symbols,
                            phy.mode.n_subcarriers), complex)
        refs = []
        for i in range(n_frames):
            rx_syms[i], g = apply_channel(tx.symbols, gains[i],
                                          noise_var, rng)
            refs.append(_reference_receive(phy, rx_syms[i], g,
                                           tx.layout, tx_frame=tx))
        batch = phy.receive_batch(rx_syms, gains, tx.layout, tx=tx)
        assert len(batch) == n_frames
        for got, ref in zip(batch, refs):
            assert np.array_equal(got.llrs, ref.llrs)
            assert np.array_equal(got.hints, ref.hints)
            assert np.array_equal(got.body_bits, ref.body_bits)
            assert np.array_equal(got.payload_bits, ref.payload_bits)
            assert np.array_equal(got.error_mask, ref.error_mask)
            assert got.snr_db == ref.snr_db
            assert got.noise_var_est == ref.noise_var_est
            assert got.crc_ok == ref.crc_ok
            assert got.header_ok == ref.header_ok
            assert got.true_ber == ref.true_ber
            if got.header_ok:
                assert got.header == ref.header

    def test_receive_batch_frequency_selective_gains(self, phy):
        rng = np.random.default_rng(40)
        payload = rng.integers(0, 2, 104).astype(np.uint8)
        tx = phy.transmit(payload, 2)
        noise_var = noise_var_for_snr_db(8.0)
        shape = (3, tx.layout.n_symbols, phy.mode.n_subcarriers)
        gains = np.ones(shape, complex) * (0.9 + 0.1j) \
            + 0.05 * (rng.normal(size=shape)
                      + 1j * rng.normal(size=shape))
        rx_syms = np.empty(shape, complex)
        refs = []
        for i in range(3):
            rx_syms[i], g = apply_channel(tx.symbols, gains[i],
                                          noise_var, rng)
            refs.append(_reference_receive(phy, rx_syms[i], g,
                                           tx.layout, tx_frame=tx))
        batch = phy.receive_batch(rx_syms, gains, tx.layout, tx=tx)
        for got, ref in zip(batch, refs):
            assert np.array_equal(got.llrs, ref.llrs)
            assert got.snr_db == ref.snr_db

    def test_run_batch_matches_sequential_rng(self, phy):
        """run_batch draws noise frame-by-frame, so the same generator
        state yields bit-identical results to a sequential loop."""
        rng = np.random.default_rng(50)
        payload = rng.integers(0, 2, 104).astype(np.uint8)
        tx = phy.transmit(payload, 3)
        noise_var = noise_var_for_snr_db(6.0)
        gains = np.ones((5, tx.layout.n_symbols), complex)

        batch = phy.run_batch(tx, gains, noise_var,
                              np.random.default_rng(99))
        seq_rng = np.random.default_rng(99)
        for i in range(5):
            rx_sym, g = apply_channel(tx.symbols, gains[i], noise_var,
                                      seq_rng)
            ref = _reference_receive(phy, rx_sym, g, tx.layout,
                                     tx_frame=tx)
            assert np.array_equal(batch[i].llrs, ref.llrs)
            assert batch[i].true_ber == ref.true_ber

    def test_no_interleaver_variant(self):
        phy = Transceiver(use_interleaver=False)
        rng = np.random.default_rng(60)
        payload = rng.integers(0, 2, 104).astype(np.uint8)
        tx = phy.transmit(payload, 2)
        gains = np.ones((3, tx.layout.n_symbols), complex)
        batch = phy.run_batch(tx, gains, noise_var_for_snr_db(6.0),
                              np.random.default_rng(61))
        seq_rng = np.random.default_rng(61)
        for i in range(3):
            rx_sym, g = apply_channel(tx.symbols, gains[i],
                                      noise_var_for_snr_db(6.0),
                                      seq_rng)
            ref = _reference_receive(phy, rx_sym, g, tx.layout,
                                     tx_frame=tx)
            assert np.array_equal(batch[i].llrs, ref.llrs)

    def test_batch_input_validation(self, phy):
        rng = np.random.default_rng(70)
        payload = rng.integers(0, 2, (2, 104)).astype(np.uint8)
        with pytest.raises(ValueError, match="n_frames"):
            phy.transmit_batch(payload[0], 0)
        with pytest.raises(ValueError, match="sequence number"):
            phy.transmit_batch(payload, 0, seqs=[1])
        tx = phy.transmit_batch(payload, 0)
        bad = np.zeros((2, tx.layout.n_symbols + 1,
                        phy.mode.n_subcarriers), complex)
        with pytest.raises(ValueError, match="layout"):
            phy.receive_batch(bad, np.ones((2, tx.layout.n_symbols),
                                           complex), tx.layout)


_CODES = [None, (3, (0o7, 0o5)), (5, (0o23, 0o35))]


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(sorted(MODES)),
       full_table=st.booleans(), code=st.sampled_from(_CODES),
       n_bytes=st.integers(1, 250), seq=st.integers(0, 0xFFF),
       flags=st.integers(0, 0xF), postamble=st.booleans(),
       interleaver=st.booleans(), scramble=st.booleans(),
       data=st.data())
def test_transmit_matches_scalar_reference(mode, full_table, code,
                                           n_bytes, seq, flags,
                                           postamble, interleaver,
                                           scramble, data):
    """``transmit`` (the batched path at one frame) builds the same
    frame as the scalar pipeline, byte for byte."""
    rates = RATE_TABLE if full_table else RATE_TABLE.prototype_subset()
    phy = Transceiver(mode=mode, rates=rates,
                      code=ConvolutionalCode(*code) if code else None,
                      use_postamble=postamble,
                      use_interleaver=interleaver, scramble=scramble)
    rate_index = data.draw(st.integers(0, len(rates) - 1),
                           label="rate_index")
    payload = np.random.default_rng(n_bytes).integers(
        0, 2, 8 * n_bytes).astype(np.uint8)
    got = phy.transmit(payload, rate_index, seq=seq, flags=flags)
    ref = _reference_transmit(phy, payload, rate_index, seq=seq,
                              flags=flags)
    assert got.symbols.tobytes() == ref.symbols.tobytes()
    assert got.body_info_bits.tobytes() == ref.body_info_bits.tobytes()
    assert got.header == ref.header
    assert got.layout == ref.layout


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(sorted(MODES)),
       full_table=st.booleans(), code=st.sampled_from(_CODES),
       variant=st.sampled_from(["log-map", "max-log-map"]),
       postamble=st.booleans(), interleaver=st.booleans(),
       scramble=st.booleans(), n_bytes=st.integers(1, 250),
       snr_db=st.floats(-3.0, 30.0), selective=st.booleans(),
       with_truth=st.booleans(), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_receive_matches_scalar_reference(mode, full_table, code,
                                          variant, postamble,
                                          interleaver, scramble,
                                          n_bytes, snr_db, selective,
                                          with_truth, seed, data):
    """``receive`` (the batched path at one frame) decodes a noisy
    frame to the same ``RxResult`` as the scalar pipeline, every field
    byte for byte."""
    rates = RATE_TABLE if full_table else RATE_TABLE.prototype_subset()
    phy = Transceiver(mode=mode, rates=rates,
                      code=ConvolutionalCode(*code) if code else None,
                      use_postamble=postamble, decoder_variant=variant,
                      use_interleaver=interleaver, scramble=scramble)
    rate_index = data.draw(st.integers(0, len(rates) - 1),
                           label="rate_index")
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 2, 8 * n_bytes).astype(np.uint8)
    tx = phy.transmit(payload, rate_index)
    shape = tx.symbols.shape if selective else tx.symbols.shape[:1]
    gains = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
        / np.sqrt(2)
    rx_sym, gains = apply_channel(tx.symbols, gains,
                                  noise_var_for_snr_db(snr_db), rng)
    truth = tx if with_truth else None
    got = phy.receive(rx_sym, gains, tx.layout, tx_frame=truth)
    ref = _reference_receive(phy, rx_sym, gains, tx.layout,
                             tx_frame=truth)
    for f in dataclasses.fields(RxResult):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


class TestExperimentBatchInvariance:
    """The sweeps' stack size (``FRAMES_PER_DECODE``) changes no
    result; each run also checks that its stacks had the patched
    size."""

    @pytest.fixture
    def stacks(self, monkeypatch):
        """``stacks(n)`` patches ``FRAMES_PER_DECODE`` to ``n`` and
        returns a list of the size of every stack decoded after it."""
        from repro.phy import batch

        sizes = []
        receive_batch = Transceiver.receive_batch

        def spy(phy, rx_symbols, *args, **kwargs):
            sizes.append(len(rx_symbols))
            return receive_batch(phy, rx_symbols, *args, **kwargs)

        def patch(frames):
            monkeypatch.setattr(batch, "FRAMES_PER_DECODE", frames)
            sizes.clear()
            return sizes

        monkeypatch.setattr(Transceiver, "receive_batch", spy)
        return patch

    def test_fig07_results_independent_of_batch_size(self, stacks):
        from repro.experiments.fig07_static import run_fig7

        grid = np.arange(4.0, 11.0, 3.0)
        sizes = stacks(1)
        ref = run_fig7(seed=7, payload_bits=104, frames_per_point=3,
                       snr_grid_db=grid, rate_indices=[0, 3])
        assert set(sizes) == {1}
        for frames in (2, 7):
            sizes = stacks(frames)
            got = run_fig7(seed=7, payload_bits=104,
                           frames_per_point=3, snr_grid_db=grid,
                           rate_indices=[0, 3])
            assert max(sizes) == frames
            assert np.array_equal(got.estimates, ref.estimates)
            assert np.array_equal(got.truths, ref.truths)
            assert np.array_equal(got.snr_estimates, ref.snr_estimates)
            assert np.array_equal(got.error_counts, ref.error_counts)

    def test_fig08_results_independent_of_batch_size(self, stacks):
        from repro.experiments.fig08_mobile import run_fig8

        sizes = stacks(1)
        ref = run_fig8(seed=8, payload_bits=104, n_frames=5)
        assert set(sizes) == {1}
        sizes = stacks(3)
        got = run_fig8(seed=8, payload_bits=104, n_frames=5)
        assert max(sizes) == 3
        for label in ref.estimates:
            assert np.array_equal(got.estimates[label],
                                  ref.estimates[label])
            assert np.array_equal(got.truths[label], ref.truths[label])
            assert np.array_equal(got.snrs[label], ref.snrs[label])

    def test_calibration_independent_of_batch_size(self, stacks):
        from repro.phy.calibrate import calibrate

        tables = []
        for frames in (1, 16):
            sizes = stacks(frames)
            table = calibrate(snr_grid_db=np.array([2.0, 10.0]),
                              frames_per_point=3, payload_bits=104,
                              interference_frames=1).to_dict()
            assert set(sizes) == {min(frames, 3)}
            table["meta"].pop("created")
            tables.append(json.dumps(table, sort_keys=True))
        assert tables[0] == tables[1]

"""The frame-batched PHY pipeline.

Every figure of the paper is a Monte Carlo sweep that pushes thousands
of frames through the PHY; pushed one at a time, the per-frame Python
overhead of the trellis recursions dominates the run time.  This
module processes a ``(n_frames, ...)`` stack of equal-geometry frames
through the whole pipeline at once — encode, interleave, modulate on
transmit; demap, deinterleave, depuncture, and BCJR/Viterbi-decode on
receive — using the batched kernels in :mod:`repro.phy.convcode`,
:mod:`repro.phy.modulation`, :mod:`repro.phy.bcjr`, and
:mod:`repro.phy.viterbi`, whose per-trellis-step loops advance all
frames together.

This is the PHY's only pipeline: :meth:`Transceiver.transmit` and
:meth:`Transceiver.receive` are :func:`batch_transmit` and
:func:`batch_receive` of a one-frame stack, so a frame decodes to the
same bits, LLRs and estimates whatever stack it rides in.  The batched
kernels perform exactly the same elementwise float operations and
last-axis reductions as a one-frame-at-a-time pipeline, just with a
leading frame axis; the parity suite in ``tests/phy/test_batch.py``
keeps that scalar pipeline as the oracle both directions must match
byte for byte, across modes, rate tables, codes and every modulation
and code rate.

Per-frame steps that are cheap C-backed calls (CRC-32, preamble SNR
estimation, header parsing) intentionally stay loops over the frames:
they are not on the hot path, and one frame at a time they give
identical floats for the preamble noise estimate at any stack size.

Entry points: :func:`batch_transmit` / :func:`batch_receive`, or the
:class:`~repro.phy.transceiver.Transceiver` conveniences
``transmit_batch`` / ``receive_batch`` / ``run_batch``.  The Monte
Carlo sweeps (fig07, fig08, :func:`repro.phy.calibrate.calibrate`)
hand the PHY :data:`FRAMES_PER_DECODE` frames per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.phy import bits as bitutil
from repro.phy.bcjr import bcjr_decode_batch
from repro.phy.convcode import depuncture, puncture
from repro.phy.frame import FLAG_HAS_POSTAMBLE, LinkHeader
from repro.phy.interleaver import deinterleave, interleave
from repro.phy.modulation import (CONSTELLATIONS, modulate,
                                  soft_demap_batch)
from repro.phy.ofdm import FrameLayout, training_symbols
from repro.phy.snr import estimate_preamble_snr
from repro.phy.viterbi import viterbi_decode_batch

__all__ = ["TxBatch", "batch_transmit", "batch_receive",
           "FRAMES_PER_DECODE"]

#: The 802.11 scrambler's initial state for every frame body.
_SCRAMBLE_SEED = 0x5D

#: Frames the Monte Carlo sweeps decode per batched call.  It bounds
#: the BCJR's memory at ``16 * T * F * S`` bytes per call (see
#: :mod:`repro.phy.bcjr`); results are bit-identical at any value, so
#: it is a constant, not a parameter.  Sweeps read it through this
#: module at call time.
FRAMES_PER_DECODE = 16


@dataclass
class TxBatch:
    """A stack of transmitted frames sharing one geometry.

    Attributes:
        headers: per-frame link-layer headers.
        payload_bits: ``(n_frames, n_payload_bits)`` original payloads.
        body_info_bits: ``(n_frames, n_info)`` bits each body encoder
            saw (scrambled payload + CRC-32); ground truth for BER.
        symbols: ``(n_frames, n_symbols, n_subcarriers)`` complex OFDM
            symbols.
        layout: the shared frame geometry.

    Example::

        batch = phy.transmit_batch(payloads, rate_index=3)
        batch.symbols.shape        # (n_frames, n_symbols, n_sub)
        batch.frame(0)             # scalar TxFrame view of entry 0
    """

    headers: List[LinkHeader]
    payload_bits: np.ndarray
    body_info_bits: np.ndarray
    symbols: np.ndarray
    layout: FrameLayout

    def __len__(self) -> int:
        return self.symbols.shape[0]

    def frame(self, i: int):
        """The ``i``-th frame as a scalar :class:`TxFrame` view."""
        from repro.phy.transceiver import TxFrame
        return TxFrame(header=self.headers[i],
                       payload_bits=self.payload_bits[i],
                       body_info_bits=self.body_info_bits[i],
                       symbols=self.symbols[i], layout=self.layout)


def _encode_block_batch(phy, info_bits: np.ndarray, code_rate,
                        bits_per_symbol: int, pad: int) -> np.ndarray:
    """Encode, puncture, pad and interleave one coded region.

    ``info_bits`` is ``(n_frames, n_info)``; returns the interleaved
    coded streams, one row per frame.
    """
    coded = phy.code.encode_batch(info_bits)
    punctured = puncture(coded, code_rate)
    padded = np.concatenate(
        [punctured,
         np.zeros((punctured.shape[0], pad), dtype=np.uint8)], axis=1)
    if not phy.use_interleaver:
        return padded
    block = bits_per_symbol * phy.mode.n_subcarriers
    return interleave(padded, block, bits_per_symbol)


def batch_transmit(phy, payloads: np.ndarray, rate_index: int,
                   dest: int = 1, src: int = 0,
                   seqs: Optional[Sequence[int]] = None,
                   flags: int = 0) -> TxBatch:
    """Build the OFDM symbols for a stack of equal-length frames.

    Args:
        phy: the :class:`~repro.phy.transceiver.Transceiver`.
        payloads: ``(n_frames, n_payload_bits)`` byte-aligned payload
            bit arrays (equal length — frames of a batch share one
            :class:`FrameLayout`).
        rate_index: rate-table index for every frame body.
        dest, src, flags: link-header fields shared by the batch.
        seqs: per-frame sequence numbers (default: all 0).

    Returns:
        A :class:`TxBatch`; ``batch.frame(i)`` is the frame
        ``phy.transmit(payloads[i], ..., seq=seqs[i])`` builds.

    Example::

        payloads = rng.integers(0, 2, (64, 1600)).astype(np.uint8)
        batch = batch_transmit(phy, payloads, rate_index=3)
    """
    payloads = np.asarray(payloads, dtype=np.uint8)
    if payloads.ndim != 2:
        raise ValueError("batch_transmit expects (n_frames, n_bits) "
                         "payloads")
    n_frames = payloads.shape[0]
    if n_frames == 0:
        raise ValueError("empty batch")
    layout = phy.frame_layout(payloads.shape[1], rate_index)
    if layout.has_postamble:
        flags |= FLAG_HAS_POSTAMBLE
    if seqs is None:
        seqs = [0] * n_frames
    elif len(seqs) != n_frames:
        raise ValueError("one sequence number per frame required")
    headers = [LinkHeader(dest=dest, src=src, seq=int(seq),
                          rate_index=rate_index,
                          length_bytes=payloads.shape[1] // 8,
                          flags=flags) for seq in seqs]

    body_info = np.stack([bitutil.append_crc32(p) for p in payloads])
    if phy.scramble:
        body_info = bitutil.scramble(body_info, _SCRAMBLE_SEED)

    rate = phy.rates[rate_index]
    base = phy.rates.lowest
    header_bits = np.stack([h.to_bits() for h in headers])
    header_stream = _encode_block_batch(
        phy, header_bits, base.code_rate, base.bits_per_symbol,
        layout.header_pad_bits)
    body_stream = _encode_block_batch(
        phy, body_info, rate.code_rate, rate.bits_per_symbol,
        layout.body_pad_bits)

    # ``modulate`` groups bits_per_symbol bits at a time; each row's
    # length is a whole number of OFDM symbols, so modulating the
    # concatenated rows keeps every frame's groups aligned.
    n = phy.mode.n_subcarriers
    header_syms = modulate(header_stream.reshape(-1),
                           base.modulation).reshape(n_frames, -1, n)
    body_syms = modulate(body_stream.reshape(-1),
                         rate.modulation).reshape(n_frames, -1, n)
    preamble = training_symbols(layout.n_preamble_symbols, n)
    parts = [np.broadcast_to(preamble, (n_frames,) + preamble.shape),
             header_syms, body_syms]
    if layout.has_postamble:
        post = training_symbols(layout.n_preamble_symbols + 1, n)[-1:]
        parts.append(np.broadcast_to(post, (n_frames,) + post.shape))
    symbols = np.concatenate(parts, axis=1)
    if symbols.shape[1] != layout.n_symbols:
        raise AssertionError("layout/symbol count mismatch")
    return TxBatch(headers=headers, payload_bits=payloads,
                   body_info_bits=body_info, symbols=symbols,
                   layout=layout)


def _per_sample_gains(gains: np.ndarray, region: slice,
                      n_subcarriers: int) -> np.ndarray:
    """Flatten one region's gains to one gain per received sample.

    ``gains`` is ``(n_frames, n_symbols)`` (frequency-flat) or
    ``(n_frames, n_symbols, n_subcarriers)``.
    """
    g = gains[:, region]
    if g.ndim == 3:
        return g.reshape(g.shape[0], -1)
    return np.repeat(g, n_subcarriers, axis=1)


def _decode_block_batch(phy, rx: np.ndarray, gains: np.ndarray,
                        noise_var: np.ndarray, modulation: str,
                        bits_per_symbol: int, code_rate,
                        n_mother_bits: int, pad: int, soft: bool):
    """Demap and decode one coded region of every frame.

    ``rx`` is ``(n_frames, n_region_symbols * n_subcarriers)`` flat
    received samples; ``noise_var`` is one estimate per frame.
    Returns a :class:`BcjrBatchResult` (``soft=True``) or a
    ``(n_frames, n_info)`` bit array.
    """
    channel_llrs = soft_demap_batch(rx, modulation, noise_var,
                                    gains=gains)
    if phy.use_interleaver:
        block = bits_per_symbol * phy.mode.n_subcarriers
        channel_llrs = deinterleave(channel_llrs, block,
                                    bits_per_symbol)
    if pad:
        channel_llrs = channel_llrs[:, :-pad]
    mother_llrs = depuncture(channel_llrs, n_mother_bits, code_rate)
    if soft:
        return bcjr_decode_batch(phy.code, mother_llrs,
                                 variant=phy.decoder_variant)
    return viterbi_decode_batch(phy.code, mother_llrs)


def batch_receive(phy, rx_symbols: np.ndarray, gains: np.ndarray,
                  layout: FrameLayout, tx=None) -> list:
    """Decode a stack of received frames sharing one geometry.

    Args:
        phy: the :class:`~repro.phy.transceiver.Transceiver`.
        rx_symbols: ``(n_frames, layout.n_symbols, n_subcarriers)``
            received OFDM symbols.
        gains: the receiver's channel estimates — ``(n_frames,
            n_symbols)`` complex gains per OFDM symbol, or ``(n_frames,
            n_symbols, n_subcarriers)`` for frequency-selective
            channels.
        layout: the shared frame geometry.
        tx: optional ground truth — a :class:`TxBatch`, or a single
            :class:`TxFrame` transmitted identically to every batch
            entry (the common Monte Carlo pattern: one frame, many
            noise realisations).

    Returns:
        A list of per-frame :class:`~repro.phy.transceiver.RxResult`,
        bit-identical to calling :meth:`Transceiver.receive` (this
        function on a one-frame stack) on each frame.

    Raises:
        ValueError: ``rx_symbols`` or ``gains`` does not match
            ``layout``, or ``tx`` covers another number of frames.

    Example::

        results = batch_receive(phy, rx_stack, gains, batch.layout,
                                tx=batch)
        [r.crc_ok for r in results]       # per-frame delivery
    """
    from repro.phy.transceiver import RxResult

    rx_symbols = np.asarray(rx_symbols, dtype=np.complex128)
    gains = np.asarray(gains, dtype=np.complex128)
    if rx_symbols.ndim != 3 or rx_symbols.shape[1:] != (
            layout.n_symbols, layout.n_subcarriers):
        raise ValueError("received symbol array does not match layout")
    n_frames = rx_symbols.shape[0]
    if gains.shape[0] != n_frames:
        raise ValueError("one gain array per frame required")
    if gains.ndim == 2:
        if gains.shape[1] != layout.n_symbols:
            raise ValueError("one channel gain per OFDM symbol required")
    elif gains.shape != rx_symbols.shape:
        raise ValueError("2-D gains must match the received symbol array")

    # Preamble processing per frame, through the exact scalar code
    # path: it is O(n_preamble) per frame, and identical floats for
    # snr_db / noise_var matter more than vectorising it.
    training = training_symbols(layout.n_preamble_symbols,
                                layout.n_subcarriers)
    ref = training.ravel()
    snr_db = np.empty(n_frames)
    noise_var = np.empty(n_frames)
    for i in range(n_frames):
        snr_db[i], _gain_est = estimate_preamble_snr(
            rx_symbols[i, layout.preamble], training)
        rx_pre = rx_symbols[i, layout.preamble].ravel()
        if gains.ndim == 3:
            pre_gains = gains[i, layout.preamble].ravel()
        else:
            pre_gains = np.repeat(gains[i, layout.preamble],
                                  layout.n_subcarriers)
        nv = float(np.mean(np.abs(rx_pre - pre_gains * ref) ** 2))
        noise_var[i] = max(nv, 1e-9)

    base_bps = CONSTELLATIONS[layout.header_modulation].bits_per_symbol
    header_rx = rx_symbols[:, layout.header].reshape(n_frames, -1)
    header_bits = _decode_block_batch(
        phy, header_rx,
        _per_sample_gains(gains, layout.header, layout.n_subcarriers),
        noise_var, layout.header_modulation, base_bps,
        layout.header_code_rate, layout.n_header_mother_bits,
        layout.header_pad_bits, soft=False)

    rate = phy.rates[layout.body_rate_index]
    body_rx = rx_symbols[:, layout.body].reshape(n_frames, -1)
    body = _decode_block_batch(
        phy, body_rx,
        _per_sample_gains(gains, layout.body, layout.n_subcarriers),
        noise_var, layout.body_modulation, rate.bits_per_symbol,
        layout.body_code_rate, layout.n_body_mother_bits,
        layout.body_pad_bits, soft=True)

    decoded = body.bits
    if phy.scramble:
        decoded = bitutil.descramble(decoded, _SCRAMBLE_SEED)

    truth = _truth_rows(tx, n_frames)
    results = []
    for i in range(n_frames):
        header, header_ok = LinkHeader.from_bits(header_bits[i])
        crc_ok = bitutil.check_crc32(decoded[i])
        error_mask = None
        true_ber = None
        if truth is not None:
            error_mask = body.bits[i] != truth[i]
            true_ber = float(np.mean(error_mask))
        results.append(RxResult(
            header=header, header_ok=header_ok,
            payload_bits=decoded[i, :-32], body_bits=decoded[i],
            crc_ok=crc_ok, llrs=body.llrs[i],
            info_symbol=layout.info_symbol,
            n_body_symbols=layout.n_body_symbols,
            snr_db=float(snr_db[i]), noise_var_est=float(noise_var[i]),
            error_mask=error_mask, true_ber=true_ber))
    return results


def _truth_rows(tx, n_frames: int) -> Optional[np.ndarray]:
    """Ground-truth body bits per frame from a TxBatch or TxFrame."""
    if tx is None:
        return None
    info = np.asarray(tx.body_info_bits)
    if info.ndim == 1:                     # one TxFrame for the batch
        return np.broadcast_to(info, (n_frames, info.size))
    if info.shape[0] != n_frames:
        raise ValueError("ground-truth batch size mismatch")
    return info

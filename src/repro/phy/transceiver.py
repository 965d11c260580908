"""The end-to-end PHY pipeline: transmit and receive whole frames.

This is the Python equivalent of the paper's GNU Radio 802.11a/g-like
prototype (section 4).  Transmit side::

    payload -> +CRC-32 -> scramble -> conv. encode -> puncture
            -> pad -> interleave -> modulate -> OFDM symbols

Receive side::

    OFDM symbols -> soft demap (per-symbol CSI, preamble noise est.)
                 -> deinterleave -> unpad -> depuncture
                 -> BCJR (soft outputs)  ->  posterior LLRs
                 -> slice -> descramble -> CRC check

The receiver's posterior LLRs are exactly the SoftPHY hints consumed by
:mod:`repro.core`.  The receiver estimates the noise variance from the
preamble only — deliberately, because that is what makes mid-frame
interference observable as a hint anomaly, and what makes the SNR
estimate blind to mid-frame fades.

Both directions have one implementation, the frame-batched pipeline of
:mod:`repro.phy.batch`: :meth:`Transceiver.transmit` and
:meth:`Transceiver.receive` run it on a one-frame stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.phy.batch import batch_receive, batch_transmit
from repro.phy.convcode import ConvolutionalCode
from repro.phy.frame import HEADER_BITS, LinkHeader
from repro.phy.ofdm import FrameLayout, build_layout, region_symbols
from repro.phy.rates import MODES, RATE_TABLE, OperatingMode, RateTable

# Nothing here calls these four: perfbench's per-frame lookup sites
# (perfbench/layers.py) still resolve them in this module, and a site
# that does not resolve fails the traced run.  They go with the sites.
from repro.phy.convcode import depuncture  # noqa: F401
from repro.phy.interleaver import deinterleave  # noqa: F401
from repro.phy.modulation import soft_demap  # noqa: F401
from repro.phy.viterbi import viterbi_decode  # noqa: F401

__all__ = ["Transceiver", "TxFrame", "RxResult"]


@dataclass
class TxFrame:
    """A transmitted frame: symbols plus everything needed to score it.

    Attributes:
        header: the link-layer header.
        payload_bits: original payload bits (pre-scrambling).
        body_info_bits: the bits the body encoder actually saw
            (scrambled payload + CRC-32); ground truth for BER.
        symbols: complex OFDM symbols, shape ``(n_symbols, n_subcarriers)``.
        layout: the frame geometry.
    """

    header: LinkHeader
    payload_bits: np.ndarray
    body_info_bits: np.ndarray
    symbols: np.ndarray
    layout: FrameLayout


@dataclass
class RxResult:
    """Everything the receiver learned about one frame.

    Attributes:
        header: decoded link header (``None`` if undecodable).
        header_ok: header CRC-16 verified.
        payload_bits: descrambled hard-decision payload (no CRC).
        body_bits: descrambled hard-decision payload *including* the
            CRC-32 field (what partial-packet recovery splices).
        crc_ok: body CRC-32 verified.
        llrs: BCJR posterior LLR per body information bit
            (payload + CRC-32); ``|llrs|`` are the SoftPHY hints.
        info_symbol: map from body info bit to body OFDM symbol index
            (for Eq. 4 per-symbol BER profiles).
        n_body_symbols: number of body OFDM symbols.
        snr_db: preamble-based SNR estimate (Schmidl-Cox analogue).
        noise_var_est: preamble-based noise variance estimate.
        error_mask: ground-truth per-bit errors over body info bits
            (only when the receiver was given the transmitted frame).
        true_ber: ground-truth BER over body info bits, or ``None``.
    """

    header: Optional[LinkHeader]
    header_ok: bool
    payload_bits: np.ndarray
    body_bits: np.ndarray
    crc_ok: bool
    llrs: np.ndarray
    info_symbol: np.ndarray
    n_body_symbols: int
    snr_db: float
    noise_var_est: float
    error_mask: Optional[np.ndarray] = None
    true_ber: Optional[float] = None
    _hints: Optional[np.ndarray] = field(default=None, init=False,
                                         repr=False, compare=False)

    @property
    def hints(self) -> np.ndarray:
        """SoftPHY hints: per-bit LLR magnitudes (paper section 3.1).

        The array is computed once and returned **read-only**: several
        consumers (rate adapters, the interference detector, partial-
        packet recovery) share one ``RxResult``, so an in-place write
        by one would silently corrupt the hints every other consumer
        sees.  Callers that need a scratch buffer must ``.copy()``.
        """
        if self._hints is None:
            hints = np.abs(self.llrs)
            hints.setflags(write=False)
            self._hints = hints
        return self._hints


class Transceiver:
    """A matched 802.11a/g-like OFDM transmitter/receiver pair.

    Args:
        mode: operating mode name from :data:`repro.phy.rates.MODES`
            (``"simulation"`` by default) or an
            :class:`~repro.phy.rates.OperatingMode`.
        rates: the rate table for frame bodies; defaults to the paper's
            six-rate prototype subset.
        code: the convolutional code (802.11's K=7 by default).
        n_preamble_symbols: training symbols prepended to every frame.
        use_postamble: append a postamble training symbol (paper
            section 3.2).
        decoder_variant: ``"log-map"`` or ``"max-log-map"`` BCJR.
        scramble: whiten the body with the 802.11 scrambler.
    """

    def __init__(self, mode="simulation", rates: Optional[RateTable] = None,
                 code: Optional[ConvolutionalCode] = None,
                 n_preamble_symbols: int = 2, use_postamble: bool = True,
                 decoder_variant: str = "log-map", scramble: bool = True,
                 use_interleaver: bool = True):
        if isinstance(mode, OperatingMode):
            self.mode = mode
        else:
            self.mode = MODES[mode]
        self.rates = rates if rates is not None \
            else RATE_TABLE.prototype_subset()
        self.code = code if code is not None else ConvolutionalCode()
        self.n_preamble_symbols = n_preamble_symbols
        self.use_postamble = use_postamble
        self.decoder_variant = decoder_variant
        self.scramble = scramble
        # Disabling the frequency interleaver exposes the PHY to
        # frequency-selective burst errors; kept as a switch for the
        # interleaver ablation (paper section 4's motivation).
        self.use_interleaver = use_interleaver

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------

    def frame_layout(self, n_payload_bits: int, rate_index: int,
                     has_postamble: Optional[bool] = None) -> FrameLayout:
        """Compute the OFDM geometry of a frame before building it."""
        rate = self.rates[rate_index]
        base = self.rates.lowest
        if has_postamble is None:
            has_postamble = self.use_postamble
        return build_layout(
            n_payload_bits=n_payload_bits, rate_index=rate_index,
            body_modulation=rate.modulation,
            body_bits_per_symbol=rate.bits_per_symbol,
            body_code_rate=rate.code_rate,
            header_modulation=base.modulation,
            header_bits_per_symbol=base.bits_per_symbol,
            header_code_rate=base.code_rate,
            n_subcarriers=self.mode.n_subcarriers, code=self.code,
            n_preamble_symbols=self.n_preamble_symbols,
            has_postamble=has_postamble, n_header_bits=HEADER_BITS)

    def frame_airtime(self, n_payload_bits: int, rate_index: int) -> float:
        """Frame duration in seconds including preamble and postamble.

        The symbol count :meth:`frame_layout` makes, without building
        the layout's per-bit symbol map.
        """
        if n_payload_bits % 8 != 0:
            raise ValueError("payload must be byte-aligned")
        n_symbols = self.n_preamble_symbols + int(self.use_postamble)
        for n_info, rate in ((HEADER_BITS, self.rates.lowest),
                             (n_payload_bits + 32, self.rates[rate_index])):
            n_symbols += region_symbols(
                n_info, self.code.n_tail_bits, rate.code_rate,
                rate.bits_per_symbol * self.mode.n_subcarriers).n_symbols
        return n_symbols * self.mode.symbol_time

    def transmit(self, payload_bits: np.ndarray, rate_index: int,
                 dest: int = 1, src: int = 0, seq: int = 0,
                 flags: int = 0) -> TxFrame:
        """Build the OFDM symbols for one frame.

        The batched transmit path at one frame: :meth:`transmit_batch`
        of a one-frame stack.

        Args:
            payload_bits: byte-aligned payload bit array.
            rate_index: index into this transceiver's rate table for
                the frame body.
            dest, src, seq, flags: link-header fields.

        Returns:
            A :class:`TxFrame`; feed its ``symbols`` through a channel
            and the result into :meth:`receive`.
        """
        payload_bits = np.asarray(payload_bits, dtype=np.uint8)
        return self.transmit_batch(payload_bits[None], rate_index,
                                   dest=dest, src=src, seqs=[seq],
                                   flags=flags).frame(0)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def receive(self, rx_symbols: np.ndarray, gains: np.ndarray,
                layout: FrameLayout,
                tx_frame: Optional[TxFrame] = None) -> RxResult:
        """Decode a received frame.

        The batched receive path at one frame:
        :func:`~repro.phy.batch.batch_receive` of a one-frame stack.

        Args:
            rx_symbols: received OFDM symbols,
                shape ``(layout.n_symbols, n_subcarriers)``.
            gains: the receiver's channel estimate (assumed perfect
                CSI from pilots, as in the paper's prototype): one
                complex gain per OFDM symbol, or a per-(symbol,
                subcarrier) array for frequency-selective channels.
            layout: the frame geometry (in a real system recovered from
                the PLCP; here supplied by the simulation harness).
            tx_frame: if given, ground-truth error statistics are
                computed against it.

        Returns:
            An :class:`RxResult`.

        Raises:
            ValueError: ``rx_symbols`` or ``gains`` does not match
                ``layout``.
        """
        rx_symbols = np.asarray(rx_symbols, dtype=np.complex128)
        gains = np.asarray(gains, dtype=np.complex128)
        return batch_receive(self, rx_symbols[None], gains[None], layout,
                             tx=tx_frame)[0]

    # ------------------------------------------------------------------
    # Batched fast path (see repro.phy.batch)
    # ------------------------------------------------------------------

    def transmit_batch(self, payloads: np.ndarray, rate_index: int,
                       dest: int = 1, src: int = 0, seqs=None,
                       flags: int = 0):
        """Build a :class:`~repro.phy.batch.TxBatch` of equal-length
        frames; ``batch.frame(i)`` is what :meth:`transmit` builds for
        frame ``i``."""
        return batch_transmit(self, payloads, rate_index, dest=dest,
                              src=src, seqs=seqs, flags=flags)

    def receive_batch(self, rx_symbols: np.ndarray, gains: np.ndarray,
                      layout: FrameLayout, tx=None) -> list:
        """Decode a ``(n_frames, n_symbols, n_subcarriers)`` stack.

        Returns one :class:`RxResult` per frame, bit-identical to
        calling :meth:`receive` per frame, which is this path at one
        frame (the tests check both against the scalar reference
        decoder); ``tx`` may be a :class:`~repro.phy.batch.TxBatch` or
        a single :class:`TxFrame` used as ground truth for every entry.
        """
        return batch_receive(self, rx_symbols, gains, layout, tx=tx)

    def run_batch(self, tx, gains: np.ndarray, noise_var, rng,
                  with_truth: bool = True) -> list:
        """Push a stack of frames through a channel and batch-decode.

        The Monte Carlo workhorse: one transmitted frame (or a
        :class:`~repro.phy.batch.TxBatch`), ``n_frames`` independent
        channel realisations, one batched decode.  AWGN is drawn
        frame-by-frame in batch order, so for the same ``rng`` state
        the results are **bit-identical** to a sequential
        transmit/``apply_channel``/:meth:`receive` loop, which runs
        this decoder one frame at a time — batching is purely a
        throughput knob, and the tests check both against the scalar
        reference decoder.

        Args:
            tx: a :class:`TxFrame` (same frame for every entry) or a
                :class:`~repro.phy.batch.TxBatch`.
            gains: per-frame channel gains, ``(n_frames, n_symbols)``
                or ``(n_frames, n_symbols, n_subcarriers)``.
            noise_var: scalar or per-frame AWGN variance.
            rng: random source for the noise draws.
            with_truth: attach ground-truth error statistics.

        Returns:
            One :class:`RxResult` per frame.
        """
        from repro.channel.awgn import apply_channel
        gains = np.asarray(gains, dtype=np.complex128)
        if gains.ndim not in (2, 3):
            raise ValueError(
                "run_batch gains must be (n_frames, n_symbols[, "
                "n_subcarriers])")
        n_frames = gains.shape[0]
        symbols = np.asarray(tx.symbols)
        batched_tx = symbols.ndim == 3
        if batched_tx and symbols.shape[0] != n_frames:
            raise ValueError(
                f"TxBatch has {symbols.shape[0]} frames but gains "
                f"cover {n_frames}")
        nv = np.broadcast_to(np.asarray(noise_var, dtype=np.float64),
                             (n_frames,))
        frame_shape = symbols.shape[1:] if batched_tx else symbols.shape
        rx = np.empty((n_frames,) + frame_shape, dtype=np.complex128)
        for i in range(n_frames):
            tx_i = symbols[i] if batched_tx else symbols
            rx[i], _ = apply_channel(tx_i, gains[i], float(nv[i]), rng)
        return self.receive_batch(rx, gains, tx.layout,
                                  tx=tx if with_truth else None)

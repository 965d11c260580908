"""Trace generation: run a channel model through the PHY (or its
analytic stand-in) and record per-slot, per-rate frame fates.

Two generators are provided:

* :func:`generate_fading_trace` — the workhorse.  Samples a shared
  Rayleigh fading realisation (optionally modulated by a mobility
  trajectory's large-scale SNR) at ``n_symbol_samples`` points spread
  across each frame's airtime, evaluates every bit rate against the
  *same* gains through the analytic model of
  :mod:`repro.traces.analytic`, and synthesises the receiver-side BER
  estimate with the estimation noise measured in Fig. 7 (sub-0.1
  orders of magnitude).  One Python loop makes the random draws slot
  by slot; everything else is evaluated on ``(slots, samples)``
  arrays.

* :func:`generate_full_phy_trace` — bit-exact: actually transmits and
  decodes a frame per (slot, rate) through
  :class:`repro.phy.Transceiver`.  Slow; used for PHY-level experiments
  and for validating the analytic generator.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.channel.awgn import apply_channel
from repro.channel.rayleigh import RayleighFadingProcess
from repro.phy.backend import DETECTION_SNR_DB
from repro.phy.rates import MODES, RATE_TABLE, OperatingMode, RateTable
from repro.phy.snr import db_to_linear, snr_to_db
from repro.phy.transceiver import Transceiver
from repro.traces.analytic import coded_ber, loss_probability
from repro.traces.format import LinkTrace

__all__ = ["generate_fading_trace", "generate_full_phy_trace",
           "DETECTION_SNR_DB", "BER_ESTIMATE_NOISE_DECADES"]

#: Standard deviation of the SoftPHY BER estimate in decades.  Fig. 7a:
#: "the error variance ... stays below one-tenth of one order of
#: magnitude".
BER_ESTIMATE_NOISE_DECADES = 0.1

#: Standard deviation of the preamble SNR estimate in dB.  Zhang et
#: al. [25] report multi-dB calibration error on commodity hardware;
#: Fig. 7(c)'s scatter corresponds to a couple of dB of equivalent SNR
#: spread.
_SNR_ESTIMATE_NOISE_DB = 2.0

#: Receiver implementation SNR ceiling in dB (error floor).  Software
#: radio front ends have an EVM floor — residual synchronisation and
#: quantisation error — that caps the post-equaliser SNR.  Without it,
#: simulated BER waterfalls are far steeper than the paper's measured
#: curves: Fig. 5 shows adjacent rates separated by ~1-2 decades of
#: BER, and optimal-rate BERs in the measurable 1e-7..1e-4 band.
IMPAIRMENT_SNR_CEILING_DB = 23.0

#: Per-sample effective-SNR jitter (dB): imperfect channel estimates
#: make each sampled symbol's demapping slightly better or worse than
#: the true SNR implies.  Flattens the BER-vs-rate relation toward
#: Fig. 5's.
IMPAIRMENT_JITTER_DB = 1.5

#: Slots evaluated per array pass of :func:`generate_fading_trace`;
#: bounds its ``(slots, samples, sinusoids)`` temporaries to a few MB.
_SLOT_BLOCK = 256


def generate_fading_trace(
        rng: np.random.Generator,
        duration: float,
        mean_snr_db: Callable[[float], float] = lambda t: 15.0,
        doppler_hz: float = 40.0,
        slot_duration: float = 5e-3,
        payload_bits: int = 11200,
        rates: Optional[RateTable] = None,
        mode: OperatingMode = MODES["simulation"],
        n_symbol_samples: int = 32,
        snr_ceiling_db: float = IMPAIRMENT_SNR_CEILING_DB,
        snr_jitter_db: float = IMPAIRMENT_JITTER_DB) -> LinkTrace:
    """Generate a fading-channel link trace with the analytic model.

    Args:
        rng: random source (fading realisation + estimate noise).
        duration: trace length in seconds.
        mean_snr_db: large-scale (fading-averaged) SNR as a function of
            time — a constant for static links, or e.g.
            ``WalkingTrajectory.mean_snr_db`` for mobility.  Called
            once per slot, in slot order, at the slot start.
        doppler_hz: Doppler spread of the small-scale fading.
        slot_duration: trace granularity (5 ms like the paper).
        payload_bits: frame payload used to size frames (1400 bytes by
            default, the paper's TCP segment size).
        rates: rate table (paper's six-rate prototype set by default).
        mode: OFDM operating mode, sets the symbol time.
        n_symbol_samples: fading samples taken at evenly spaced times
            from the start to the end of each frame's airtime
            (sub-sampling the symbols is exact for any Doppler whose
            coherence time exceeds a few symbol times).
        snr_ceiling_db: receiver implementation error floor; the
            effective symbol SNR is ``1 / (1/snr + 1/ceiling)``.
        snr_jitter_db: per-sample channel-estimation jitter.

    Returns:
        A :class:`LinkTrace` with one row per rate.

    The draws from ``rng`` are a contract — traces, goldens and
    frame-log digests are pinned to them.  The fading process draws
    its sinusoids first.  Then each slot draws the preamble SNR
    estimate noise ``rng.normal(0, 2 dB)`` and, for each rate in table
    order, ``rng.normal(0, snr_jitter_db, size=n_symbol_samples)``
    (only when ``snr_jitter_db > 0``), the BER-estimate noise
    ``rng.normal(0, 0.1)`` in decades, and the delivery uniform
    ``rng.random()``.  No draw depends on a computed value.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    rates = rates if rates is not None else RATE_TABLE.prototype_subset()
    fading = RayleighFadingProcess(doppler_hz, rng)
    n_slots = max(1, int(round(duration / slot_duration)))
    n_rates = len(rates)
    n_info = payload_bits + 32

    ber_true = np.empty((n_rates, n_slots))
    ber_est = np.empty((n_rates, n_slots))
    delivered = np.zeros((n_rates, n_slots), dtype=bool)
    loss_prob = np.zeros((n_rates, n_slots))
    snr_db = np.empty(n_slots)
    true_snr_db = np.empty(n_slots)
    detected = np.zeros(n_slots, dtype=bool)

    ceiling = db_to_linear(snr_ceiling_db)
    # Sample offsets across each rate's frame airtime.
    offsets = [np.linspace(0.0, rate.airtime(n_info, mode.symbol_time,
                                             mode.n_subcarriers),
                           n_symbol_samples)
               for rate in rates]
    for first in range(0, n_slots, _SLOT_BLOCK):
        block = range(first, min(first + _SLOT_BLOCK, n_slots))
        cols = slice(block.start, block.stop)
        n = len(block)
        # The draw loop: every random draw, in the contract's order.
        # The estimate-noise pow stays a Python float pow, as numpy's
        # vectorised pow rounds differently.
        mean_lin = np.empty(n)
        snr_noise = np.empty(n)
        jitter = np.empty((n_rates, n, n_symbol_samples))
        est_scale = np.empty((n_rates, n))
        uniform = np.empty((n_rates, n))
        for i, slot in enumerate(block):
            mean_lin[i] = db_to_linear(mean_snr_db(slot * slot_duration))
            snr_noise[i] = rng.normal(0, _SNR_ESTIMATE_NOISE_DB)
            for r in range(n_rates):
                if snr_jitter_db > 0:
                    jitter[r, i] = rng.normal(0.0, snr_jitter_db,
                                              size=n_symbol_samples)
                est_scale[r, i] = \
                    10.0 ** rng.normal(0.0, BER_ESTIMATE_NOISE_DECADES)
                uniform[r, i] = rng.random()

        t0 = np.arange(block.start, block.stop) * slot_duration
        # Preamble SNR: instantaneous fade at each frame start.  Its
        # power is a libm pow per slot, as for a numpy scalar; the
        # array ``** 2`` squares, which rounds differently.
        fade = [amp ** 2 for amp in np.abs(fading.gains(t0)).tolist()]
        inst_snr_db = snr_to_db(mean_lin * np.array(fade))
        detected[cols] = inst_snr_db >= DETECTION_SNR_DB
        true_snr_db[cols] = inst_snr_db
        snr_db[cols] = inst_snr_db + snr_noise

        for r, rate in enumerate(rates):
            times = t0[:, None] + offsets[r]
            gains = fading.gains(times.ravel()).reshape(times.shape)
            symbol_snrs = mean_lin[:, None] * np.abs(gains) ** 2
            # Receiver impairments: error floor + estimation jitter.
            symbol_snrs = 1.0 / (1.0 / np.maximum(symbol_snrs, 1e-12)
                                 + 1.0 / ceiling)
            if snr_jitter_db > 0:
                symbol_snrs = symbol_snrs * 10.0 ** (jitter[r] / 10.0)
            symbol_bers = coded_ber(rate, symbol_snrs)
            ber = np.mean(symbol_bers, axis=-1)
            ber_true[r, cols] = ber
            ber_est[r, cols] = np.minimum(
                0.5, np.maximum(1e-12, ber) * est_scale[r])
            loss_prob[r, cols] = loss_probability(symbol_bers, n_info)
            delivered[r, cols] = uniform[r] >= loss_prob[r, cols]

    return LinkTrace(slot_duration=slot_duration, snr_db=snr_db,
                     detected=detected, ber_true=ber_true,
                     ber_est=ber_est, delivered=delivered,
                     loss_prob=loss_prob, rate_names=rates.names(),
                     true_snr_db=true_snr_db)


def generate_full_phy_trace(
        rng: np.random.Generator,
        n_slots: int,
        mean_snr_db: Callable[[float], float] = lambda t: 15.0,
        doppler_hz: float = 40.0,
        slot_duration: float = 5e-3,
        payload_bits: int = 1600,
        phy: Optional[Transceiver] = None) -> LinkTrace:
    """Generate a trace by running every frame through the real PHY.

    Bit-exact but roughly three orders of magnitude slower than
    :func:`generate_fading_trace`; keep ``n_slots`` and
    ``payload_bits`` modest.
    """
    from repro.core.hints import frame_ber_estimate

    phy = phy if phy is not None else Transceiver()
    rates = phy.rates
    fading = RayleighFadingProcess(doppler_hz, rng)
    payload = rng.integers(0, 2, payload_bits).astype(np.uint8)
    tx_frames = [phy.transmit(payload, rate_index=r)
                 for r in range(len(rates))]

    n_rates = len(rates)
    ber_true = np.empty((n_rates, n_slots))
    ber_est = np.empty((n_rates, n_slots))
    delivered = np.zeros((n_rates, n_slots), dtype=bool)
    snr_db = np.empty(n_slots)
    true_snr_db = np.empty(n_slots)
    detected = np.zeros(n_slots, dtype=bool)

    for slot in range(n_slots):
        t0 = slot * slot_duration
        mean_amp = np.sqrt(db_to_linear(mean_snr_db(t0)))
        for r, tx in enumerate(tx_frames):
            gains = mean_amp * fading.symbol_gains(
                t0, tx.layout.n_symbols, phy.mode.symbol_time)
            rx_sym, gains = apply_channel(tx.symbols, gains, 1.0, rng)
            rx = phy.receive(rx_sym, gains, tx.layout, tx_frame=tx)
            ber_true[r, slot] = rx.true_ber
            ber_est[r, slot] = frame_ber_estimate(rx.hints)
            delivered[r, slot] = bool(rx.crc_ok)
            if r == 0:
                # Noiseless channel state at the slot (frame start),
                # alongside the receiver's noisy estimate.
                true_snr_db[slot] = snr_to_db(np.abs(gains[0]) ** 2)
                snr_db[slot] = rx.snr_db
                detected[slot] = rx.snr_db >= DETECTION_SNR_DB
    return LinkTrace(slot_duration=slot_duration, snr_db=snr_db,
                     detected=detected, ber_true=ber_true,
                     ber_est=ber_est, delivered=delivered,
                     rate_names=rates.names(),
                     true_snr_db=true_snr_db)

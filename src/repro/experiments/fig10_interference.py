"""Figs. 10 & 11: interference detection accuracy.

The Table 4 "Static (interference)" experiment: a sender and an
interferer transmit simultaneously at a random relative offset; for
frames received *with bit errors*, we measure the fraction the
SoftPHY-based detector flags as collisions — sliced by relative
interferer power (Fig. 10) and by the sender's bit rate (Fig. 11).

The false-positive side (fading losses misflagged as collisions,
section 5.3's "<1%") is measured by :func:`run_false_positives`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.channel.awgn import apply_channel
from repro.channel.interference import overlay_interference
from repro.channel.rayleigh import RayleighFadingProcess
from repro.core.interference import InterferenceDetector
from repro.experiments.api import register_experiment
from repro.phy.snr import db_to_linear
from repro.phy.transceiver import Transceiver

__all__ = ["InterferenceAccuracy", "run_fig10", "run_false_positives"]


@dataclass
class InterferenceAccuracy:
    """Detection statistics for one experimental slice."""

    errored_frames: int
    detected: int
    clean_frames: int
    total_frames: int

    @property
    def accuracy(self) -> float:
        """Fraction of errored frames flagged as collisions."""
        if self.errored_frames == 0:
            return float("nan")
        return self.detected / self.errored_frames


def _run_slice(phy: Transceiver, tx, rel_power_db: float, snr_db: float,
               n_frames: int, rng: np.random.Generator,
               detector: InterferenceDetector) -> InterferenceAccuracy:
    layout = tx.layout
    noise_var = db_to_linear(-snr_db)
    errored = detected = clean = 0
    for _ in range(n_frames):
        frac = float(rng.uniform(0.15, 0.75))
        interference, _span = overlay_interference(
            layout.n_symbols, layout.n_subcarriers, rel_power_db, rng,
            overlap_fraction=frac, align="tail")
        gains = np.ones(layout.n_symbols, dtype=complex)
        rx_sym, g = apply_channel(tx.symbols, gains, noise_var, rng,
                                  interference=interference)
        rx = phy.receive(rx_sym, g, layout, tx_frame=tx)
        if rx.true_ber > 0:
            errored += 1
            report = detector.analyze(rx.hints, rx.info_symbol,
                                      rx.n_body_symbols)
            if report.detected:
                detected += 1
        else:
            clean += 1
    return InterferenceAccuracy(errored_frames=errored,
                                detected=detected, clean_frames=clean,
                                total_frames=n_frames)


def _metrics(result) -> dict:
    by_power, by_rate = result
    out = {}
    for rel, acc in by_power.items():
        out[f"accuracy/power_{rel:g}dB"] = acc.accuracy
    for rate_index, acc in by_rate.items():
        out[f"accuracy/rate_{rate_index}"] = acc.accuracy
    return out


@register_experiment(
    "fig10",
    description="Interference detection accuracy by power and rate",
    params={"seed": 10, "payload_bits": 1600, "n_frames": 25,
            "snr_db": 10.0},
    algorithms=(), metrics=_metrics)
def run_fig10(seed: int = 10, payload_bits: int = 1600,
              n_frames: int = 25, snr_db: float = 10.0,
              rel_powers_db: List[float] = None,
              rate_indices: List[int] = None,
              detector: InterferenceDetector = None
              ) -> Tuple[Dict[float, InterferenceAccuracy],
                         Dict[int, InterferenceAccuracy]]:
    """Run the interference-detection accuracy experiment.

    Returns ``(by_power, by_rate)``: Fig. 10 slices detection accuracy
    by relative interferer power at a fixed mid rate; Fig. 11 slices by
    the sender's bit rate at a strong interferer.
    """
    if rel_powers_db is None:
        rel_powers_db = [0.0, -2.0, -4.0, -8.0, -15.0]
    if rate_indices is None:
        rate_indices = [0, 1, 2, 3, 4]
    detector = detector or InterferenceDetector()
    rng = np.random.default_rng(seed)
    phy = Transceiver()
    payload = rng.integers(0, 2, payload_bits).astype(np.uint8)

    by_power = {}
    tx = phy.transmit(payload, rate_index=3)
    for rel in rel_powers_db:
        by_power[rel] = _run_slice(phy, tx, rel, snr_db, n_frames, rng,
                                   detector)
    by_rate = {}
    for rate_index in rate_indices:
        tx_r = phy.transmit(payload, rate_index=rate_index)
        by_rate[rate_index] = _run_slice(phy, tx_r, -1.0, snr_db,
                                         n_frames, rng, detector)
    return by_power, by_rate


def run_false_positives(seed: int = 11, payload_bits: int = 1600,
                        n_frames: int = 40, rate_index: int = 3,
                        doppler_hz: float = 40.0,
                        detector: InterferenceDetector = None
                        ) -> Tuple[int, int]:
    """Fading-only losses misflagged as collisions (section 5.3).

    Returns ``(false_positives, errored_frames)``; the paper measures
    under 1% across its static and walking traces.
    """
    detector = detector or InterferenceDetector()
    rng = np.random.default_rng(seed)
    phy = Transceiver()
    payload = rng.integers(0, 2, payload_bits).astype(np.uint8)
    tx = phy.transmit(payload, rate_index=rate_index)
    false_positives = errored = 0
    while errored < n_frames:
        mean_snr = rng.uniform(6.0, 12.0)
        fading = RayleighFadingProcess(doppler_hz, rng)
        amplitude = np.sqrt(db_to_linear(mean_snr))
        gains = amplitude * fading.symbol_gains(
            0.0, tx.layout.n_symbols, phy.mode.symbol_time)
        rx_sym, g = apply_channel(tx.symbols, gains, 1.0, rng)
        rx = phy.receive(rx_sym, g, tx.layout, tx_frame=tx)
        if rx.true_ber <= 0:
            continue
        errored += 1
        report = detector.analyze(rx.hints, rx.info_symbol,
                                  rx.n_body_symbols)
        if report.detected:
            false_positives += 1
    return false_positives, errored

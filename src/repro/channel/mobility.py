"""Mobility-driven channel trajectories (the paper's walking traces).

A :class:`WalkingTrajectory` combines large-scale attenuation (a node
moving away from or towards its receiver) with small-scale Rayleigh
fading at the corresponding Doppler spread.  Sampling it reproduces the
structure of the paper's Figure 1: gradual SNR decay over seconds with
multipath fades tens of milliseconds long superimposed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.pathloss import LogDistancePathLoss
from repro.channel.rayleigh import RayleighFadingProcess
from repro.phy.snr import db_to_linear

__all__ = ["WalkingTrajectory"]

#: Doppler spread at 2.4 GHz for ~1.2 m/s walking speed is ~10 Hz; the
#: paper's walking-equivalent simulation uses 40 Hz, which we follow.
WALKING_DOPPLER_HZ = 40.0


class WalkingTrajectory:
    """A sender walking away from its receiver.

    Args:
        rng: random source (fading realisation).
        start_distance: metres at time 0.
        speed: metres/second (positive = moving away).
        doppler_hz: fading Doppler spread.
        tx_power_dbm / noise_floor_dbm: link budget; together with the
            path loss model they set the mean SNR at each distance.
            The defaults sweep the mean SNR from ~22 dB at 5 m down to
            ~4 dB at 16 m, matching the dynamic range of the paper's
            Fig. 1 walking trace (and exercising every bit rate).
        pathloss: large-scale model (log-distance by default).

    The channel gain at time ``t`` is
    ``h(t) = sqrt(mean_snr_linear(d(t)) * noise_var) * fading(t)``,
    normalised so that a receiver with unit noise variance sees an
    instantaneous SNR of ``mean_snr * |fading|^2``.
    """

    def __init__(self, rng: np.random.Generator,
                 start_distance: float = 5.0, speed: float = 1.2,
                 doppler_hz: float = WALKING_DOPPLER_HZ,
                 tx_power_dbm: float = -5.0,
                 noise_floor_dbm: float = -85.0,
                 pathloss: Optional[LogDistancePathLoss] = None):
        if not 0 < start_distance < np.inf:
            raise ValueError("start distance must be positive and finite")
        self.start_distance = start_distance
        self.speed = speed
        self.tx_power_dbm = tx_power_dbm
        self.noise_floor_dbm = noise_floor_dbm
        self.pathloss = pathloss if pathloss is not None \
            else LogDistancePathLoss()
        self.fading = RayleighFadingProcess(doppler_hz, rng)

    def distance(self, t: float) -> float:
        """Sender-receiver distance at time ``t`` (floored at 0.5 m)."""
        return max(0.5, self.start_distance + self.speed * t)

    def mean_snr_db(self, t: float) -> float:
        """Large-scale (fading-averaged) SNR at time ``t``."""
        return self.pathloss.mean_snr_db(self.tx_power_dbm,
                                         self.noise_floor_dbm,
                                         self.distance(t))

    def symbol_gains(self, start_time: float, n_symbols: int,
                     symbol_time: float) -> np.ndarray:
        """Complex channel gains for a frame's OFDM symbols.

        The receiver noise variance is taken as 1, so
        ``|gain|^2`` *is* the instantaneous linear SNR.
        """
        fading = self.fading.symbol_gains(start_time, n_symbols,
                                          symbol_time)
        # Large-scale SNR varies negligibly within one frame; evaluate
        # it at the frame start.
        amplitude = np.sqrt(db_to_linear(self.mean_snr_db(start_time)))
        return amplitude * fading

    def instantaneous_snr_db(self, t: float) -> float:
        """Instantaneous SNR (large-scale x fading) at time ``t``."""
        fade = self.fading.gains(np.array([t]))[0]
        linear = db_to_linear(self.mean_snr_db(t)) * np.abs(fade) ** 2
        return 10.0 * np.log10(max(linear, 1e-12))

"""Fig. 1: SNR and BER fluctuations over a walking-speed fading channel.

Samples a :class:`WalkingTrajectory` at two zoom levels (a 10-second
window and a 350 ms detail) and reports the BPSK-1/2 BER implied by
the instantaneous SNR — the same three panels as the paper's figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.channel.mobility import WalkingTrajectory
from repro.experiments.api import register_experiment
from repro.phy.rates import RATE_TABLE
from repro.phy.snr import db_to_linear
from repro.sim.topology import check_duration
from repro.traces.analytic import coded_ber

__all__ = ["Fig1Data", "run_fig1"]


@dataclass
class Fig1Data:
    """The three panels of Fig. 1."""

    window_times: np.ndarray        # 10 s panel
    window_snr_db: np.ndarray
    detail_times: np.ndarray        # 350 ms panel
    detail_snr_db: np.ndarray
    ber_times: np.ndarray           # BPSK 1/2 BER panel
    ber: np.ndarray

    def fade_depth_db(self) -> float:
        """Peak-to-trough SNR swing in the detail window."""
        return float(self.detail_snr_db.max() - self.detail_snr_db.min())

    def fade_durations_ms(self, threshold_db: float = 10.0) -> List[float]:
        """Durations of detail-window fades below median - threshold."""
        median = np.median(self.detail_snr_db)
        below = self.detail_snr_db < median - threshold_db
        dt = (self.detail_times[1] - self.detail_times[0]) * 1e3
        runs, current = [], 0
        for flag in below:
            if flag:
                current += 1
            elif current:
                runs.append(current * dt)
                current = 0
        if current:
            runs.append(current * dt)
        return runs


def _metrics(data: Fig1Data) -> dict:
    fades = data.fade_durations_ms()
    ber_floor = max(float(data.ber.min()), 1e-12)
    return {
        "fade_depth_db": data.fade_depth_db(),
        "num_fades": float(len(fades)),
        "median_fade_ms": float(np.median(fades)) if fades
        else float("nan"),
        "ber_dynamic_range_decades": float(
            np.log10(max(float(data.ber.max()), 1e-12) / ber_floor)),
    }


@register_experiment(
    "fig01",
    description="SNR/BER fluctuation over a walking fading channel",
    params={"seed": 1, "detail_start": 4.0, "duration": 10.0},
    algorithms=(), metrics=_metrics)
def run_fig1(seed: int = 1, detail_start: float = 4.0,
             duration: float = 10.0) -> Fig1Data:
    """Generate the Fig. 1 panels from one walking trajectory."""
    check_duration(duration)
    rng = np.random.default_rng(seed)
    trajectory = WalkingTrajectory(rng, start_distance=5.0)
    bpsk_half = RATE_TABLE.prototype_subset()[0]

    window_times = np.linspace(0.0, duration,
                               max(int(200 * duration), 2))
    window_snr = np.array([trajectory.instantaneous_snr_db(t)
                           for t in window_times])

    detail_times = detail_start + np.linspace(0.0, 0.350, 700)
    detail_snr = np.array([trajectory.instantaneous_snr_db(t)
                           for t in detail_times])

    ber = coded_ber(bpsk_half,
                    np.array([db_to_linear(s) for s in detail_snr]))
    return Fig1Data(window_times=window_times, window_snr_db=window_snr,
                    detail_times=detail_times, detail_snr_db=detail_snr,
                    ber_times=detail_times, ber=ber)

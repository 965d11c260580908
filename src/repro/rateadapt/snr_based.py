"""SNR-threshold rate adaptation (RBAR / CHARM style).

The sender maps the receiver's reported SNR to the fastest rate whose
SNR threshold it clears.  Two ways to obtain the thresholds:

* :func:`train_snr_thresholds` — in-situ training on a trace from the
  operating environment (the paper's "SNR (trained)" baseline): for
  each rate, the lowest SNR at which the delivery probability observed
  in the trace exceeds a target.
* :func:`theoretical_snr_thresholds` — textbook AWGN waterfalls from
  the analytic model (the "untrained" baseline).  In a fading channel
  the preamble SNR overstates what the frame body experiences, so
  untrained thresholds overselect — the effect behind the paper's 4x
  fast-fading result (Fig. 16).

``averaging=None`` reacts to the latest SNR report (RBAR-like);
``averaging=tau`` applies an EWMA with time constant ``tau`` seconds
(CHARM-like), which the paper finds *hurts* under fast variation
(section 6.2).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.core.feedback import Feedback
from repro.phy.rates import RateTable
from repro.phy.snr import db_to_linear
from repro.rateadapt.base import RateAdapter
from repro.traces.analytic import coded_ber, loss_probability
from repro.traces.format import LinkTrace

__all__ = ["SnrBasedAdapter", "train_snr_thresholds",
           "theoretical_snr_thresholds"]


def theoretical_snr_thresholds(rates: RateTable,
                               payload_bits: int = 11200,
                               target_loss: float = 0.1) -> List[float]:
    """AWGN SNR thresholds: lowest SNR with loss below ``target_loss``.

    These are the "untrained" thresholds: correct over a static AWGN
    link, optimistic over fading links.
    """
    if not 0 < target_loss < 1:
        raise ValueError("target loss must be in (0, 1)")
    grid = np.arange(-5.0, 40.0, 0.1)
    # One one-symbol frame per grid point.  Each point converts on its
    # own: numpy's array power rounds differently from the scalar one.
    frames = np.array([[db_to_linear(snr_db)] for snr_db in grid])
    thresholds = []
    for rate in rates:
        loss = loss_probability(coded_ber(rate, frames), payload_bits)
        hits = np.flatnonzero(loss <= target_loss)
        thresholds.append(float(grid[hits[0]]) if hits.size
                          else float("inf"))
    return thresholds


def train_snr_thresholds(trace: LinkTrace, target_loss: float = 0.1,
                         bin_width_db: float = 1.0) -> List[float]:
    """In-situ thresholds measured from a trace (paper section 6.1:
    "the SNR-BER relationships for both protocols are computed from the
    traces used for evaluation").

    For each rate, delivery statistics are binned by reported SNR and
    the threshold set at the lowest bin (with all higher bins) whose
    empirical delivery rate meets the target.
    """
    if not 0 < target_loss < 1:
        raise ValueError("target loss must be in (0, 1)")
    lo = math.floor(trace.snr_db.min())
    hi = math.ceil(trace.snr_db.max())
    edges = np.arange(lo, hi + bin_width_db, bin_width_db)
    thresholds = []
    for r in range(trace.n_rates):
        ok = trace.delivered[r] & trace.detected
        # Per-bin empirical delivery rates, scanned from the top bin
        # downward; the threshold is the lowest edge of the contiguous
        # run of acceptable bins.
        threshold = float("inf")
        for edge in edges[::-1]:
            mask = (trace.snr_db >= edge) & \
                (trace.snr_db < edge + bin_width_db)
            if mask.sum() < 10:
                continue         # too little evidence: skip the bin
            if ok[mask].mean() >= 1.0 - target_loss:
                threshold = float(edge)
            else:
                break            # acceptable run ends here
        thresholds.append(threshold)
    # Enforce monotonicity (a higher rate can never need less SNR).
    for i in range(1, len(thresholds)):
        thresholds[i] = max(thresholds[i], thresholds[i - 1])
    return thresholds


class SnrBasedAdapter(RateAdapter):
    """Threshold-on-reported-SNR rate selection.

    Args:
        rates: available bit rates.
        thresholds: per-rate minimum SNR in dB (same length as
            ``rates``); from :func:`train_snr_thresholds` or
            :func:`theoretical_snr_thresholds`.
        averaging: ``None`` for instantaneous SNR (RBAR-like) or an
            EWMA time constant in seconds (CHARM-like).
    """

    name = "SNR"

    def __init__(self, rates: RateTable, thresholds: Sequence[float],
                 averaging: Optional[float] = None,
                 initial_rate: int = None):
        super().__init__(rates, initial_rate)
        if len(thresholds) != len(rates):
            raise ValueError("one threshold per rate required")
        if sorted(thresholds) != list(thresholds):
            raise ValueError("thresholds must be non-decreasing in rate")
        if averaging is not None and averaging <= 0:
            raise ValueError("averaging time constant must be positive")
        self.thresholds = list(thresholds)
        self.averaging = averaging
        self.name = "CHARM" if averaging is not None else "SNR"
        self._snr_estimate: Optional[float] = None
        self._last_update: Optional[float] = None

    def _rate_for_snr(self, snr_db: float) -> int:
        best = 0
        for r, threshold in enumerate(self.thresholds):
            if snr_db >= threshold:
                best = r
        return best

    def choose_rate(self, now: float) -> int:
        if self._snr_estimate is not None:
            self.current_rate = self._rate_for_snr(self._snr_estimate)
        return self.current_rate

    def on_feedback(self, now: float, rate_index: int,
                    feedback: Feedback, airtime: float) -> None:
        snr = feedback.snr_db
        if snr != snr:          # NaN: feedback without SNR measurement
            return
        if self.averaging is None or self._snr_estimate is None:
            if self.averaging is None:
                self._snr_estimate = snr
            else:
                self._snr_estimate = snr
                self._last_update = now
            return
        dt = max(now - (self._last_update or now), 0.0)
        weight = math.exp(-dt / self.averaging)
        self._snr_estimate = weight * self._snr_estimate + \
            (1.0 - weight) * snr
        self._last_update = now

    def on_silent_loss(self, now: float, rate_index: int,
                       airtime: float) -> None:
        # No SNR information arrives on a silent loss; fall back one
        # rate if silence persists (mirrors driver implementations).
        if self._snr_estimate is not None:
            self._snr_estimate -= 1.0

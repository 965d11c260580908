"""Optimal per-rate BER thresholds (paper section 3.3).

For each rate ``R_i`` SoftRate computes thresholds ``(alpha_i, beta_i)``
such that ``R_i`` is the throughput-optimal rate exactly when the BER
at ``R_i`` lies in ``(alpha_i, beta_i)``:

* above ``beta_i`` the next-lower rate (whose BER is predicted to be
  10x smaller) yields more throughput;
* below ``alpha_i`` the next-higher rate (BER 10x larger) does.

The thresholds depend on the link layer's error recovery mechanism —
that is the architectural point of the paper: *rate adaptation is
decoupled from error recovery through the BER interface*.  Swapping the
recovery model merely recomputes thresholds; the SoftRate algorithm
itself is unchanged.  Two models are provided:

* :class:`FrameLevelArq` — 802.11-style whole-frame retransmission;
  goodput ``~ rate * (1 - ber)^frame_bits``.
* :class:`PartialBitArq` — a PPR/H-ARQ-style scheme that retransmits
  only (a neighbourhood of) erroneous bits; goodput
  ``~ rate / (1 + cost_per_error * ber)``.

For the paper's worked example (18 Mbps, 10000-bit frames, frame-level
ARQ) these produce thresholds of roughly ``(3e-6, 4e-5)``, matching the
paper's illustrative ``(1e-7, 1e-5)`` to within the orders of magnitude
the heuristic resolves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.prediction import BER_CEILING, BER_FLOOR, predict_ber
from repro.phy.rates import Rate, RateTable

__all__ = ["FrameLevelArq", "PartialBitArq", "RateThresholds",
           "ThresholdTable", "compute_thresholds"]


class FrameLevelArq:
    """Whole-frame retransmission (802.11 a/b/g ARQ).

    A frame with any bit error is retransmitted entirely, so goodput at
    BER ``b`` is ``rate * (1 - b)^frame_bits``.
    """

    def __init__(self, frame_bits: int = 10000):
        if frame_bits <= 0:
            raise ValueError("frame size must be positive")
        self.frame_bits = frame_bits

    def throughput(self, rate: Rate, ber: float) -> float:
        """Expected goodput (Mbps) at the given channel BER."""
        ber = min(max(ber, 0.0), 1.0)
        # log1p formulation keeps tiny BERs accurate.
        log_success = self.frame_bits * np.log1p(-min(ber, 1 - 1e-12))
        return rate.mbps * float(np.exp(log_success))


class PartialBitArq:
    """Partial-packet recovery / hybrid ARQ.

    Only erroneous bits (plus a recovery neighbourhood of
    ``cost_per_error`` bits each — parity, chunk framing, and feedback
    overhead) are retransmitted, so a few bit errors are cheap and the
    usable BER range extends orders of magnitude beyond frame-level
    ARQ, as in the paper's "smarter ARQ" example.  The ``(1 - 2 ber)``
    factor collapses goodput as the channel approaches a coin flip
    (BER 0.5 carries no information that recovery could exploit).
    """

    def __init__(self, cost_per_error: float = 500.0):
        if not 0 < cost_per_error < np.inf:
            raise ValueError("cost per error must be positive and finite")
        self.cost_per_error = cost_per_error

    def throughput(self, rate: Rate, ber: float) -> float:
        """Expected goodput (Mbps) at the given channel BER."""
        ber = min(max(ber, 0.0), 1.0)
        usable = max(0.0, 1.0 - 2.0 * ber)
        return rate.mbps * usable / (1.0 + self.cost_per_error * ber)


@dataclass(frozen=True)
class RateThresholds:
    """The optimal-BER interval for one rate.

    ``rate_index`` is optimal while its BER lies in ``(alpha, beta)``;
    at the table edges the unreachable side is 0 or 1.
    """

    rate_index: int
    alpha: float
    beta: float

    def classify(self, ber: float) -> int:
        """-1 = move down, 0 = stay, +1 = move up."""
        if ber > self.beta:
            return -1
        if ber < self.alpha:
            return 1
        return 0


class ThresholdTable:
    """Per-rate thresholds plus the optimal-rate search used for jumps."""

    def __init__(self, rates: RateTable, recovery,
                 thresholds: Sequence[RateThresholds],
                 separation: float):
        self.rates = rates
        self.recovery = recovery
        self._thresholds = list(thresholds)
        self.separation = separation

    def __getitem__(self, rate_index: int) -> RateThresholds:
        return self._thresholds[rate_index]

    def __len__(self) -> int:
        return len(self._thresholds)

    def best_rate(self, current_rate: int, ber: float,
                  max_jump: int = 2) -> int:
        """The throughput-maximising rate reachable within ``max_jump``.

        Predicts the BER at each candidate rate from the measurement at
        the current rate (section 3.3's prediction heuristic) and ranks
        candidates by the recovery model's expected goodput.
        """
        lo = max(0, current_rate - max_jump)
        hi = min(len(self.rates) - 1, current_rate + max_jump)
        best, best_tput = current_rate, -1.0
        for candidate in range(lo, hi + 1):
            predicted = predict_ber(ber, current_rate, candidate,
                                    self.separation)
            if candidate > current_rate and predicted >= BER_CEILING:
                # Saturated prediction: we know nothing about this
                # faster rate except that it is at least as bad as a
                # coin flip — never move up on that.
                continue
            tput = self.recovery.throughput(self.rates[candidate],
                                            predicted)
            if tput > best_tput + 1e-15:
                best, best_tput = candidate, tput
        return best


def _crossover(throughput_current, throughput_other,
               grid: np.ndarray, want_other_above: str) -> float:
    """First/last grid BER where the *other* rate wins."""
    current = np.array([throughput_current(b) for b in grid])
    other = np.array([throughput_other(b) for b in grid])
    wins = other > current
    if want_other_above == "first":      # beta: lower rate wins at high BER
        idx = np.argmax(wins)
        if not wins.any():
            return BER_CEILING
        return float(grid[idx])
    idx = len(grid) - 1 - np.argmax(wins[::-1])  # alpha: last win going up
    if not wins.any():
        return BER_FLOOR
    return float(grid[idx])


def compute_thresholds(rates: RateTable, recovery,
                       separation: float = 10.0,
                       grid_points: int = 600) -> ThresholdTable:
    """Compute ``(alpha_i, beta_i)`` for every rate in the table.

    Args:
        rates: the available rates.
        recovery: an error recovery model with a
            ``throughput(rate, ber)`` method.
        separation: assumed BER ratio between adjacent rates
            (finite, >= 1).
        grid_points: resolution of the log-BER search grid.

    Returns:
        A :class:`ThresholdTable`.
    """
    if not 1.0 <= separation < np.inf:
        raise ValueError(f"separation factor must be finite and >= 1, "
                         f"got {separation!r}")
    grid = np.logspace(np.log10(BER_FLOOR), np.log10(BER_CEILING),
                       grid_points)
    thresholds: List[RateThresholds] = []
    for i, rate in enumerate(rates):
        if i + 1 < len(rates):
            higher = rates[i + 1]

            def up_throughput(b, r=higher, s=separation):
                # A saturated prediction is uninformative, not a win.
                if b * s >= BER_CEILING:
                    return -1.0
                return recovery.throughput(r, b * s)

            alpha = _crossover(
                lambda b, r=rate: recovery.throughput(r, b),
                up_throughput, grid, "last")
        else:
            alpha = BER_FLOOR          # no higher rate to move to
        if i > 0:
            lower = rates[i - 1]
            beta = _crossover(
                lambda b, r=rate: recovery.throughput(r, b),
                lambda b, r=lower, s=separation: recovery.throughput(
                    r, b / s),
                grid, "first")
        else:
            beta = BER_CEILING         # no lower rate to fall back to
        thresholds.append(RateThresholds(rate_index=i, alpha=alpha,
                                         beta=beta))
    return ThresholdTable(rates, recovery, thresholds, separation)

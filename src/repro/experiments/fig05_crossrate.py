"""Fig. 5: BER at QPSK 3/4 vs BER at the other bit rates.

Validates the two observations behind SoftRate's BER prediction
heuristic (section 3.3): at any instant the BER is monotone in bit
rate, and adjacent rates are separated by at least an order of
magnitude within the usable BER range.

Data comes from a walking trace, as in the paper: every 5 ms snapshot
provides one (BER@QPSK3/4, BER@other) pair per rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.channel.mobility import WalkingTrajectory
from repro.experiments.api import register_experiment
from repro.sim.topology import check_duration
from repro.traces.format import LinkTrace
from repro.traces.generate import generate_fading_trace

__all__ = ["Fig5Data", "run_fig5"]

_REFERENCE_RATE = 3            # QPSK 3/4
_USABLE_BER = (1e-7, 1e-2)


@dataclass
class Fig5Data:
    """Per-rate BER pairs against the QPSK 3/4 reference."""

    pairs: Dict[int, np.ndarray]         # rate -> (n, 2) [ref, other]
    rate_names: List[str]

    def monotone_fraction(self, floor: float = 1e-7) -> float:
        """Fraction of snapshots where BER is monotone across rates.

        BERs below ``floor`` are unmeasurable in practice (and in the
        paper's 960-byte frames), so they are treated as ties; the
        paper reports 96% of 5 ms cycles monotone by this criterion.
        """
        refs = self.pairs[_REFERENCE_RATE][:, 0]
        count = 0
        total = len(refs)
        for i in range(total):
            series = [max(self.pairs[r][i, 1], floor)
                      for r in sorted(self.pairs)]
            if all(a <= b * (1 + 1e-9) for a, b in zip(series,
                                                       series[1:])):
                count += 1
        return count / total if total else 0.0

    def median_separation_decades(self, rate: int) -> float:
        """Median log10(BER_rate / BER_ref) in the usable band."""
        data = self.pairs[rate]
        ref = data[:, 0]
        mask = (ref >= _USABLE_BER[0]) & (ref <= _USABLE_BER[1])
        if not mask.any():
            return float("nan")
        ratio = np.log10(np.clip(data[mask, 1], 1e-12, 1.0)) \
            - np.log10(ref[mask])
        return float(np.median(ratio))


def _metrics(data: Fig5Data) -> dict:
    out = {"monotone_fraction": data.monotone_fraction()}
    for rate in sorted(data.pairs):
        if rate == _REFERENCE_RATE:
            continue
        out[f"separation_decades/{data.rate_names[rate]}"] = \
            data.median_separation_decades(rate)
    return out


@register_experiment(
    "fig05",
    description="Cross-rate BER monotonicity and separation",
    params={"seed": 5, "duration": 10.0},
    algorithms=(), metrics=_metrics)
def run_fig5(seed: int = 5, duration: float = 10.0,
             trace: LinkTrace = None) -> Fig5Data:
    """Collect cross-rate BER pairs from a walking trace."""
    check_duration(duration)
    if trace is None:
        rng = np.random.default_rng(seed)
        trajectory = WalkingTrajectory(rng, start_distance=5.0)
        trace = generate_fading_trace(rng, duration,
                                      trajectory.mean_snr_db,
                                      doppler_hz=40.0)
    ref = trace.ber_true[_REFERENCE_RATE]
    pairs = {}
    for r in range(trace.n_rates):
        pairs[r] = np.column_stack([ref, trace.ber_true[r]])
    return Fig5Data(pairs=pairs, rate_names=list(trace.rate_names))

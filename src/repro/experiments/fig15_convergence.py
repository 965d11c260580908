"""Fig. 15: convergence of frame-level protocols after a channel step.

The channel alternates between a good state (best rate QAM16 3/4) and
a bad state (best rate QAM16 1/2) every second; we record the rate
each protocol picks per transmission and measure how long it takes to
settle on the new optimum after each step.

Paper's measurements: RRAA converges in 15-85 ms, SampleRate in
600-650 ms, and RRAA's choice is visibly unstable in the good state —
frame-level protocols must keep probing because a zero loss rate
cannot distinguish "barely working" from "comfortably working".
SoftRate (measured here for contrast) converges in a frame or two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.feedback import Feedback
from repro.experiments.api import register_experiment
from repro.experiments.common import protocol_factory
from repro.phy.rates import RATE_TABLE
from repro.rateadapt import SoftRate
from repro.rateadapt.base import RateAdapter
from repro.sim.topology import make_airtime_fn
from repro.traces.format import LinkTrace
from repro.traces.synthetic import alternating_trace

__all__ = ["ConvergenceResult", "run_fig15", "measure_convergence",
           "run_fig15_protocol"]

_GAP = 80e-6      # DIFS + mean backoff + feedback slot


@dataclass
class ConvergenceResult:
    """Rate choices over time plus summary statistics."""

    times: np.ndarray
    rates: np.ndarray
    period: float
    good_rate: int
    bad_rate: int

    def convergence_times(self, settle_window: int = 20,
                          settle_fraction: float = 0.8
                          ) -> Dict[str, List[float]]:
        """Per channel step, seconds until the protocol *settles* on
        the new optimal rate.

        "Settled" means: from this transmission on, at least
        ``settle_fraction`` of the next ``settle_window`` frames use
        the target rate — so a protocol that merely *samples* the
        target (SampleRate's probes) does not count as converged.

        Returns ``{"to_bad": [...], "to_good": [...]}`` in seconds.
        """
        out = {"to_bad": [], "to_good": []}
        n_periods = int(self.times[-1] / self.period)
        for k in range(n_periods):
            t_step = k * self.period
            in_good = (k % 2) == 1
            target = self.good_rate if in_good else self.bad_rate
            mask = (self.times >= t_step) & \
                (self.times < t_step + self.period)
            times = self.times[mask]
            rates = self.rates[mask]
            key = "to_good" if in_good else "to_bad"
            hits = rates == target
            for i in range(len(times)):
                window = hits[i:i + settle_window]
                if window.size == 0:
                    break
                if window.mean() >= settle_fraction:
                    out[key].append(float(times[i] - t_step))
                    break
        return out

    def instability(self) -> float:
        """Mean rate switches per second (RRAA's wobble in Fig. 15)."""
        switches = np.count_nonzero(np.diff(self.rates))
        return switches / float(self.times[-1] - self.times[0])


def measure_convergence(adapter: RateAdapter, trace: LinkTrace,
                        duration: float = 10.0,
                        payload_bits: int = 11200,
                        airtime_fn: Optional[Callable] = None
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Drive an adapter over a trace with a saturated link-level loop."""
    airtime = airtime_fn or make_airtime_fn(RATE_TABLE.prototype_subset())
    t = 0.0
    times, rates = [], []
    while t < duration:
        rate = adapter.choose_rate(t)
        times.append(t)
        rates.append(rate)
        obs = trace.observe(t, rate)
        duration_s = airtime(payload_bits, rate)
        if obs.detected:
            feedback = Feedback(src=1, dest=0, seq=0, ber=obs.ber_est,
                                frame_ok=obs.delivered, snr_db=obs.snr_db)
            adapter.on_feedback(t, rate, feedback, duration_s)
        else:
            adapter.on_silent_loss(t, rate, duration_s)
        t += duration_s + _GAP
    return np.array(times), np.array(rates)


def run_fig15(adapter_factory, good_rate: int = 5, bad_rate: int = 4,
              period: float = 1.0, duration: float = 10.0,
              seed: int = 15) -> ConvergenceResult:
    """Measure one protocol's convergence on the alternating channel."""
    rates_table = RATE_TABLE.prototype_subset()
    trace = alternating_trace(good_rate=good_rate, bad_rate=bad_rate,
                              period=period, duration=duration)
    adapter = adapter_factory(rates_table, trace)
    times, rates = measure_convergence(adapter, trace, duration)
    return ConvergenceResult(times=times, rates=rates, period=period,
                             good_rate=good_rate, bad_rate=bad_rate)


def _metrics(result: ConvergenceResult) -> dict:
    times = result.convergence_times()

    def _median_s(values):
        return float(np.median(values)) if values else float("nan")

    return {
        "median_to_bad_s": _median_s(times["to_bad"]),
        "median_to_good_s": _median_s(times["to_good"]),
        "rate_switches_per_s": result.instability(),
    }


#: The synthetic alternating trace reports paper-scale BER estimates,
#: so SoftRate runs with its default (paper, separation=10) thresholds
#: here, not the trace-calibrated ones the TCP experiments need; the
#: other protocols come straight from the shared factory mapping.
_CONVERGENCE_ADAPTERS = {
    "softrate": lambda rates, trace: SoftRate(rates),
}


@register_experiment(
    "fig15",
    description="Protocol convergence after an abrupt channel step",
    params={"protocol": "softrate", "good_rate": 5, "bad_rate": 4,
            "period": 1.0, "duration": 10.0},
    algorithms=("softrate", "rraa", "samplerate"),
    seed_param=None, metrics=_metrics)
def run_fig15_protocol(protocol: str = "softrate", good_rate: int = 5,
                       bad_rate: int = 4, period: float = 1.0,
                       duration: float = 10.0) -> ConvergenceResult:
    """Declarative front-end to :func:`run_fig15`: protocol by name.

    The alternating channel and the adapters are deterministic, so the
    experiment carries no seed parameter.  ``snr``/``charm`` are
    rejected: their trained thresholds have no meaning here and the
    declarative interface offers no training trace to supply.
    """
    if protocol in ("snr", "charm"):
        raise ValueError(
            f"fig15 does not support trained protocol {protocol!r}; "
            "supported: ['softrate', 'rraa', 'samplerate', "
            "'omniscient', 'snr-untrained']")
    factory = _CONVERGENCE_ADAPTERS.get(protocol) \
        or protocol_factory(protocol)
    return run_fig15(factory, good_rate=good_rate, bad_rate=bad_rate,
                     period=period, duration=duration)

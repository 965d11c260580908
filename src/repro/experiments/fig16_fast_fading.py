"""Fig. 16: TCP throughput in simulated fast-fading channels.

One client uploads TCP over channels whose coherence time sweeps from
1 ms down to 100 us (Doppler 400 Hz to 4 kHz).  Throughput is
normalised by the omniscient algorithm because the absolute best rate
falls as coherence shrinks.

Expected shape (paper section 6.3): SoftRate stays near its slow-
fading normalised throughput across all coherence times *without
retraining*; the untrained SNR protocol — whose thresholds reflect a
slower channel — overselects more and more as coherence shrinks,
losing up to ~4x at 100 us; frame-level protocols sit in between,
degraded but not coherence-sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.channel.rayleigh import doppler_for_coherence
from repro.experiments.api import register_experiment
from repro.experiments.common import (averaged_tcp_throughput,
                                      omniscient_factory, rraa_factory,
                                      samplerate_factory,
                                      snr_trained_factory,
                                      softrate_factory)
from repro.traces.workloads import link_traces

__all__ = ["FastFadingResult", "run_fig16"]


@dataclass
class FastFadingResult:
    """Normalised throughput per algorithm per coherence time."""

    coherence_times: List[float]
    normalized: Dict[str, List[float]]      # algorithm -> per coherence
    omniscient_mbps: List[float]


def _metrics(result: "FastFadingResult") -> dict:
    out = {}
    for name, values in result.normalized.items():
        for coherence, v in zip(result.coherence_times, values):
            out[f"normalized/{name}/{coherence * 1e6:g}us"] = float(v)
    for coherence, mbps in zip(result.coherence_times,
                               result.omniscient_mbps):
        out[f"omniscient_mbps/{coherence * 1e6:g}us"] = float(mbps)
    return out


@register_experiment(
    "fig16",
    description="TCP throughput in fast-fading channels (no retraining)",
    params={"coherence_times": (1e-3, 500e-6, 200e-6, 100e-6),
            "duration": 4.0, "seeds": (1, 2), "mean_snr_db": 22.0,
            "trace_seed": 16, "phy_backend": None},
    algorithms=("softrate", "snr", "rraa", "samplerate", "omniscient"),
    seed_param="seeds", metrics=_metrics)
def run_fig16(coherence_times: Sequence[float] = (1e-3, 500e-6, 200e-6,
                                                  100e-6),
              duration: float = 4.0, seeds=(1, 2),
              mean_snr_db: float = 22.0, trace_seed: int = 16,
              phy_backend=None) -> FastFadingResult:
    """Run the fast-fading sweep.

    The SNR-based protocol is trained on *walking* traces (40 Hz), as
    in the paper: "the SNR-BER relationships used by the SNR-based
    protocol are obtained over the walking traces used in section 6.2"
    — which is exactly what makes it untrained for these channels.

    ``phy_backend`` selects frame-fate computation for the TCP
    simulations: ``None`` (precomputed trace columns), ``"full"``, or
    ``"surrogate"`` (see :mod:`repro.phy.backend`).  Caveat: the
    omniscient baseline's *rate choices* still come from the
    precomputed trace, so under a backend it is a strong heuristic
    rather than a true oracle — normalized values may exceed 1.0.
    """
    walking = link_traces("walking", 1, trace_seed, 10.0)[0]
    algorithms = [
        ("SoftRate", softrate_factory),
        ("SNR (untrained)", snr_trained_factory(walking)),
        ("RRAA", rraa_factory),
        ("SampleRate", samplerate_factory),
    ]

    normalized: Dict[str, List[float]] = {name: []
                                          for name, _f in algorithms}
    omniscient_mbps: List[float] = []
    for i, coherence in enumerate(coherence_times):
        doppler = doppler_for_coherence(coherence)
        up = link_traces("fading", 1, trace_seed + i, duration,
                         mean_snr_db, doppler)
        down = link_traces("fading", 1, trace_seed + 100 + i, duration,
                           mean_snr_db, doppler)
        baseline = averaged_tcp_throughput(
            up, down, omniscient_factory, n_clients=1,
            duration=duration, seeds=seeds,
            phy_backend=phy_backend)["mbps"]
        omniscient_mbps.append(baseline)
        for name, factory in algorithms:
            mbps = averaged_tcp_throughput(
                up, down, factory, n_clients=1, duration=duration,
                seeds=seeds, phy_backend=phy_backend)["mbps"]
            normalized[name].append(
                mbps / baseline if baseline > 0 else 0.0)
    return FastFadingResult(coherence_times=list(coherence_times),
                            normalized=normalized,
                            omniscient_mbps=omniscient_mbps)

"""Figs. 13 & 14: TCP over slow-fading mobile channels.

The headline end-to-end result: N clients upload TCP through walking-
mobility channels (Fig. 12 topology).  Fig. 13 plots aggregate TCP
throughput vs N for the six algorithms; Fig. 14 slices rate-selection
accuracy for the N = 1 case.

Expected shape (paper section 6.2): Omniscient > SoftRate >
SNR (trained) ~ CHARM > RRAA > SampleRate, with SoftRate up to 2x
RRAA and ~4x SampleRate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.metrics import RateAccuracy, rate_selection_accuracy
from repro.experiments.api import register_experiment
from repro.experiments.common import (averaged_tcp_throughput,
                                      standard_algorithms)
from repro.sim.topology import check_duration
from repro.traces.format import LinkTrace
from repro.traces.workloads import downlink_seed, link_traces

__all__ = ["SlowFadingResult", "run_fig13"]


@dataclass
class SlowFadingResult:
    """Throughput matrix and N=1 accuracy per algorithm."""

    client_counts: List[int]
    throughput_mbps: Dict[str, List[float]]     # algorithm -> per N
    accuracy: Dict[str, RateAccuracy]            # N = 1 case


def _metrics(result: "SlowFadingResult") -> dict:
    out = {}
    for name, values in result.throughput_mbps.items():
        for n, mbps in zip(result.client_counts, values):
            out[f"mbps/{name}/N={n}"] = float(mbps)
    for name, acc in result.accuracy.items():
        out[f"accuracy/{name}"] = float(acc.accurate)
    return out


@register_experiment(
    "fig13",
    description="TCP throughput over slow-fading mobile channels",
    params={"client_counts": (1, 2, 3, 4, 5), "duration": 5.0,
            "seeds": (1, 2), "trace_seed": 2009, "phy_backend": None},
    algorithms=("omniscient", "softrate", "snr", "charm", "rraa",
                "samplerate"),
    seed_param="seeds", metrics=_metrics)
def run_fig13(client_counts: Sequence[int] = (1, 2, 3, 4, 5),
              duration: float = 5.0, seeds=(1, 2),
              trace_seed: int = 2009,
              uplink_traces: Sequence[LinkTrace] = None,
              downlink_traces: Sequence[LinkTrace] = None,
              algorithms=None, phy_backend=None) -> SlowFadingResult:
    """Run the slow-fading TCP experiment.

    Args:
        client_counts: the N values of Fig. 13's x-axis.
        duration: seconds of TCP transfer per run.
        seeds: simulation seeds averaged per point.
        trace_seed: walking-trace generation seed.
        uplink_traces / downlink_traces: override the default walking
            traces (one per client, both directions).
        algorithms: override the (name, factory) list.
        phy_backend: ``None`` for the traces' precomputed frame fates,
            or ``"full"`` / ``"surrogate"`` to recompute each fate from
            the SNR trajectory (see :mod:`repro.phy.backend`; the
            omniscient baseline still reads the precomputed trace).
    """
    check_duration(duration)
    n_max = max(client_counts)
    if downlink_traces is None:
        downlink_traces = link_traces(
            "walking", n_max, downlink_seed(trace_seed, n_max), 10.0)
    if uplink_traces is None:
        uplink_traces = link_traces("walking", n_max, trace_seed, 10.0)
    if algorithms is None:
        algorithms = standard_algorithms(uplink_traces[0])

    throughput: Dict[str, List[float]] = {}
    accuracy: Dict[str, RateAccuracy] = {}
    for name, factory in algorithms:
        per_n = []
        for n in client_counts:
            outcome = averaged_tcp_throughput(
                uplink_traces[:n], downlink_traces[:n], factory,
                n_clients=n, duration=duration, seeds=seeds,
                phy_backend=phy_backend)
            per_n.append(outcome["mbps"])
            if n == 1:
                log = outcome["last_result"].frame_logs[1]
                accuracy[name] = rate_selection_accuracy(
                    log, uplink_traces[0])
        throughput[name] = per_n
    return SlowFadingResult(client_counts=list(client_counts),
                            throughput_mbps=throughput,
                            accuracy=accuracy)

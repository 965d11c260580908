"""Figs. 17 & 18: TCP throughput in interference-dominated channels.

Five clients upload TCP through a *static* channel (isolating the
interference effect from mobility) while the pairwise carrier-sense
probability between clients sweeps from 0 (perfect hidden terminals)
to 1 (no collisions).  Two SoftRate variants are compared, as in the
paper: the present implementation (80% interference detection, no
postamble feedback) and the ideal one (perfect detection with
postambles).

Expected shape (section 6.4): RRAA collapses as carrier sense degrades
(it reacts to short-term loss, so collisions drag its rate down, and
adaptive RTS flaps without helping); SampleRate is resilient (its long
window spreads collision losses over all rates); SoftRate matches
SampleRate with the present detector and beats it with the ideal one;
Fig. 18 shows RRAA underselecting at Pr[CS] = 0.8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.metrics import RateAccuracy, rate_selection_accuracy
from repro.experiments.api import register_experiment
from repro.experiments.common import (averaged_tcp_throughput,
                                      rraa_factory, samplerate_factory,
                                      softrate_factory)
from repro.sim.topology import check_duration
from repro.traces.workloads import downlink_seed, link_traces

__all__ = ["InterferenceTcpResult", "run_fig17"]


@dataclass
class InterferenceTcpResult:
    """Throughput vs carrier-sense probability, plus Fig. 18 accuracy."""

    cs_probabilities: List[float]
    throughput_mbps: Dict[str, List[float]]
    accuracy_at: Dict[str, RateAccuracy]       # at cs = accuracy_cs
    accuracy_cs: float


def _metrics(result: "InterferenceTcpResult") -> dict:
    out = {}
    for name, values in result.throughput_mbps.items():
        for cs, mbps in zip(result.cs_probabilities, values):
            out[f"mbps/{name}/cs={cs:g}"] = float(mbps)
    for name, acc in result.accuracy_at.items():
        out[f"accuracy/{name}"] = float(acc.accurate)
    return out


@register_experiment(
    "fig17",
    description="TCP throughput under hidden-terminal interference",
    params={"cs_probabilities": (0.0, 0.4, 0.8, 1.0), "n_clients": 5,
            "duration": 4.0, "seeds": (1,), "trace_seed": 17,
            "accuracy_cs": 0.8, "mean_snr_db": 16.0},
    algorithms=("softrate", "rraa", "samplerate"),
    seed_param="seeds", metrics=_metrics)
def run_fig17(cs_probabilities: Sequence[float] = (0.0, 0.4, 0.8, 1.0),
              n_clients: int = 5, duration: float = 4.0, seeds=(1,),
              trace_seed: int = 17, accuracy_cs: float = 0.8,
              mean_snr_db: float = 16.0) -> InterferenceTcpResult:
    """Run the interference-dominated TCP experiment."""
    check_duration(duration)
    down_seed = downlink_seed(trace_seed, n_clients)
    up = link_traces("static", n_clients, trace_seed, 10.0, mean_snr_db)
    down = link_traces("static", n_clients, down_seed, 10.0, mean_snr_db)
    algorithms = [
        ("SoftRate (Ideal)", softrate_factory,
         {"detect_prob": 1.0, "use_postambles": True}),
        ("SoftRate", softrate_factory,
         {"detect_prob": 0.8, "use_postambles": False}),
        ("RRAA", rraa_factory, {}),
        ("SampleRate", samplerate_factory, {}),
    ]

    throughput: Dict[str, List[float]] = {name: []
                                          for name, _f, _k in algorithms}
    accuracy: Dict[str, RateAccuracy] = {}
    for cs in cs_probabilities:
        for name, factory, kwargs in algorithms:
            outcome = averaged_tcp_throughput(
                up, down, factory, n_clients=n_clients,
                duration=duration, seeds=seeds,
                carrier_sense_prob=cs, **kwargs)
            throughput[name].append(outcome["mbps"])
            if abs(cs - accuracy_cs) < 1e-9:
                logs = outcome["last_result"].frame_logs
                merged = []
                for client in range(1, n_clients + 1):
                    merged.extend(
                        (entry, up[client - 1])
                        for entry in logs[client])
                over = acc = under = 0
                for entry, trace in merged:
                    best = trace.best_rate_at(entry.time)
                    if best is None:
                        continue
                    if entry.rate_index > best:
                        over += 1
                    elif entry.rate_index == best:
                        acc += 1
                    else:
                        under += 1
                n = max(over + acc + under, 1)
                accuracy[name] = RateAccuracy(
                    overselect=over / n, accurate=acc / n,
                    underselect=under / n, n_frames=n)
    return InterferenceTcpResult(
        cs_probabilities=list(cs_probabilities),
        throughput_mbps=throughput, accuracy_at=accuracy,
        accuracy_cs=accuracy_cs)

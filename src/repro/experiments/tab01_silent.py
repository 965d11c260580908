"""Table 1 and Fig. 4: silent losses under hidden-terminal collisions.

Two senders that cannot carrier-sense each other saturate the medium
with UDP at random rates (the paper's setup: "the two senders s1 and
s2 transmit UDP packets as fast as possible, picking a random transmit
bit rate on each packet ... only collisions result in frame losses").
For each sender we measure the fraction of frames for which *neither*
preamble nor postamble was interference-free (Table 1) and the run
lengths of consecutive such silent losses (Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.metrics import ccdf, run_lengths
from repro.experiments.api import register_experiment
from repro.phy.rates import RATE_TABLE
from repro.rateadapt.base import RateAdapter
from repro.sim.eventsim import Simulator
from repro.sim.mac import MacConfig, Station
from repro.sim.topology import check_duration, make_airtime_fn
from repro.sim.udp import UdpSource
from repro.sim.wireless import WirelessChannel
from repro.traces.synthetic import constant_trace

__all__ = ["SilentLossResult", "run_silent_loss_experiment"]


class _RandomRate(RateAdapter):
    """Picks a uniformly random rate per frame (the paper's workload)."""

    name = "Random"

    def __init__(self, rates, rng: np.random.Generator):
        super().__init__(rates)
        self._rng = rng

    def choose_rate(self, now: float) -> int:
        self.current_rate = int(self._rng.integers(0, len(self.rates)))
        return self.current_rate


@dataclass
class SilentLossResult:
    """Outcome of one Table 1 configuration."""

    frame_sizes: Tuple[int, int]
    silent_fraction: Dict[int, float]       # per sender id
    silent_run_ccdf: Dict[int, List[tuple]]
    frames_sent: Dict[int, int]


def _metrics(result: "SilentLossResult") -> dict:
    out = {}
    for sender, fraction in result.silent_fraction.items():
        out[f"silent_fraction/sender_{sender}"] = float(fraction)
    for sender, count in result.frames_sent.items():
        out[f"frames_sent/sender_{sender}"] = float(count)
    return out


@register_experiment(
    "tab01",
    description="Silent losses under hidden-terminal collisions",
    params={"frame_bytes": (1400, 1400), "duration": 5.0, "seed": 4},
    algorithms=("random-rate",), metrics=_metrics)
def run_silent_loss_experiment(frame_bytes: Tuple[int, int] = (1400, 1400),
                               duration: float = 5.0,
                               seed: int = 4) -> SilentLossResult:
    """Run one row of Table 1.

    Args:
        frame_bytes: payload sizes of the two senders.
        duration: simulated seconds.
        seed: RNG seed.
    """
    check_duration(duration)
    rates = RATE_TABLE.prototype_subset()
    sim = Simulator()
    rng = np.random.default_rng(seed)

    # Lossless channel: only collisions cause losses (paper: "the
    # physical layer parameters ... such that only collisions result in
    # frame losses").  Senders 1 and 2 each talk to their own receiver
    # (3 and 4).
    trace = constant_trace(best_rate=len(rates) - 1, duration=1.0)
    traces = {(1, 3): trace, (2, 4): trace}

    def cs_prob(listener: int, transmitter: int) -> float:
        if {listener, transmitter} == {1, 2}:
            return 0.0                # perfect hidden terminals
        return 1.0

    channel = WirelessChannel(traces, rng, use_postambles=True,
                              carrier_sense_prob=cs_prob)
    airtime = make_airtime_fn(rates)
    # The standard retry limit matters here: binary exponential backoff
    # up to CW_max is what re-aligns the two hidden senders after a
    # collision (section 3.2's argument for why full-overlap rarely
    # repeats on retries).
    config = MacConfig(retry_limit=7)

    stations = {}
    sources = {}
    for sender, receiver, size in [(1, 3, frame_bytes[0]),
                                   (2, 4, frame_bytes[1])]:
        station_rng = np.random.default_rng(seed + sender)
        station = Station(
            sim, channel, sender, station_rng,
            adapter_factory=lambda peer, r=station_rng: _RandomRate(
                rates, r),
            airtime_fn=airtime, config=config)
        # Receivers are passive stations.
        Station(sim, channel, receiver,
                np.random.default_rng(seed + receiver),
                adapter_factory=lambda peer: _RandomRate(
                    rates, np.random.default_rng(0)),
                airtime_fn=airtime, config=config)
        source = UdpSource(flow=sender,
                           transmit=lambda d, s=station, rx=receiver:
                           s.send(rx, d, d.size_bits),
                           size_bytes=size)
        station.on_queue_drain = source.pump
        stations[sender] = station
        sources[sender] = source

    for source in sources.values():
        source.pump()
    sim.run_until(duration)

    silent_fraction = {}
    run_ccdfs = {}
    frames = {}
    for sender, station in stations.items():
        log = station.frame_log
        silent_flags = [entry.kind == "silent" for entry in log]
        frames[sender] = len(log)
        silent_fraction[sender] = (np.mean(silent_flags)
                                   if log else 0.0)
        run_ccdfs[sender] = ccdf(run_lengths(silent_flags))
    return SilentLossResult(frame_sizes=frame_bytes,
                            silent_fraction=silent_fraction,
                            silent_run_ccdf=run_ccdfs,
                            frames_sent=frames)

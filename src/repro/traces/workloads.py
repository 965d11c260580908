"""The Table 4 experiment presets.

Each function configures the workload of one row of the paper's
Table 4 ("A summary of the experiments used to evaluate SoftPHY and
SoftRate") and returns ready-to-use traces or generator parameters.
Scale factors (trace lengths, frame counts) are reduced relative to
the paper's testbed where noted; EXPERIMENTS.md records the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.channel.mobility import WalkingTrajectory
from repro.traces.format import LinkTrace
from repro.traces.generate import generate_fading_trace

__all__ = ["ExperimentPreset", "static_experiment", "walking_experiment",
           "simulation_experiment", "walking_traces",
           "simulation_traces", "static_short_range_traces",
           "DOWNLINK_SEED_OFFSET", "downlink_seed"]

#: How far above the uplink seed fig13, fig17 and ``repro simulate
#: --workload tcp`` seed their downlink traces.  The generators seed
#: link ``i`` at ``seed + i``, so it is also the largest client count
#: those entry points support.
DOWNLINK_SEED_OFFSET = 50


@dataclass(frozen=True)
class ExperimentPreset:
    """Parameters of one Table 4 row."""

    name: str
    description: str
    tx_powers_db: tuple
    n_runs: int
    doppler_hz: float
    duration: float


def static_experiment(n_powers: int = 20) -> ExperimentPreset:
    """Table 4 "Static": six static pairs, 20 tx powers, 6 bit rates."""
    return ExperimentPreset(
        name="static",
        description="static sender-receiver pairs, long range mode",
        tx_powers_db=tuple(np.linspace(0.0, 19.0, n_powers)),
        n_runs=6, doppler_hz=0.5, duration=1.0)


def walking_experiment() -> ExperimentPreset:
    """Table 4 "Walking": sender walking away, 10 runs of 10 s."""
    return ExperimentPreset(
        name="walking",
        description="walking-speed mobility, short range mode",
        tx_powers_db=(10.0,), n_runs=10, doppler_hz=40.0, duration=10.0)


def simulation_experiment(doppler_hz: float) -> ExperimentPreset:
    """Table 4 "Simulation": GNU Radio fading simulator, 40 Hz-4 kHz."""
    if not 40.0 <= doppler_hz <= 4000.0:
        raise ValueError("paper sweeps Doppler 40 Hz to 4 kHz")
    return ExperimentPreset(
        name=f"simulation_{int(doppler_hz)}hz",
        description="fading channel simulator at fixed Doppler spread",
        tx_powers_db=tuple(np.linspace(0.0, 19.0, 20)),
        n_runs=1, doppler_hz=doppler_hz, duration=2.0)


def downlink_seed(seed: int, n_links: int) -> int:
    """The downlink trace seed paired with uplink trace seed ``seed``.

    Raises:
        ValueError: ``n_links`` exceeds :data:`DOWNLINK_SEED_OFFSET`,
            so uplink ``DOWNLINK_SEED_OFFSET`` and downlink 0 would be
            one fading realisation.
    """
    if n_links > DOWNLINK_SEED_OFFSET:
        raise ValueError(
            f"{n_links} clients would alias: uplink "
            f"{DOWNLINK_SEED_OFFSET} and downlink 0 would be the same "
            f"trace.  This workload is limited to {DOWNLINK_SEED_OFFSET} "
            f"clients; the campaign 'cell' experiment runs larger cells "
            f"(see its _DOWNLINK_SEED_OFFSET).")
    return seed + DOWNLINK_SEED_OFFSET


def walking_traces(n_links: int, duration: float = 10.0,
                   seed: int = 2009, payload_bits: int = 11200
                   ) -> List[LinkTrace]:
    """The ten walking traces used to model links in section 6.2.

    Each link gets an independent walking trajectory (independent
    fading realisation and start distance) but the same statistics.
    """
    traces = []
    for link in range(n_links):
        rng = np.random.default_rng(seed + link)
        trajectory = WalkingTrajectory(
            rng, start_distance=float(rng.uniform(4.0, 8.0)),
            speed=1.2, doppler_hz=40.0)
        traces.append(generate_fading_trace(
            rng, duration=duration, mean_snr_db=trajectory.mean_snr_db,
            doppler_hz=40.0, payload_bits=payload_bits))
    return traces


def simulation_traces(doppler_hz: float, n_links: int = 1,
                      duration: float = 5.0, mean_snr_db: float = 18.0,
                      seed: int = 2009, payload_bits: int = 11200
                      ) -> List[LinkTrace]:
    """Fast-fading simulator traces for section 6.3 (fixed Doppler)."""
    traces = []
    for link in range(n_links):
        rng = np.random.default_rng(seed + 100 + link)
        traces.append(generate_fading_trace(
            rng, duration=duration,
            mean_snr_db=lambda t: mean_snr_db,
            doppler_hz=doppler_hz, payload_bits=payload_bits))
    return traces


def static_short_range_traces(n_links: int, duration: float = 10.0,
                              mean_snr_db: float = 16.0, seed: int = 2009,
                              payload_bits: int = 11200) -> List[LinkTrace]:
    """Static short-range traces for the interference study (6.4).

    A static channel (residual Doppler from environmental motion only)
    where a mid-table rate is the steady optimum; collisions are then
    injected by the MAC simulation, not the trace.
    """
    traces = []
    for link in range(n_links):
        rng = np.random.default_rng(seed + 200 + link)
        traces.append(generate_fading_trace(
            rng, duration=duration,
            mean_snr_db=lambda t: mean_snr_db,
            doppler_hz=1.0, payload_bits=payload_bits))
    return traces

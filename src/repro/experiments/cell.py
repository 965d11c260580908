"""The campaign matrix cell: one point of a large scenario sweep.

Every campaign (:mod:`repro.campaigns`) expands into thousands of
parameterizations of this one registered experiment — a short
contention run at a single (protocol, channel model, interference
level, client count, SNR, PHY backend) point, reduced to the tidy
scalar metrics the paper's matrix claim is argued over: throughput,
loss, convergence time, and rate-selection accuracy.  The workload is
either the Fig. 12 TCP uplink (default) or a saturated MAC flood,
and the MAC flood can run on either the event-driven engine or the
vectorised slot-synchronous one (``mac_engine="slot"``), which is how
campaigns reach 1000-station cells.

Design notes for campaign scale:

* **Trace pooling** — trace generation dominates large-``N`` runs, so
  ``trace_pool`` caps the number of distinct fading realisations per
  direction; the topology recycles them across clients
  (``recycle_traces``).  An in-process LRU cache additionally shares
  generated traces between cells that differ only in protocol, MAC
  seed or a channel input their channel model does not read (walking
  reads neither ``mean_snr_db`` nor ``doppler_hz``, static ignores
  ``doppler_hz``), which is the common case inside a matrix.  Pooled
  traces are read-only: writing to one raises ``ValueError``.
* **Determinism** — everything derives from ``seed`` / ``trace_seed``;
  the ``frame_log_digest`` metric is an exact content hash of every
  station's frame log, so the campaign determinism wall can assert
  bit-identical behaviour across serial, pooled and sharded execution.
* **Replicates** — ``replicate`` is deliberately unused by the
  simulation: it exists so a campaign's replicate axis changes the
  scenario identity (and therefore its derived seed) without touching
  any physical knob.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

from repro.analysis.metrics import (frame_log_digest,
                                    rate_selection_accuracy,
                                    settling_time)
from repro.experiments.api import register_experiment
from repro.sim.slotmac import run_slot_contention
from repro.sim.topology import AP_ID, run_mac_contention, run_tcp_uplink
from repro.traces.format import LinkTrace
from repro.traces.workloads import channel_inputs, link_traces

__all__ = ["run_cell"]

#: Trace time generated beyond the simulated duration, so frames in
#: flight at the end of the run still observe in-range trace slots.
_TRACE_MARGIN_S = 0.1

#: Seed offset separating downlink from uplink trace generation.
#: :func:`repro.traces.workloads.link_traces` seeds link ``i`` at
#: ``seed + i`` (plus a per-channel constant), so this must exceed any
#: plausible pool size — a small offset like 50 would make uplink
#: trace ``50`` and downlink trace ``0`` bit-identical on larger pools.
_DOWNLINK_SEED_OFFSET = 500_009


@lru_cache(maxsize=64)
def _trace_pool(channel: str, n_links: int, duration: float,
                mean_snr_db: Optional[float], doppler_hz: Optional[float],
                seed: int) -> Tuple[LinkTrace, ...]:
    """One direction's read-only traces, memoized per process.

    Trace generation is a pure function of these arguments and the
    traces are read-only, so cells differing only in protocol, MAC
    seed or carrier sensing share one realisation per direction.
    Callers pass the channel inputs through
    :func:`repro.traces.workloads.channel_inputs`, so an input the
    channel does not read never splits the cache.
    """
    return link_traces(channel, n_links, seed, duration, mean_snr_db,
                       doppler_hz)


@register_experiment(
    "cell",
    description="one campaign matrix cell (short contention TCP run)",
    params={"protocol": "softrate", "channel": "static",
            "mean_snr_db": 16.0, "doppler_hz": 200.0, "n_clients": 1,
            "duration": 0.3, "carrier_sense_prob": 1.0,
            "detect_prob": 0.8, "use_postambles": True,
            "trace_pool": 0, "trace_seed": 2009, "seed": 1,
            "replicate": 0, "phy_backend": "surrogate",
            "workload": "tcp", "mac_engine": "event",
            "payload_bits": 368},
    algorithms=("softrate", "samplerate", "rraa", "snr", "charm",
                "snr-untrained", "omniscient"),
    seed_param="seed")
def run_cell(protocol: str = "softrate", channel: str = "static",
             mean_snr_db: float = 16.0, doppler_hz: float = 200.0,
             n_clients: int = 1, duration: float = 0.3,
             carrier_sense_prob: float = 1.0, detect_prob: float = 0.8,
             use_postambles: bool = True, trace_pool: int = 0,
             trace_seed: int = 2009, seed: int = 1, replicate: int = 0,
             phy_backend: Optional[str] = "surrogate",
             workload: str = "tcp", mac_engine: str = "event",
             payload_bits: int = 368) -> dict:
    """Run one campaign cell; return its flat metric dict.

    Args:
        protocol: rate adaptation protocol name (``snr``/``charm``
            train their thresholds on the first uplink trace).
        channel: ``"walking"`` (mobility), ``"static"`` (short-range,
            interference studies) or ``"fading"`` (fixed Doppler).
        mean_snr_db: mean link SNR for static/fading channels
            (walking derives SNR from the trajectory).
        doppler_hz: Doppler spread for the fading channel.
        n_clients: stations contending for the AP.
        duration: seconds of TCP transfer.
        carrier_sense_prob: pairwise client carrier sensing — the
            interference axis (1.0 = none, 0.0 = hidden terminals).
        detect_prob / use_postambles: SoftPHY interference-detection
            fidelity.
        trace_pool: distinct fading realisations per direction
            (0 = one per client); smaller pools are recycled across
            clients, the large-``N`` scaling knob.
        trace_seed: trace-generation seed.
        seed: MAC simulation seed (campaigns derive one per scenario).
        replicate: replicate index; ignored by the simulation, it only
            diversifies a campaign scenario's derived seed.
        phy_backend: ``"surrogate"`` (default), ``"full"``, or ``None``
            for the traces' precomputed frame fates.
        workload: ``"tcp"`` (Fig. 12 TCP uplink, the default) or
            ``"mac"`` — saturated link-layer flooding, the workload
            both MAC engines implement, and the only one the slot
            engine supports.
        mac_engine: ``"event"`` (the event-driven oracle) or
            ``"slot"`` (:mod:`repro.sim.slotmac`, the vectorised
            slot-synchronous engine for 1000-station cells; requires
            ``workload="mac"`` and full carrier sensing).
        payload_bits: frame payload for the MAC workload (the TCP
            workload derives frame sizes from the transport).

    Returns:
        Flat ``{metric: float}`` dict: ``mbps``, ``fairness`` (Jain
        index over flows), ``loss_rate`` / ``retry_rate`` (over logged
        attempts), ``convergence_s``, rate-selection accuracy
        fractions, ``n_frames`` and ``frame_log_digest``.
    """
    from repro.experiments.common import protocol_factory

    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if workload not in ("tcp", "mac"):
        raise ValueError(f"unknown workload {workload!r}; "
                         f"available: ['tcp', 'mac']")
    if mac_engine not in ("event", "slot"):
        raise ValueError(f"unknown mac_engine {mac_engine!r}; "
                         f"available: ['event', 'slot']")
    if mac_engine == "slot" and workload != "mac":
        raise ValueError("the slot-synchronous engine only implements "
                         "the saturated 'mac' workload")
    pool = n_clients if trace_pool <= 0 else min(trace_pool, n_clients)
    trace_duration = duration + _TRACE_MARGIN_S
    snr_key, doppler_key = channel_inputs(channel, mean_snr_db,
                                          doppler_hz)
    uplinks = _trace_pool(channel, pool, trace_duration, snr_key,
                          doppler_key, trace_seed)
    factory = protocol_factory(protocol, training_trace=uplinks[0])
    if workload == "tcp":
        downlinks = _trace_pool(channel, pool, trace_duration, snr_key,
                                doppler_key,
                                trace_seed + _DOWNLINK_SEED_OFFSET)
        result = run_tcp_uplink(
            uplinks, downlinks, factory,
            n_clients=n_clients, duration=duration, seed=seed,
            carrier_sense_prob=carrier_sense_prob,
            detect_prob=detect_prob, use_postambles=use_postambles,
            phy_backend=phy_backend, recycle_traces=True)
        flows: List[float] = result.per_flow_mbps
        client_trace = result.traces[(1, AP_ID)]
    else:
        run_contention = run_mac_contention if mac_engine == "event" \
            else run_slot_contention
        result = run_contention(
            uplinks, factory, n_clients=n_clients,
            duration=duration, payload_bits=payload_bits, seed=seed,
            carrier_sense_prob=carrier_sense_prob,
            detect_prob=detect_prob, use_postambles=use_postambles,
            phy_backend=phy_backend)
        flows = result.per_client_mbps
        client_trace = uplinks[0]

    square_sum = sum(x * x for x in flows)
    fairness = (sum(flows) ** 2 / (len(flows) * square_sum)) \
        if square_sum > 0 else 0.0

    entries = [e for log in result.frame_logs.values() for e in log]
    n_frames = len(entries)
    lost = sum(1 for e in entries if not e.delivered)
    retries = sum(1 for e in entries if e.retry > 0)

    client_log = result.frame_logs.get(1, [])
    accuracy = rate_selection_accuracy(client_log, client_trace)
    return {
        "mbps": result.aggregate_mbps,
        "fairness": fairness,
        "loss_rate": lost / n_frames if n_frames else float("nan"),
        "retry_rate": retries / n_frames if n_frames else float("nan"),
        "convergence_s": settling_time(client_log),
        "accuracy": accuracy.accurate,
        "overselect": accuracy.overselect,
        "underselect": accuracy.underselect,
        "n_frames": float(n_frames),
        "frame_log_digest": float(frame_log_digest(result.frame_logs)),
    }

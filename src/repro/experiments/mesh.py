"""The mesh campaign cell: one multi-hop roaming scenario.

One registered experiment (``mesh``) that the mesh campaign family
expands over — a short saturated flood from a (possibly roaming)
client across a relay chain built by
:class:`repro.sim.mesh.network.MeshNetwork`, reduced to flat scalar
metrics in the same style as the single-AP ``cell`` experiment:
end-to-end goodput and delivery, per-hop link delivery, handoff
counts/disruption, and the exact ``frame_log_digest`` the campaign
determinism wall asserts on.

Unlike ``cell`` there are no traces: channels derive from geometry,
path loss, shadowing and per-link Rayleigh fading, so only the
untrained protocols can run (``snr``/``charm`` need a training trace
and ``omniscient`` needs a future to read).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.metrics import (frame_log_digest,
                                    handoff_disruption,
                                    per_hop_delivery)
from repro.experiments.api import register_experiment
from repro.sim.mesh import CLIENT_ID, run_mesh_scenario

__all__ = ["run_mesh", "MESH_PROTOCOLS"]

#: Protocols that can run without a training trace (mesh links are
#: generated from geometry, so there is nothing to train on).
MESH_PROTOCOLS = ("softrate", "samplerate", "rraa", "snr-untrained")


@register_experiment(
    "mesh",
    description="one mesh campaign cell (relay chain + roaming client)",
    params={"protocol": "softrate", "n_relays": 2, "spacing_m": 9.0,
            "speed_mps": 0.0, "shadowing_sigma_db": 0.0,
            "doppler_hz": 10.0, "duration": 0.08, "payload_bits": 368,
            "ttl": 0, "detect_prob": 0.8, "use_postambles": True,
            "seed": 1, "replicate": 0, "phy_backend": "surrogate"},
    algorithms=MESH_PROTOCOLS,
    seed_param="seed")
def run_mesh(protocol: str = "softrate", n_relays: int = 2,
             spacing_m: float = 9.0, speed_mps: float = 0.0,
             shadowing_sigma_db: float = 0.0, doppler_hz: float = 10.0,
             duration: float = 0.08, payload_bits: int = 368,
             ttl: int = 0, detect_prob: float = 0.8,
             use_postambles: bool = True, seed: int = 1,
             replicate: int = 0,
             phy_backend: Optional[str] = "surrogate") -> dict:
    """Run one mesh scenario; return its flat metric dict.

    Args:
        protocol: untrained rate adaptation protocol name (one of
            :data:`MESH_PROTOCOLS`).
        n_relays: relays/APs in the chain (the last is the sink).
        spacing_m: relay spacing in metres — the hidden-terminal knob
            (relays two hops apart fall below carrier sense).
        speed_mps: client roaming speed along the chain (0 = static;
            vehicular speeds like 15-30 m/s produce handoffs within a
            MAC-scale window).
        shadowing_sigma_db: per-link log-normal shadowing spread.
        doppler_hz: Rayleigh Doppler spread of every link.
        duration: simulated seconds of saturated flood.
        payload_bits: packet payload size.
        ttl: packet TTL in MAC hops; 0 picks the network default
            (``n_relays + 2``).
        detect_prob / use_postambles: SoftPHY interference-detection
            fidelity.
        seed: scenario seed (campaigns derive one per scenario).
        replicate: replicate index; ignored by the simulation, it only
            diversifies a campaign scenario's derived seed.
        phy_backend: ``"surrogate"`` (default) or ``"full"``.

    Returns:
        Flat ``{metric: float}`` dict: ``mbps`` (end-to-end goodput),
        ``delivery_rate`` / ``mean_hops`` (network layer),
        ``loss_rate`` / ``retry_rate`` (over logged MAC attempts),
        ``access_delivery`` and ``mean_hop_delivery`` /
        ``min_hop_delivery`` (link layer), ``handoff_count`` /
        ``handoff_disruption_s`` (roaming), drop counters, ``n_frames``
        and ``frame_log_digest``.
    """
    from repro.experiments.common import protocol_factory

    if protocol not in MESH_PROTOCOLS:
        raise ValueError(f"unknown mesh protocol {protocol!r}; "
                         f"available: {list(MESH_PROTOCOLS)}")
    result = run_mesh_scenario(
        protocol_factory(protocol), duration=duration,
        n_relays=n_relays, spacing_m=spacing_m,
        client_speed_mps=speed_mps,
        shadowing_sigma_db=shadowing_sigma_db, doppler_hz=doppler_hz,
        phy_backend=phy_backend, detect_prob=detect_prob,
        use_postambles=use_postambles, payload_bits=payload_bits,
        ttl=ttl if ttl > 0 else None, seed=seed)

    entries = [e for log in result.frame_logs.values() for e in log]
    n_frames = len(entries)
    lost = sum(1 for e in entries if not e.delivered)
    retries = sum(1 for e in entries if e.retry > 0)

    client_log = result.frame_logs.get(CLIENT_ID, [])
    access_ok = sum(1 for e in client_log if e.delivered)
    access = access_ok / len(client_log) if client_log \
        else float("nan")

    chain = [(i, i + 1) for i in range(1, n_relays)]
    hops = per_hop_delivery(result.frame_logs, chain)
    import numpy as np
    used = [h for h in hops if not np.isnan(h)]
    return {
        "mbps": result.goodput_mbps,
        "delivery_rate": result.delivery_rate,
        "mean_hops": result.mean_hops,
        "loss_rate": lost / n_frames if n_frames else float("nan"),
        "retry_rate": retries / n_frames if n_frames else float("nan"),
        "access_delivery": access,
        "mean_hop_delivery": float(np.mean(used)) if used
        else float("nan"),
        "min_hop_delivery": float(np.min(used)) if used
        else float("nan"),
        "handoff_count": float(len(result.handoff_times)),
        "handoff_disruption_s": handoff_disruption(
            [t for t, _ in result.delivered], result.handoff_times,
            result.duration),
        "ttl_drops": float(result.ttl_drops),
        "duplicate_drops": float(result.duplicate_drops),
        "n_frames": float(n_frames),
        "frame_log_digest": float(frame_log_digest(result.frame_logs)),
    }

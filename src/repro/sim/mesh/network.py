"""The standard mesh scenario: a relay chain plus a roaming client.

:class:`MeshNetwork` places ``n_relays`` fixed relay/AP nodes in a
line (``spacing_m`` apart), each doubling as an access point, and one
client that moves along the chain at ``client_speed_mps``.  The client
associates with whichever AP has the strongest mean received power and
hands off by hysteresis: it re-scans every ``scan_interval`` seconds
and switches only when another AP beats the current one by
``handoff_hysteresis_db`` — the classic ping-pong damper.

Traffic is a saturated packet flood from the client to the far end of
the chain (the *sink*), so every delivery crosses the access hop plus
however many relay hops geometry requires; per-hop delivery and
handoff disruption are computed downstream by
:mod:`repro.analysis.metrics` from the returned frame logs and
delivery times.

Determinism: geometry is pure, per-link shadowing/fading are seeded by
link identity, station backoff RNGs derive from the scenario seed with
the same ``seed + 1000 + station_id`` convention as
:mod:`repro.sim.topology`, and handoff decisions read fading-free mean
SNR — so a scenario is a pure function of its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.phy.rates import RATE_TABLE, RateTable
from repro.rateadapt.base import RateAdapter
from repro.sim.eventsim import Simulator
from repro.sim.mac import FrameLogEntry, MacConfig
from repro.sim.mesh.forwarding import MeshNode
from repro.sim.mesh.geometry import LinearPath, MeshGeometry
from repro.sim.mesh.radio import MeshChannel
from repro.sim.topology import check_duration, make_airtime_fn

__all__ = ["CLIENT_ID", "MeshNetwork", "MeshResult",
           "run_mesh_scenario"]

#: The roaming client's node id; relays/APs are 1..n_relays.
CLIENT_ID = 0

#: Client track offset from the relay line (metres) — the client walks
#: past the APs, not through them.
_CLIENT_OFFSET_M = 4.0


@dataclass
class MeshResult:
    """Outcome of one :meth:`MeshNetwork.run`."""

    duration: float
    payload_bits: int
    originated: int
    #: ``(delivery_time, hops)`` per packet that reached the sink.
    delivered: List[Tuple[float, int]]
    #: times at which the client switched APs (excludes the initial
    #: association at t=0).
    handoff_times: List[float]
    frame_logs: Dict[int, List[FrameLogEntry]]
    channel_stats: Dict[str, int]
    ttl_drops: int
    duplicate_drops: int
    forward_queue_drops: int

    @property
    def delivery_rate(self) -> float:
        """Fraction of originated packets that reached the sink."""
        if self.originated == 0:
            return float("nan")
        return len(self.delivered) / self.originated

    @property
    def goodput_mbps(self) -> float:
        """End-to-end delivered payload throughput."""
        return len(self.delivered) * self.payload_bits \
            / self.duration / 1e6

    @property
    def mean_hops(self) -> float:
        """Mean MAC hops crossed by delivered packets."""
        if not self.delivered:
            return float("nan")
        return float(np.mean([h for _, h in self.delivered]))


class MeshNetwork:
    """A relay chain with multi-AP roaming, assembled and ready to run.

    Args:
        adapter_factory: ``(rates, trace) -> RateAdapter`` builder —
            the same signature every topology uses; mesh links have no
            traces, so ``trace`` is always None (trained/omniscient
            protocols cannot run here).
        n_relays: relays/APs in the chain (ids 1..n, ``spacing_m``
            apart; the last one is the traffic sink).
        spacing_m: distance between adjacent relays.
        client_speed_mps: client speed along the chain (0 = static).
            The client stops once it reaches the far end.
        rates: rate table (paper's six prototype rates by default).
        seed: scenario seed (backoff, PHY draws, link realisations).
        shadowing_sigma_db: per-link log-normal shadowing spread.
        doppler_hz: Rayleigh Doppler spread of every link.
        phy_backend: ``"full"``, ``"surrogate"``, or a backend object.
        detect_prob / use_postambles: SoftPHY fidelity knobs.
        payload_bits: packet payload size.
        ttl: packet TTL in MAC hops (default ``n_relays + 2``: chain
            length plus slack for a handoff-induced detour).
        handoff_hysteresis_db: margin a rival AP must win by.
        scan_interval: seconds between client AP scans.
        mac_config: MAC parameters.
    """

    def __init__(self, adapter_factory: Callable[..., RateAdapter],
                 n_relays: int = 2, spacing_m: float = 9.0,
                 client_speed_mps: float = 0.0,
                 rates: Optional[RateTable] = None, seed: int = 1,
                 shadowing_sigma_db: float = 0.0,
                 doppler_hz: float = 10.0, phy_backend="surrogate",
                 detect_prob: float = 0.8,
                 use_postambles: bool = True,
                 payload_bits: int = 368, ttl: Optional[int] = None,
                 handoff_hysteresis_db: float = 3.0,
                 scan_interval: float = 0.02,
                 mac_config: Optional[MacConfig] = None):
        if n_relays < 2:
            raise ValueError("a mesh needs at least two relays")
        if spacing_m <= 0:
            raise ValueError("spacing must be positive")
        if scan_interval <= 0:
            raise ValueError("scan interval must be positive")
        self.rates = rates if rates is not None \
            else RATE_TABLE.prototype_subset()
        self.n_relays = n_relays
        self.sink = n_relays
        self.payload_bits = payload_bits
        self.ttl = ttl if ttl is not None else n_relays + 2
        self.handoff_hysteresis_db = handoff_hysteresis_db
        self.scan_interval = scan_interval
        self.sim = Simulator()

        nodes: Dict = {
            CLIENT_ID: LinearPath(
                start=(0.0, _CLIENT_OFFSET_M),
                velocity=(client_speed_mps, 0.0),
                max_travel_m=(n_relays - 1) * spacing_m)}
        for i in range(1, n_relays + 1):
            nodes[i] = ((i - 1) * spacing_m, 0.0)
        self.geometry = MeshGeometry(nodes)

        from repro.channel.pathloss import LogDistancePathLoss
        pathloss = LogDistancePathLoss(
            shadowing_sigma_db=shadowing_sigma_db)
        self.channel = MeshChannel(
            self.geometry, np.random.default_rng(seed),
            phy_backend=phy_backend, rates=self.rates,
            pathloss=pathloss, link_seed=seed, doppler_hz=doppler_hz,
            detect_prob=detect_prob, use_postambles=use_postambles)

        config = mac_config if mac_config is not None else MacConfig()
        airtime = make_airtime_fn(self.rates)
        self.nodes: Dict[int, MeshNode] = {}
        for nid in range(n_relays + 1):
            def build_adapter(peer: int) -> RateAdapter:
                # Mesh links are geometry-driven: no trace to pass.
                return adapter_factory(self.rates, None)

            self.nodes[nid] = MeshNode(
                self.sim, self.channel, nid,
                np.random.default_rng(seed + 1000 + nid),
                adapter_factory=build_adapter, airtime_fn=airtime,
                route=self._next_hop, config=config,
                on_queue_drain=self._refill
                if nid == CLIENT_ID else None)

        self.current_ap = self._best_ap(0.0)
        self.handoff_times: List[float] = []

    # -- routing ------------------------------------------------------------

    def _next_hop(self, node: int, dest: int) -> int:
        """Static chain routing with a roaming access hop.

        The client always sends through its current AP; relays step
        along the chain toward the destination (or toward the client's
        current AP when the destination is the client).
        """
        if node == CLIENT_ID:
            return self.current_ap
        target = self.current_ap if dest == CLIENT_ID else dest
        if node == target:
            return CLIENT_ID if dest == CLIENT_ID else dest
        return node - 1 if node > target else node + 1

    # -- roaming ------------------------------------------------------------

    def _best_ap(self, t: float) -> int:
        """The AP with the strongest mean received power at time t.

        Reads fading-free mean SNR (path loss + shadowing), the moral
        equivalent of a beacon RSSI averaged over many frames.  Ties
        break toward the lowest id for determinism.
        """
        return max(range(1, self.n_relays + 1),
                   key=lambda ap: (self.channel.mean_snr_db(
                       ap, CLIENT_ID, t), -ap))

    def _scan(self) -> None:
        """Periodic roaming scan with hysteresis."""
        now = self.sim.now
        best = self._best_ap(now)
        if best != self.current_ap:
            gain = self.channel.mean_snr_db(best, CLIENT_ID, now) \
                - self.channel.mean_snr_db(self.current_ap, CLIENT_ID,
                                           now)
            if gain >= self.handoff_hysteresis_db:
                self.current_ap = best
                self.handoff_times.append(now)
        self.sim.schedule(self.scan_interval, self._scan)

    # -- traffic ------------------------------------------------------------

    def _refill(self) -> None:
        """Keep the client's MAC queue saturated toward the sink."""
        client = self.nodes[CLIENT_ID]
        while client.originate(self.sink, self.payload_bits, self.ttl):
            pass

    # -- running ------------------------------------------------------------

    def run(self, duration: float) -> MeshResult:
        """Flood client -> sink for ``duration`` seconds."""
        check_duration(duration)
        self.sim.schedule(self.scan_interval, self._scan)
        self._refill()
        self.sim.run_until(duration)
        sink = self.nodes[self.sink]
        return MeshResult(
            duration=duration, payload_bits=self.payload_bits,
            originated=self.nodes[CLIENT_ID].originated,
            delivered=list(sink.delivered),
            handoff_times=list(self.handoff_times),
            frame_logs={nid: node.station.frame_log
                        for nid, node in self.nodes.items()},
            channel_stats=dict(self.channel.stats),
            ttl_drops=sum(n.ttl_drops for n in self.nodes.values()),
            duplicate_drops=sum(n.duplicate_drops
                                for n in self.nodes.values()),
            forward_queue_drops=sum(n.forward_queue_drops
                                    for n in self.nodes.values()))


def run_mesh_scenario(adapter_factory: Callable[..., RateAdapter],
                      duration: float = 0.1,
                      **kwargs) -> MeshResult:
    """Build a :class:`MeshNetwork` and run it — the one-call entry
    point the mesh experiment and campaigns use.

    ``kwargs`` are forwarded to :class:`MeshNetwork` unchanged.
    """
    return MeshNetwork(adapter_factory, **kwargs).run(duration)

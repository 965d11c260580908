"""The Fig. 12 evaluation topology and experiment runners.

``N`` 802.11 clients associate with an access point; the AP connects
to a LAN gateway over a 50 Mbps / 10 ms point-to-point link; each
client runs one TCP flow against a wired LAN node (uplink by default,
as in sections 6.2-6.4).

:func:`run_tcp_uplink` wires everything together and returns per-flow
throughputs plus the frame logs used by the rate-selection accuracy
figures.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.phy.rates import RATE_TABLE, RateTable
from repro.phy.transceiver import Transceiver
from repro.rateadapt.base import RateAdapter
from repro.sim.eventsim import Simulator
from repro.sim.mac import FrameLogEntry, MacConfig, Station
from repro.sim.tcp import MSS_BYTES, Segment, TcpReceiver, TcpSender
from repro.sim.wired import PointToPointLink
from repro.sim.wireless import WirelessChannel
from repro.traces.format import LinkTrace

__all__ = ["AccessPointNetwork", "TcpUplinkResult", "check_duration",
           "run_tcp_uplink", "make_airtime_fn", "MacContentionResult",
           "run_mac_contention"]

AP_ID = 0


def _station_rng(seed: int, sid: int) -> np.random.Generator:
    """Per-station backoff/collision RNG.

    One formula for every AP-centric topology (TCP uplink and MAC
    contention), so the two paths cannot silently diverge in how a
    simulation seed maps to per-station randomness.
    """
    return np.random.default_rng(seed + 1000 + sid)


def _build_wireless_channel(traces, rng, carrier_sense_prob: float,
                            detect_prob: float, use_postambles: bool,
                            phy_backend, rates: RateTable
                            ) -> WirelessChannel:
    """Assemble the shared wireless channel for an AP-centric topology.

    Clients sense each other with ``carrier_sense_prob`` while the AP
    always senses everyone; a backend given by name is resolved with
    *this* topology's rate table — a backend built against the default
    table would mis-index (or silently mis-model) any custom rate set.
    """
    def cs_prob(listener: int, transmitter: int) -> float:
        if listener == AP_ID or transmitter == AP_ID:
            return 1.0
        return carrier_sense_prob

    if phy_backend is not None:
        from repro.phy.backend import get_backend
        phy_backend = get_backend(phy_backend, rates=rates)
    return WirelessChannel(traces, rng, detect_prob=detect_prob,
                           use_postambles=use_postambles,
                           carrier_sense_prob=cs_prob,
                           phy_backend=phy_backend)


def make_airtime_fn(rates: Optional[RateTable] = None
                    ) -> Callable[[int, int], float]:
    """Frame airtime lookup derived from the real PHY layout.

    Durations come from :class:`repro.phy.Transceiver` geometry
    (preamble + header + body + postamble symbol counts), cached per
    (payload size, rate).
    """
    phy = Transceiver(rates=rates)
    cache: Dict = {}

    def airtime(payload_bits: int, rate_index: int) -> float:
        key = (payload_bits, rate_index)
        if key not in cache:
            padded = -(-payload_bits // 8) * 8   # byte-align
            cache[key] = phy.frame_airtime(max(padded, 8), rate_index)
        return cache[key]

    return airtime


@dataclass
class TcpUplinkResult:
    """Outcome of one :func:`run_tcp_uplink` experiment."""

    duration: float
    per_flow_bytes: List[int]
    frame_logs: Dict[int, List[FrameLogEntry]]
    channel_stats: Dict[str, int]
    traces: Dict

    @property
    def per_flow_mbps(self) -> List[float]:
        return [8.0 * b / self.duration / 1e6 for b in self.per_flow_bytes]

    @property
    def aggregate_mbps(self) -> float:
        return float(sum(self.per_flow_mbps))


class AccessPointNetwork:
    """The Fig. 12 topology, assembled and ready to run.

    Args:
        n_clients: number of 802.11 clients (station ids 1..N).
        uplink_traces / downlink_traces: per-client link traces
            (client -> AP and AP -> client); the paper uses different
            traces per direction.
        adapter_factory: ``(rates, trace) -> RateAdapter`` builder, one
            adapter instantiated per (station, peer) pair; ``trace``
            is that directed link's trace (None for unknown links) so
            the omniscient adapter can read the future.
        rates: the rate table (paper's six prototype rates).
        seed: simulation seed (backoff, collision coin flips).
        carrier_sense_prob: pairwise carrier sense probability between
            *client* stations (the AP always senses everyone).
        detect_prob / use_postambles: SoftPHY interference detection
            fidelity (see :class:`repro.sim.wireless.WirelessChannel`).
        mac_config: MAC parameters; the default queue size tracks the
            paper's "slightly exceeds the bandwidth-delay product".
        phy_backend: ``None`` for the traces' precomputed frame fates,
            or a :class:`repro.phy.backend.PhyBackend` / backend name
            (``"full"`` / ``"surrogate"``) to recompute each fate from
            the trace's SNR trajectory.
        recycle_traces: allow fewer traces than clients — client ``i``
            reuses trace ``i % len(traces)`` in each direction.  Trace
            generation dominates large-``N`` contention sweeps, so
            campaigns hand a small trace pool to 50+ stations; clients
            sharing a trace still fade independently of each other in
            MAC terms (independent backoff RNGs and queues), they just
            see the same SNR trajectory.
    """

    def __init__(self, n_clients: int,
                 uplink_traces: Sequence[LinkTrace],
                 downlink_traces: Sequence[LinkTrace],
                 adapter_factory: Callable[[RateTable], RateAdapter],
                 rates: Optional[RateTable] = None, seed: int = 1,
                 carrier_sense_prob: float = 1.0,
                 detect_prob: float = 0.8, use_postambles: bool = True,
                 mac_config: Optional[MacConfig] = None,
                 phy_backend=None, recycle_traces: bool = False):
        if n_clients < 1:
            raise ValueError("need at least one client")
        if not uplink_traces or not downlink_traces:
            raise ValueError("need at least one trace per direction")
        if not recycle_traces and (len(uplink_traces) < n_clients or
                                   len(downlink_traces) < n_clients):
            raise ValueError("need one trace per client per direction "
                             "(or pass recycle_traces=True)")
        self.rates = rates if rates is not None \
            else RATE_TABLE.prototype_subset()
        self.n_clients = n_clients
        self.sim = Simulator()
        rng = np.random.default_rng(seed)

        traces = {}
        for i in range(n_clients):
            client = i + 1
            traces[(client, AP_ID)] = \
                uplink_traces[i % len(uplink_traces)]
            traces[(AP_ID, client)] = \
                downlink_traces[i % len(downlink_traces)]
        self.traces = traces

        self.channel = _build_wireless_channel(
            traces, rng, carrier_sense_prob, detect_prob,
            use_postambles, phy_backend, self.rates)

        config = mac_config if mac_config is not None else MacConfig()
        airtime = make_airtime_fn(self.rates)
        factory = adapter_factory

        self.stations: Dict[int, Station] = {}
        for sid in range(n_clients + 1):
            def build_adapter(peer: int, sid=sid) -> RateAdapter:
                # The factory may want the link's trace (omniscient).
                return factory(self.rates, traces.get((sid, peer)))

            self.stations[sid] = Station(
                self.sim, self.channel, sid, _station_rng(seed, sid),
                adapter_factory=build_adapter,
                airtime_fn=airtime, config=config,
                on_deliver=self._on_wireless_deliver)

        self.wired = PointToPointLink(self.sim)
        self.wired.attach("a", self._on_wired_at_ap)
        self.wired.attach("b", self._on_wired_at_lan)

        self._senders: Dict[int, TcpSender] = {}
        self._receivers: Dict[int, TcpReceiver] = {}

    # -- plumbing -----------------------------------------------------------

    def _client_for_flow(self, flow: int) -> int:
        return flow + 1

    def _on_wireless_deliver(self, frame) -> None:
        """A frame crossed the wireless hop."""
        segment = frame.payload
        if not isinstance(segment, Segment):
            return
        if frame.dest == AP_ID:
            # Uplink data (or ACK) heading to the LAN.
            self.wired.send("a", segment, segment.size_bits)
        else:
            # Downlink: deliver to the client's TCP endpoint.
            sender = self._senders.get(segment.flow)
            if sender is not None and segment.is_ack:
                sender.on_ack(segment)

    def _on_wired_at_lan(self, segment: Segment) -> None:
        receiver = self._receivers.get(segment.flow)
        if receiver is not None and not segment.is_ack:
            receiver.on_data(segment)

    def _on_wired_at_ap(self, segment: Segment) -> None:
        # LAN -> AP: forward over the wireless downlink.
        client = self._client_for_flow(segment.flow)
        self.stations[AP_ID].send(client, segment, segment.size_bits)

    # -- flows -------------------------------------------------------------

    def add_tcp_uplink_flows(self) -> None:
        """One saturated TCP flow per client, client -> LAN node."""
        for flow in range(self.n_clients):
            client = self._client_for_flow(flow)
            station = self.stations[client]

            def tx_data(segment: Segment, station=station) -> None:
                station.send(AP_ID, segment, segment.size_bits)

            def tx_ack(segment: Segment) -> None:
                self.wired.send("b", segment, segment.size_bits)

            self._senders[flow] = TcpSender(self.sim, flow, tx_data)
            self._receivers[flow] = TcpReceiver(self.sim, flow, tx_ack)

    def run(self, duration: float) -> TcpUplinkResult:
        """Start all flows and simulate for ``duration`` seconds."""
        check_duration(duration)
        for sender in self._senders.values():
            sender.start()
        self.sim.run_until(duration)
        per_flow = [self._receivers[f].delivered_bytes
                    for f in range(self.n_clients)]
        logs = {sid: st.frame_log for sid, st in self.stations.items()}
        return TcpUplinkResult(duration=duration, per_flow_bytes=per_flow,
                               frame_logs=logs,
                               channel_stats=dict(self.channel.stats),
                               traces=self.traces)


def check_duration(duration: float) -> None:
    """Reject a simulated ``duration`` that is not positive and finite.

    The simulations here call it before they run; the experiments
    built on them call it first, so a bad duration costs no trace
    generation.

    Raises:
        ValueError: ``duration`` is not a real number (``None``, a
            string, a ``bool``), or is zero, negative, NaN or
            infinite.
    """
    if isinstance(duration, bool) \
            or not isinstance(duration, numbers.Real) \
            or not 0 < duration < np.inf:
        raise ValueError(f"duration must be positive and finite, got "
                         f"{duration!r}")


def run_tcp_uplink(uplink_traces: Sequence[LinkTrace],
                   downlink_traces: Sequence[LinkTrace],
                   adapter_factory: Callable[..., RateAdapter],
                   n_clients: int, duration: float = 10.0, seed: int = 1,
                   carrier_sense_prob: float = 1.0,
                   detect_prob: float = 0.8, use_postambles: bool = True,
                   rates: Optional[RateTable] = None,
                   phy_backend=None,
                   recycle_traces: bool = False) -> TcpUplinkResult:
    """Build the Fig. 12 topology, run N uplink TCP flows, return results.

    ``phy_backend`` selects how frame fates are computed: ``None`` for
    the traces' precomputed columns, ``"full"`` / ``"surrogate"`` (or
    a :class:`repro.phy.backend.PhyBackend`) to recompute them per
    transmission from the SNR trajectory.  ``recycle_traces`` lets a
    small trace pool serve many clients (see
    :class:`AccessPointNetwork`).
    """
    network = AccessPointNetwork(
        n_clients=n_clients, uplink_traces=uplink_traces,
        downlink_traces=downlink_traces, adapter_factory=adapter_factory,
        rates=rates, seed=seed, carrier_sense_prob=carrier_sense_prob,
        detect_prob=detect_prob, use_postambles=use_postambles,
        phy_backend=phy_backend, recycle_traces=recycle_traces)
    network.add_tcp_uplink_flows()
    return network.run(duration)


@dataclass
class MacContentionResult:
    """Outcome of one :func:`run_mac_contention` experiment."""

    duration: float
    payload_bits: int
    per_client_frames: List[int]
    frame_logs: Dict[int, List[FrameLogEntry]]
    channel_stats: Dict[str, int]

    @property
    def per_client_mbps(self) -> List[float]:
        return [n * self.payload_bits / self.duration / 1e6
                for n in self.per_client_frames]

    @property
    def aggregate_mbps(self) -> float:
        return float(sum(self.per_client_mbps))


def run_mac_contention(uplink_traces: Sequence[LinkTrace],
                       adapter_factory: Callable[..., RateAdapter],
                       n_clients: int, duration: float = 0.2,
                       payload_bits: int = 368, seed: int = 1,
                       carrier_sense_prob: float = 1.0,
                       detect_prob: float = 0.8,
                       use_postambles: bool = True,
                       rates: Optional[RateTable] = None,
                       phy_backend=None) -> MacContentionResult:
    """Saturated MAC-level contention: N clients flood the AP.

    A pure link-layer workload — no TCP, no wired segment — so frame
    sizes are a free knob.  With small payloads this is the cheapest
    scenario that still exercises contention, backoff, rate adaptation
    and both PHY backends end to end, which makes it the MAC-level
    golden pinned by ``tests/golden/regenerate.py``.

    Each client keeps its queue full (refilled on drain) and sends to
    the AP for ``duration`` seconds; ``uplink_traces`` are recycled
    across clients when fewer than ``n_clients`` are given.
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    if not uplink_traces:
        raise ValueError("need at least one uplink trace")
    check_duration(duration)
    rate_table = rates if rates is not None \
        else RATE_TABLE.prototype_subset()
    sim = Simulator()
    rng = np.random.default_rng(seed)
    traces = {(i + 1, AP_ID): uplink_traces[i % len(uplink_traces)]
              for i in range(n_clients)}
    channel = _build_wireless_channel(
        traces, rng, carrier_sense_prob, detect_prob, use_postambles,
        phy_backend, rate_table)
    airtime = make_airtime_fn(rate_table)

    stations: Dict[int, Station] = {}

    def make_refill(sid: int) -> Callable[[], None]:
        def refill() -> None:
            while stations[sid].send(AP_ID, None, payload_bits):
                pass
        return refill

    for sid in range(n_clients + 1):
        def build_adapter(peer: int, sid=sid) -> RateAdapter:
            return adapter_factory(rate_table,
                                   traces.get((sid, peer)))

        stations[sid] = Station(
            sim, channel, sid, _station_rng(seed, sid),
            adapter_factory=build_adapter, airtime_fn=airtime,
            on_queue_drain=make_refill(sid) if sid != AP_ID else None)
    for sid in range(1, n_clients + 1):
        make_refill(sid)()
    sim.run_until(duration)
    return MacContentionResult(
        duration=duration, payload_bits=payload_bits,
        per_client_frames=[stations[s].delivered_frames
                           for s in range(1, n_clients + 1)],
        frame_logs={sid: st.frame_log for sid, st in stations.items()},
        channel_stats=dict(channel.stats))

"""The geometry-driven wireless channel of the mesh simulator.

:class:`MeshChannel` implements the exact channel contract
:class:`repro.sim.mac.Station` consumes (``stations``,
``medium_busy_until``, ``begin_transmission``,
``conclude_transmission``) so the whole CSMA/CA MAC — DIFS, binary
exponential backoff, retries, per-peer rate adapters, SoftPHY
feedback — is reused unchanged over a *spatial* channel model:

* **Large scale** — log-distance path loss plus a static per-link
  log-normal shadowing draw
  (:class:`repro.channel.pathloss.LogDistancePathLoss`), evaluated
  from :class:`~repro.sim.mesh.geometry.MeshGeometry` distances at
  transmission time.
* **Small scale** — one Rayleigh fading realisation per (unordered)
  node pair; :class:`repro.channel.rayleigh.RayleighFadingProcess` is
  a pure function of time, so gains are identical regardless of MAC
  event order (the mesh determinism wall).
* **Frame fates** — computed per transmission by a pluggable
  :class:`repro.phy.backend.PhyBackend` ("full" bit-exact or the
  calibrated "surrogate") from the link's instantaneous SNR
  trajectory across the frame's airtime.

Carrier sense and collisions are *emergent*: a listener senses a
transmitter iff the mean received SNR clears ``cs_threshold_snr_db``
(hidden terminals are nodes out of carrier-sense range of each other
but both audible at a middle receiver), and a concluding frame is
checked for temporal overlap against its destination's receive buffer
— the transmissions audible there, never global history, as in
LoRaMesh's ``checkcollision`` — with an SNR capture test: a much
stronger interferer does not destroy the frame.  The rest, from the
exact history index to the section 3.2 taxonomy of the surviving
overlap, is the :class:`repro.sim.wireless.SharedMedium` the
trace-driven star channel also builds on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.channel.pathloss import LogDistancePathLoss
from repro.channel.rayleigh import RayleighFadingProcess
from repro.phy.backend import DETECTION_SNR_DB, get_backend
from repro.phy.rates import RATE_TABLE, RateTable
from repro.sim.mesh.geometry import MeshGeometry
from repro.sim.wireless import SharedMedium, Transmission, _interferes
from repro.traces.format import FrameObservation

__all__ = ["MeshChannel", "RxBufferEntry"]

#: Trajectory samples per frame (mirrors the trace-driven observe
#: path's ``_OBSERVE_SNR_SAMPLES``: a frame spans well under one
#: coherence time at the Doppler spreads we simulate, so a handful of
#: samples captures the fade structure).
_SNR_SAMPLES = 8

#: Floor on instantaneous linear SNR before converting to dB, so deep
#: Rayleigh fades produce a very negative finite value, never -inf.
_SNR_LINEAR_FLOOR = 1e-12

#: Seed-derivation domain tags keeping the shadowing and fading RNG
#: streams of one link disjoint.
_SHADOW_TAG = 0x5AD0
_FADING_TAG = 0xFAD0


@dataclass
class RxBufferEntry:
    """One transmission audible at a node, with its received SNR.

    ``rx_snr_db`` is the mean (fading-free) SNR of the transmitter at
    this node when the transmission started — the power term of the
    buffer's SNR/timing collision checks.
    """

    tx: Transmission
    rx_snr_db: float


class MeshChannel(SharedMedium):
    """A spatial collision domain driven by geometry and a PHY backend.

    Args:
        geometry: node positions over time.
        rng: root random source of the per-attempt fate streams
            (interference-detection coins, PHY outcome draws — see
            :meth:`attempt_rng`).  Per-link shadowing and fading use
            their own seed-derived generators, so like the fates they
            are independent of MAC event order.
        phy_backend: backend instance or name (``"full"`` /
            ``"surrogate"``); a name is resolved against this
            channel's rate table.
        rates: rate table (the paper's six prototype rates by default).
        pathloss: large-scale model; its ``shadowing_sigma_db``
            controls the per-link log-normal shadowing (0 = off).
        tx_power_dbm / noise_floor_dbm: link budget (defaults match
            :class:`repro.channel.mobility.WalkingTrajectory`).
        link_seed: root seed of the per-link shadowing and fading
            realisations.
        doppler_hz: Doppler spread of every link's Rayleigh process.
        detect_prob: SoftPHY interference-detection probability for
            collided frames (paper section 6.4).
        use_postambles: enable postamble detection (section 3.2).
        cs_threshold_snr_db: mean received SNR (dB) above which a
            listener carrier-senses a transmitter.  Nodes below the
            threshold are mutually hidden — the hidden-terminal knob
            is geometry, not a probability.
        capture_margin_db: SINR margin for physical-layer capture: a
            frame whose received power exceeds the summed overlapping
            interference by at least this margin survives the overlap.
        rx_floor_snr_db: mean received SNR below which a transmission
            does not enter a node's receive buffer at all (negligible
            as interference and undetectable as signal).

    Example::

        geo = MeshGeometry({0: (0, 4), 1: (0, 0), 2: (9, 0)})
        channel = MeshChannel(geo, np.random.default_rng(1),
                              phy_backend="surrogate")
    """

    def __init__(self, geometry: MeshGeometry,
                 rng: np.random.Generator,
                 phy_backend="surrogate",
                 rates: Optional[RateTable] = None,
                 pathloss: Optional[LogDistancePathLoss] = None,
                 tx_power_dbm: float = -5.0,
                 noise_floor_dbm: float = -85.0,
                 link_seed: int = 0,
                 doppler_hz: float = 10.0,
                 detect_prob: float = 0.8,
                 use_postambles: bool = True,
                 cs_threshold_snr_db: float = 3.0,
                 capture_margin_db: float = 10.0,
                 rx_floor_snr_db: float = DETECTION_SNR_DB - 3.0):
        if doppler_hz <= 0:
            raise ValueError("doppler_hz must be positive")
        self.rates = rates if rates is not None \
            else RATE_TABLE.prototype_subset()
        super().__init__(rng, detect_prob, use_postambles,
                         get_backend(phy_backend, rates=self.rates))
        self.geometry = geometry
        self.pathloss = pathloss if pathloss is not None \
            else LogDistancePathLoss()
        self.tx_power_dbm = tx_power_dbm
        self.noise_floor_dbm = noise_floor_dbm
        self.link_seed = int(link_seed)
        self.doppler_hz = doppler_hz
        self.cs_threshold_snr_db = cs_threshold_snr_db
        self.capture_margin_db = capture_margin_db
        self.rx_floor_snr_db = rx_floor_snr_db
        #: per-node receive buffers: transmissions audible at the node.
        self._rx_buffers: Dict[int, Deque[RxBufferEntry]] = {}
        self._shadow: Dict[Tuple[int, int], float] = {}
        self._fading: Dict[Tuple[int, int], RayleighFadingProcess] = {}
        self.stats["captured"] = 0

    # -- link model ---------------------------------------------------------

    def _link_key(self, a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def shadowing_db(self, a: int, b: int) -> float:
        """The static shadowing offset of the (unordered) link a-b.

        Drawn once per link from a generator seeded by
        ``(link_seed, tag, a, b)`` — reciprocal (the same obstruction
        attenuates both directions) and independent of when or in
        what order links are first used.
        """
        key = self._link_key(a, b)
        if key not in self._shadow:
            link_rng = np.random.default_rng(
                (self.link_seed, _SHADOW_TAG) + key)
            self._shadow[key] = \
                self.pathloss.sample_shadowing_db(link_rng)
        return self._shadow[key]

    def _fading_for(self, a: int, b: int) -> RayleighFadingProcess:
        """The link's Rayleigh realisation (reciprocal, lazily built)."""
        key = self._link_key(a, b)
        if key not in self._fading:
            link_rng = np.random.default_rng(
                (self.link_seed, _FADING_TAG) + key)
            self._fading[key] = RayleighFadingProcess(
                self.doppler_hz, link_rng)
        return self._fading[key]

    def mean_snr_db(self, src: int, dest: int, t: float) -> float:
        """Mean (fading-averaged) received SNR of ``src`` at ``dest``.

        Link budget through the path loss model at the nodes' current
        distance, including the link's static shadowing draw.  This is
        the quantity carrier sense, capture, and handoff decisions
        read — fading is deliberately excluded, matching how receivers
        average RSSI over many frames.
        """
        distance = self.geometry.distance(src, dest, t)
        return self.pathloss.mean_snr_db(
            self.tx_power_dbm, self.noise_floor_dbm, distance,
            shadowing_db=self.shadowing_db(src, dest))

    def snr_trajectory(self, src: int, dest: int, start: float,
                       end: float) -> np.ndarray:
        """Instantaneous SNR (dB) across a frame's airtime.

        Samples the mean SNR (geometry + shadowing, tracking any node
        motion during the frame) and multiplies in the link's Rayleigh
        gain, which is a pure function of time.
        """
        times = np.linspace(start, max(end, start), _SNR_SAMPLES)
        mean_db = np.array([self.mean_snr_db(src, dest, t)
                            for t in times])
        gains = self._fading_for(src, dest).gains(times)
        power = np.maximum(np.abs(gains) ** 2, _SNR_LINEAR_FLOOR)
        return mean_db + 10.0 * np.log10(power)

    # -- the medium's hooks -------------------------------------------------

    def _senses(self, listener: int, tx: Transmission) -> bool:
        """Deterministic in geometry: the mean received SNR at the
        transmission's start must clear the sensing threshold."""
        return bool(self.mean_snr_db(tx.frame.src, listener, tx.start)
                    >= self.cs_threshold_snr_db)

    def begin_transmission(self, tx: Transmission) -> None:
        """Register an in-flight frame and fan it into receive buffers.

        Every node whose mean received SNR clears ``rx_floor_snr_db``
        gets an entry (with that SNR) appended to its buffer — the
        per-node record the SNR/timing collision checks run against
        when overlapping frames conclude.  A buffer is pruned by the
        history's exact rule as it grows.
        """
        super().begin_transmission(tx)
        src = tx.frame.src
        for node in self.geometry.node_ids():
            if node == src:
                continue
            rx_snr = self.mean_snr_db(src, node, tx.start)
            if rx_snr >= self.rx_floor_snr_db:
                buffer = self._rx_buffers.setdefault(node, deque())
                while buffer and buffer[0].tx.end <= self._cutoff:
                    buffer.popleft()
                buffer.append(RxBufferEntry(tx=tx, rx_snr_db=rx_snr))

    def _overlapping(self, tx: Transmission) -> List[RxBufferEntry]:
        """Receive-buffer entries at the destination overlapping
        ``tx`` (feedback frames and our own source's excluded, as in
        the star channel)."""
        return [entry for entry in self._rx_buffers.get(tx.frame.dest, ())
                if _interferes(tx, entry.tx)]

    def _observe(self, link, tx: Transmission,
                 rng: np.random.Generator) -> FrameObservation:
        """Clean-channel observation from the geometry-derived SNR
        trajectory, through the configured PHY backend."""
        trajectory = self.snr_trajectory(tx.frame.src, tx.frame.dest,
                                         tx.start, tx.end)
        out = self.phy_backend.frame_outcome(
            tx.rate_index, trajectory, tx.frame.payload_bits, rng,
            need_hints=False)
        return FrameObservation(
            detected=out.detected,
            delivered=out.detected and out.delivered,
            ber_true=out.ber_true, ber_est=out.ber_est,
            snr_db=out.snr_db, slot=0)

    def _interference(self, tx: Transmission,
                      overlapping: List[RxBufferEntry]
                      ) -> List[Transmission]:
        """No interference if ``tx`` captures its receiver, else every
        overlapping transmission."""
        if self._captures(tx, overlapping):
            self.stats["captured"] += 1
            return []
        return [entry.tx for entry in overlapping]

    def _captures(self, tx: Transmission,
                  interferers: List[RxBufferEntry]) -> bool:
        """SNR collision check: does ``tx`` capture the receiver?

        Compares the frame's mean received power against the linear
        sum of all overlapping interferers' received powers; a margin
        of ``capture_margin_db`` or more means the receiver tracks the
        strong frame through the overlap.
        """
        our_db = self.mean_snr_db(tx.frame.src, tx.frame.dest,
                                  tx.start)
        interference = sum(10.0 ** (e.rx_snr_db / 10.0)
                           for e in interferers)
        if interference <= 0.0:
            return True
        sinr_db = our_db - 10.0 * np.log10(interference)
        return bool(sinr_db >= self.capture_margin_db)

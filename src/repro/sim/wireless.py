"""The shared wireless medium and the trace-driven star channel.

Frame fates come from two orthogonal sources, exactly as in the
paper's methodology (section 6.1):

* **channel state** — how the frame fares on its link alone ("these
  traces collected in isolation accurately model frame receptions
  when there are no concurrent transmissions");
* **collisions** — computed from the temporal overlap of concurrent
  transmissions ("in case more than two senders transmit
  simultaneously, we assume both colliding frames are lost").

:class:`SharedMedium` implements the second source once for every
channel, with section 3.2's taxonomy:

* the receiver locks onto the earliest-starting frame; a later
  overlapping frame corrupts its tail — a *collision* the SoftPHY
  detector can excise (success probability ``detect_prob``, 0.8 for
  the present implementation, 1.0 for the "ideal" variant of
  section 6.4);
* a frame arriving while the receiver is locked elsewhere loses its
  preamble; if its **postamble** outlives the interference the
  receiver still learns of the frame (postamble feedback), otherwise
  the loss is *silent*.

:class:`WirelessChannel`, the single-AP star, overlaps every frame
with the global history and observes a clean frame through its link's
:class:`LinkTrace`, selected by ``phy_backend``:

* ``None`` (default) — the precomputed per-slot, per-rate columns of
  the trace (the paper's methodology, fastest);
* a :class:`repro.phy.backend.PhyBackend` (or its name) — the fate is
  recomputed per transmission from the trace's true-SNR trajectory,
  either bit-exactly (``"full"``) or through the calibrated surrogate
  (``"surrogate"``).

The mesh channel (:class:`repro.sim.mesh.radio.MeshChannel`) is the
medium's other subclass.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.feedback import Feedback
from repro.core.mix import mix64
from repro.traces.format import FrameObservation, LinkTrace

__all__ = ["MacFrame", "Transmission", "FrameFate", "SharedMedium",
           "WirelessChannel", "COLLISION_BER", "occupancy_window"]

#: BER reported when a collision goes *undetected*: the receiver sees
#: garbage over part of the frame and (wrongly) attributes it to the
#: channel.  Any value deep in the "move down" region works.
COLLISION_BER = 0.1


@dataclass
class MacFrame:
    """One link-layer frame handed to the channel."""

    src: int
    dest: int
    seq: int
    payload: Any
    payload_bits: int
    is_feedback: bool = False


@dataclass
class Transmission:
    """An in-flight frame.

    ``start``/``end`` bound the frame body's airtime (what the
    collision geometry runs on); ``reserved_start``/``reserved_until``
    bound the full medium occupancy the MAC reserves around it — any
    RTS/CTS exchange before the body plus the SIFS + feedback slot
    after it.  Carrier sense keys on the reserved window, so a
    contender never counts down through another station's ACK slot.
    When the reserved bounds are ``None`` (transmissions built outside
    the MAC, e.g. in channel-level tests) the body airtime is used.
    """

    frame: MacFrame
    rate_index: int
    start: float
    end: float
    preamble_end: float
    postamble_start: float
    rts_protected: bool = False
    #: full medium reservation around the body (None = body airtime).
    reserved_start: Optional[float] = None
    reserved_until: Optional[float] = None
    #: the sender's monotonically increasing attempt number — the
    #: order-independent key of the per-attempt fate RNG stream.
    attempt: int = 0
    #: carrier-sense samples, keyed by observing station id.
    sensed_by: Dict[int, bool] = field(default_factory=dict)


def occupancy_window(tx: Transmission) -> Tuple[float, float]:
    """The ``[start, end)`` interval ``tx`` keeps the medium busy."""
    start = tx.start if tx.reserved_start is None else tx.reserved_start
    end = tx.end if tx.reserved_until is None else tx.reserved_until
    return start, end


@dataclass(frozen=True)
class FrameFate:
    """What the receiver experienced for one transmission.

    ``kind`` is one of:

    * ``"clean"`` — no overlap (or captured); outcome purely from the
      clean-channel observation.
    * ``"collided"`` — receiver was locked onto this frame when
      another transmission overlapped its body.
    * ``"postamble"`` — preamble lost to an earlier frame, but the
      postamble survived (only when postambles are enabled).
    * ``"silent"`` — the receiver never learned the frame existed
      (preamble and postamble both unusable, or channel too weak).
    """

    kind: str
    delivered: bool
    feedback: Optional[Feedback]
    observation: Optional[FrameObservation]
    interference_detected: bool = False

    @property
    def is_silent(self) -> bool:
        return self.feedback is None


def _interferes(tx: Transmission, other: Transmission) -> bool:
    """Whether ``other`` can corrupt ``tx`` at its receiver.

    Feedback frames are excluded: they occupy the reserved slot after
    a data frame (SIFS priority) and never collide with data in this
    model, as in the paper's protocol design.  So are other frames of
    the same sender.
    """
    return (other is not tx and not other.frame.is_feedback
            and other.frame.src != tx.frame.src
            and other.start < tx.end and tx.start < other.end)


class SharedMedium:
    """One collision domain: what every channel shares.

    The medium owns the active set carrier sense reads, the history
    index overlap and half-duplex checks scan, the per-attempt fate
    streams (:meth:`attempt_rng`) and the section 3.2 fate classifier
    (:meth:`resolve_fate`).  A channel subclasses it and supplies:

    * ``_senses(listener, tx)`` — one sample of whether ``listener``
      hears ``tx`` (the medium caches it per listener, so the sample
      is sticky for the transmission's lifetime);
    * ``_observe(link, tx, rng)`` — the clean-channel observation of
      ``tx`` (``link`` is what ``_link(tx)`` returned);
    * ``_overlapping(tx)`` — the overlap candidates at ``tx``'s
      receiver, and optionally ``_interference(tx, overlapping)``,
      the overlap that still corrupts a detected frame (a capture
      test hooks in there).

    **The MAC's contract.**  Transmissions begin in non-decreasing
    time (``begin_transmission`` at their reserved start), and each
    concludes at its reserved end, with its body inside its reserved
    window.  So a frame not yet concluded when another begins at
    ``now`` started after ``now - longest``, where ``longest`` is the
    widest occupancy window the medium has seen (body or reserved
    span, whichever is wider).  The history therefore drops, as each
    transmission begins, the entries whose body ended at or before
    ``now - longest``: none of them can overlap a frame still to
    conclude, so the prune is exact.  The active set records its
    earliest reserved end and is rebuilt only once a query reaches
    it, keeping its begin order (carrier-sense coins are drawn in
    that order).

    ``rng``, ``detect_prob`` and ``use_postambles`` are as in
    :class:`WirelessChannel`; ``phy_backend`` is the resolved
    :class:`repro.phy.backend.PhyBackend` clean frames are observed
    through, or ``None`` (no fate stream is then built unless a
    collision needs its coin).
    """

    def __init__(self, rng: np.random.Generator, detect_prob: float,
                 use_postambles: bool, phy_backend=None):
        if not 0.0 <= detect_prob <= 1.0:
            raise ValueError("detect_prob must be a probability")
        self.rng = rng
        # Root of the per-attempt fate RNG streams (drawn first, so
        # the channel's seed alone pins every fate stream).
        self._fate_seed = int(rng.integers(0, 2 ** 63))
        self.detect_prob = detect_prob
        self.use_postambles = use_postambles
        self.phy_backend = phy_backend
        #: station registry (filled by Station.__init__) used to hand
        #: delivered frames to the destination's upper layer.
        self.stations: Dict[int, Any] = {}
        #: ``(occupancy start, occupancy end, tx)`` in begin order.
        self._active: List[Tuple[float, float, Transmission]] = []
        self._active_expiry = math.inf      # earliest end in _active
        self._history: Deque[Transmission] = deque()
        self._longest = 0.0
        self._cutoff = -math.inf            # current history horizon
        # Statistics for the Table 1 / Fig. 4 experiment.
        self.stats = {"clean": 0, "collided": 0, "postamble": 0,
                      "silent": 0, "undetected_collisions": 0}

    # -- carrier sense -----------------------------------------------------

    def _senses(self, listener: int, tx: Transmission) -> bool:
        """One sample of whether ``listener`` hears ``tx``."""
        raise NotImplementedError

    def busy_window(self, listener: int, now: float
                    ) -> Optional[Tuple[float, float]]:
        """The busy period ``listener`` currently senses, as a
        ``(start, end)`` pair over the reserved occupancy of every
        sensed in-flight transmission — or ``None`` when idle (which
        it can be while a *hidden* station is transmitting).

        ``start`` is when the earliest sensed transmission seized the
        medium (so a backoff tick can tell "busy since exactly this
        slot boundary" from "busy since mid-slot"); ``end`` is when
        the last one releases it, feedback slot included.
        """
        active = self._active
        if not active:
            return None
        if now >= self._active_expiry:
            active = self._active = [e for e in active if e[1] > now]
            self._active_expiry = min((e[1] for e in active),
                                      default=math.inf)
        since = until = None
        for occ_start, occ_end, tx in active:
            sensed = tx.sensed_by.get(listener)
            if sensed is None:
                sensed = tx.sensed_by[listener] = \
                    tx.frame.src == listener or self._senses(listener, tx)
            if sensed:
                since = occ_start if since is None \
                    else min(since, occ_start)
                until = occ_end if until is None \
                    else max(until, occ_end)
        if until is None:
            return None
        return since, until

    def medium_busy_until(self, listener: int, now: float
                          ) -> Optional[float]:
        """Latest reserved-occupancy end of sensed transmissions.

        Returns ``None`` when the medium appears idle to ``listener``.
        """
        window = self.busy_window(listener, now)
        return None if window is None else window[1]

    # -- transmission ------------------------------------------------------

    def begin_transmission(self, tx: Transmission) -> None:
        """Register an in-flight frame (called by the MAC at its
        reserved start) and prune the history to what it can still
        overlap (see the class docstring's contract)."""
        occ_start, occ_end = occupancy_window(tx)
        self._active.append((occ_start, occ_end, tx))
        self._active_expiry = min(self._active_expiry, occ_end)
        span = max(tx.end - tx.start, occ_end - occ_start)
        # One ulp up, so that ``occ_start - longest`` rounds to at most
        # the start of every frame still in flight.
        self._longest = max(self._longest, math.nextafter(span, math.inf))
        self._cutoff = occ_start - self._longest
        history = self._history
        while history and history[0].end <= self._cutoff:
            history.popleft()
        history.append(tx)

    def _overlapping(self, tx: Transmission) -> list:
        """The overlap candidates at ``tx``'s receiver."""
        raise NotImplementedError

    def _receiver_deaf(self, tx: Transmission) -> bool:
        """Half-duplex: the destination was itself transmitting."""
        return any(other.frame.src == tx.frame.dest and other is not tx
                   and other.start < tx.end and tx.start < other.end
                   for other in self._history)

    def attempt_rng(self, tx: Transmission) -> np.random.Generator:
        """The fate RNG stream of one transmission attempt.

        Derived from the channel's fate seed and the attempt's
        identity ``(src, dest, attempt)``, never from shared mutable
        state — so a frame's fate draws (backend observation noise,
        the interference-detection coin) do not depend on the order
        concurrent transmissions happen to conclude in.  This is what
        lets the slot-synchronous engine (:mod:`repro.sim.slotmac`)
        reproduce the event-driven MAC's frame logs bit-for-bit.

        The key is splitmix64-mixed into one integer seed.  ``PCG64``
        seeds from an integer through ``SeedSequence``, exactly as
        ``default_rng`` does, so the two give identical streams at the
        same cost: 14-20 µs per attempt on a 2-vCPU x86-64 host (numpy
        2.4), more than the handful of draws a fate needs.  A cheaper
        derivation would change every fate stream.
        """
        return np.random.Generator(np.random.PCG64(mix64(
            self._fate_seed, tx.frame.src, tx.frame.dest, tx.attempt)))

    # -- fate ----------------------------------------------------------------

    def _link(self, tx: Transmission):
        """What ``_observe`` needs of ``tx``'s link, looked up before
        anything else so that an unknown link fails loudly."""
        return None

    def _observe(self, link, tx: Transmission,
                 rng: Optional[np.random.Generator]) -> FrameObservation:
        """The clean-channel observation of ``tx``."""
        raise NotImplementedError

    def _interference(self, tx: Transmission, overlapping: list
                      ) -> List[Transmission]:
        """The overlap that still corrupts ``tx`` once its receiver
        has detected it: all of it, unless a subclass models capture."""
        return overlapping

    def conclude_transmission(self, tx: Transmission) -> FrameFate:
        """Compute the fate of ``tx`` (called by the MAC at its
        reserved end)."""
        return self.resolve_fate(tx, self._overlapping(tx),
                                 receiver_deaf=self._receiver_deaf(tx))

    def _silent(self, obs: Optional[FrameObservation]) -> FrameFate:
        self.stats["silent"] += 1
        return FrameFate(kind="silent", delivered=False, feedback=None,
                         observation=obs)

    def resolve_fate(self, tx: Transmission, overlapping: list,
                     receiver_deaf: bool = False) -> FrameFate:
        """The section 3.2 fate taxonomy, given the overlap set.

        The single entry point every caller shares: the event-driven
        MAC reaches it through :meth:`conclude_transmission` (overlaps
        from the channel's index), the slot-synchronous engine passes
        the slot's co-winners directly.  Randomness comes from
        :meth:`attempt_rng`, so the fate depends only on the
        transmission itself and its overlap set — never on global
        processing order.  Checks run in a fixed order: the link
        lookup, half-duplex deafness, detection, then the overlap
        (after any capture).
        """
        link = self._link(tx)
        if tx.rts_protected:
            overlapping = []        # the exchange reserved the medium
        if receiver_deaf:
            # The receiver never listened: skip the (possibly
            # expensive backend-computed) channel observation.
            return self._silent(None)
        # Building a generator costs more than most fates' draws: with
        # precomputed trace fates only the collided branch ever draws,
        # so the stream is materialized lazily.
        rng = self.attempt_rng(tx) if self.phy_backend is not None \
            else None
        obs = self._observe(link, tx, rng)
        if not obs.detected:
            return self._silent(obs)
        if overlapping:
            overlapping = self._interference(tx, overlapping)
        if not overlapping:
            self.stats["clean"] += 1
            feedback = Feedback(src=tx.frame.dest, dest=tx.frame.src,
                                seq=tx.frame.seq, ber=obs.ber_est,
                                frame_ok=obs.delivered,
                                snr_db=obs.snr_db)
            return FrameFate(kind="clean", delivered=obs.delivered,
                             feedback=feedback, observation=obs)

        locked_to_us = all(tx.start <= other.start
                           for other in overlapping)
        if locked_to_us:
            # Receiver synchronised to us; the interferer corrupts our
            # body.  Frame lost (paper: colliding frames are lost), but
            # the header decoded, so feedback flows.
            self.stats["collided"] += 1
            if rng is None:
                rng = self.attempt_rng(tx)
            detected = bool(rng.random() < self.detect_prob)
            if detected:
                ber = obs.ber_est       # interference-free portion
            else:
                ber = COLLISION_BER     # looks like a channel loss
                self.stats["undetected_collisions"] += 1
            feedback = Feedback(src=tx.frame.dest, dest=tx.frame.src,
                                seq=tx.frame.seq, ber=ber, frame_ok=False,
                                interference_detected=detected,
                                snr_db=obs.snr_db)
            return FrameFate(kind="collided", delivered=False,
                             feedback=feedback, observation=obs,
                             interference_detected=detected)

        # Receiver locked elsewhere: our preamble is gone.
        postamble_clean = self.use_postambles and not any(
            other.start < tx.end and tx.postamble_start < other.end
            for other in overlapping)
        if postamble_clean:
            self.stats["postamble"] += 1
            feedback = Feedback(src=tx.frame.dest, dest=tx.frame.src,
                                seq=tx.frame.seq, ber=obs.ber_est,
                                frame_ok=False,
                                interference_detected=True,
                                snr_db=obs.snr_db, postamble_only=True)
            return FrameFate(kind="postamble", delivered=False,
                             feedback=feedback, observation=obs,
                             interference_detected=True)
        return self._silent(obs)


class WirelessChannel(SharedMedium):
    """A single collision domain driven by per-link traces.

    Args:
        traces: map from ``(src, dest)`` station-id pairs to the
            :class:`LinkTrace` modelling that unidirectional link.
        rng: random source (carrier-sense sampling, and the root seed
            of the per-attempt fate streams — see :meth:`attempt_rng`).
        detect_prob: probability the SoftPHY interference detector
            flags a collided frame (paper section 6.4: 0.8 measured,
            1.0 for the ideal variant).
        use_postambles: enable postamble detection (section 3.2).
        carrier_sense_prob: function ``(listener, transmitter) ->
            probability`` that ``listener`` senses ``transmitter``'s
            transmissions (paper section 6.4 sweeps this); default
            perfect carrier sense.
        phy_backend: ``None`` to use the traces' precomputed frame
            fates, or a :class:`repro.phy.backend.PhyBackend` /
            backend name (``"full"`` / ``"surrogate"``) to recompute
            each clean-channel fate from the trace's SNR trajectory.
            A *name* resolves against the default six-rate prototype
            table; simulations with a custom rate table must pass a
            backend instance built with it (as
            :class:`repro.sim.topology.AccessPointNetwork` does) —
            a mismatch fails loudly at the first observation.
    """

    def __init__(self, traces: Dict[Tuple[int, int], LinkTrace],
                 rng: np.random.Generator, detect_prob: float = 0.8,
                 use_postambles: bool = True,
                 carrier_sense_prob: Optional[Callable[[int, int],
                                                       float]] = None,
                 phy_backend=None):
        if phy_backend is not None:
            from repro.phy.backend import get_backend
            phy_backend = get_backend(phy_backend)
        super().__init__(rng, detect_prob, use_postambles, phy_backend)
        self.traces = dict(traces)
        self._cs_prob = carrier_sense_prob or (lambda a, b: 1.0)

    def _senses(self, listener: int, tx: Transmission) -> bool:
        """A ``carrier_sense_prob`` coin from the channel RNG."""
        p = self._cs_prob(listener, tx.frame.src)
        if p >= 1.0:
            return True             # certain: skip the coin flip
        if p <= 0.0:
            return False
        return bool(self.rng.random() < p)

    def _overlapping(self, tx: Transmission) -> List[Transmission]:
        """Other transmissions overlapping ``tx`` in time: one
        collision domain, so every frame on the air counts."""
        return [other for other in self._history
                if _interferes(tx, other)]

    def _link(self, tx: Transmission) -> LinkTrace:
        try:
            return self.traces[(tx.frame.src, tx.frame.dest)]
        except KeyError:
            raise KeyError(f"no trace for link {tx.frame.src} -> "
                           f"{tx.frame.dest}") from None

    def _observe(self, trace: LinkTrace, tx: Transmission,
                 rng: Optional[np.random.Generator]) -> FrameObservation:
        """Clean-channel observation: precomputed or backend-computed."""
        if self.phy_backend is None:
            return trace.observe(tx.start, tx.rate_index)
        return self.phy_backend.observe(trace, tx.start, tx.rate_index,
                                        tx.frame.payload_bits, rng)

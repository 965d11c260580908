"""A slot-synchronous CSMA/CA engine for very large contention cells.

The event-driven MAC (:mod:`repro.sim.mac`) schedules every DIFS
boundary, backoff tick, transmission and feedback slot of every
station through the event heap — faithful, but Python-event-bound: the
``contention-scale`` campaign tops out around 50 stations.  This
module advances the *same* MAC one contention round at a time with
every station's counter held in numpy arrays, which is possible
because a saturated contention cell under perfect carrier sense is
exactly slot-synchronous:

* after every busy period all contenders re-anchor on one shared slot
  grid (busy-period end + DIFS + ``k`` slots);
* frozen backoff counters decrement only across idle slots, so the
  round's winners are simply ``argmin`` over the counter array, and
  simultaneous zero-counters transmit together and collide;
* winners hand their frames to the existing
  :class:`~repro.phy.backend.PhyBackend` / rate-adapter stack, and
  fates come from the *shared* taxonomy entry point
  (:meth:`~repro.sim.wireless.WirelessChannel.resolve_fate`) with the
  round's co-winners as the overlap set.

Because both engines compute slot boundaries, transmission windows
and per-attempt fate RNG streams from identical float expressions,
their frame logs agree **bit for bit** — the oracle-parity wall in
``tests/sim/test_slotmac_parity.py`` asserts equal
:func:`~repro.analysis.metrics.frame_log_digest` values against the
event-driven MAC on small cells, and the ``contention-xl`` campaign
then rides the slot engine to 1000-station cells.

Scope: the saturated MAC-contention workload of
:func:`repro.sim.topology.run_mac_contention` (clients flooding one
AP) with perfect carrier sense.  TCP cells, partial carrier sense and
hidden terminals stay on the event-driven oracle — see
``docs/slotmac.md`` for the fidelity notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.phy.rates import RATE_TABLE, RateTable
from repro.rateadapt.base import RateAdapter
from repro.sim.mac import FrameLogEntry, MacConfig
from repro.sim.topology import (AP_ID, MacContentionResult,
                                _build_wireless_channel, _station_rng,
                                check_duration, make_airtime_fn)
from repro.sim.wireless import MacFrame, Transmission, WirelessChannel
from repro.traces.format import LinkTrace

__all__ = ["SlotMacEngine", "PeriodRecord", "run_slot_contention"]


@dataclass(frozen=True)
class PeriodRecord:
    """One contention round, for invariant/property tests.

    Captured only when the engine is built with
    ``record_periods=True``: the anchor time, the idle slots counted
    (``k``), who transmitted, and the counter array before/after the
    round's decrement (*before* any winner redraw).
    """

    anchor: float
    k: int
    winners: tuple
    backoff_before: tuple
    backoff_after: tuple
    cw: tuple
    retry: tuple


class SlotMacEngine:
    """All stations' contention state advanced as arrays, slot by slot.

    Args:
        channel: the shared :class:`WirelessChannel` (perfect carrier
            sense); used for traces, per-attempt fate streams and the
            shared fate taxonomy — the slot engine never touches its
            event-driven busy-window machinery.
        adapters: per-client rate adapters keyed by station id.
        rngs: per-client backoff generators keyed by station id (same
            seed derivation as the event engine's stations).
        airtime_fn: ``(payload_bits, rate_index) -> seconds``.
        n_clients: stations 1..N flooding the AP.
        payload_bits: frame payload size of the saturated workload.
        config: MAC timing/policy parameters.
        record_periods: keep a :class:`PeriodRecord` per round (for
            the Hypothesis invariant suite; off for production runs).
    """

    def __init__(self, channel: WirelessChannel,
                 adapters: Dict[int, RateAdapter],
                 rngs: Dict[int, np.random.Generator],
                 airtime_fn: Callable[[int, int], float],
                 n_clients: int, payload_bits: int,
                 config: MacConfig = MacConfig(),
                 record_periods: bool = False):
        if n_clients < 1:
            raise ValueError("need at least one client")
        self.channel = channel
        self.adapters = adapters
        self.rngs = rngs
        self.airtime = airtime_fn
        self.n = n_clients
        self.payload_bits = payload_bits
        self.config = config
        self.record_periods = record_periods
        self.period_log: List[PeriodRecord] = []

        self.ids = np.arange(1, n_clients + 1)
        # Initial backoff draws, ascending station id — the same
        # per-station generators and draw the event engine makes when
        # the saturated sources first fill their queues at t=0.
        self.cw = np.full(n_clients, config.cw_min, dtype=np.int64)
        self.backoff = np.array(
            [int(rngs[sid].integers(0, config.cw_min + 1))
             for sid in self.ids], dtype=np.int64)
        self.retry = np.zeros(n_clients, dtype=np.int64)
        self.attempts = np.zeros(n_clients, dtype=np.int64)
        self.served = np.zeros(n_clients, dtype=np.int64)
        self.delivered = np.zeros(n_clients, dtype=np.int64)
        self.dropped = np.zeros(n_clients, dtype=np.int64)
        self.frame_logs: Dict[int, List[FrameLogEntry]] = {
            sid: [] for sid in range(n_clients + 1)}

    # -- one contention round ------------------------------------------------

    def _build_transmission(self, sid: int, grant: float) -> Transmission:
        """The winner's frame, rate choice and medium reservation.

        Every float expression here mirrors
        :meth:`repro.sim.mac.Station._transmit` term for term — the
        timestamps land in the frame log via ``repr``, so bit-equality
        of the parity digests depends on it.
        """
        cfg = self.config
        i = sid - 1
        adapter = self.adapters[sid]
        rate_index = adapter.choose_rate(grant)
        use_rts = adapter.wants_rts(grant)
        airtime = self.airtime(self.payload_bits, rate_index)
        start = grant
        overhead = cfg.rts_cts_overhead if use_rts else 0.0
        done = overhead + airtime + cfg.sifs + cfg.feedback_duration
        self.attempts[i] += 1
        frame = MacFrame(src=sid, dest=AP_ID,
                         seq=int(self.served[i]) % 4096, payload=None,
                         payload_bits=self.payload_bits)
        return Transmission(
            frame=frame, rate_index=rate_index, start=start + overhead,
            end=start + overhead + airtime,
            preamble_end=start + overhead + cfg.preamble_duration,
            postamble_start=start + overhead + airtime
            - cfg.postamble_duration,
            rts_protected=use_rts,
            reserved_start=start, reserved_until=start + done,
            attempt=int(self.attempts[i]))

    def _conclude(self, sid: int, tx: Transmission,
                  overlapping: List[Transmission]) -> None:
        """Resolve one winner's fate and update its MAC state —
        the array-state twin of :meth:`Station._conclude`."""
        cfg = self.config
        i = sid - 1
        fate = self.channel.resolve_fate(tx, overlapping)
        adapter = self.adapters[sid]
        now = tx.reserved_until
        # Not ``tx.end - tx.start``: that float subtraction is an ulp
        # off the raw airtime the event engine hands its adapters, and
        # SampleRate's strict airtime comparisons would diverge.
        airtime = self.airtime(self.payload_bits, tx.rate_index)
        self.frame_logs[sid].append(FrameLogEntry(
            time=tx.start, src=sid, dest=AP_ID,
            rate_index=tx.rate_index, kind=fate.kind,
            delivered=fate.delivered, retry=int(self.retry[i])))
        if fate.feedback is not None:
            adapter.on_feedback(now, tx.rate_index,
                                fate.feedback.quantised(), airtime)
        else:
            adapter.on_silent_loss(now, tx.rate_index, airtime)

        if fate.delivered:
            self.delivered[i] += 1
            self.served[i] += 1
            self.retry[i] = 0
            self.cw[i] = cfg.cw_min
        else:
            self.retry[i] += 1
            if self.retry[i] >= cfg.retry_limit:
                self.dropped[i] += 1
                self.served[i] += 1
                self.retry[i] = 0
                self.cw[i] = cfg.cw_min
            else:
                self.cw[i] = min(2 * int(self.cw[i]) + 1, cfg.cw_max)
        # The saturated source refills instantly: redraw for the next
        # attempt (retry or fresh head-of-line frame).
        self.backoff[i] = int(self.rngs[sid].integers(
            0, int(self.cw[i]) + 1))

    def run(self, duration: float) -> None:
        """Advance round by round until the grant time passes
        ``duration`` (matching ``Simulator.run_until`` semantics:
        fates conclude only when the reserved window closes within
        the horizon)."""
        cfg = self.config
        anchor = 0.0
        while True:
            k = int(self.backoff.min())
            grant = anchor + (cfg.difs + k * cfg.slot_time)
            if grant > duration:
                break
            mask = self.backoff == k
            winners = [int(sid) for sid in self.ids[mask]]
            backoff_before = tuple(int(b) for b in self.backoff) \
                if self.record_periods else ()
            self.backoff -= k       # idle slots count for everyone
            txs = {sid: self._build_transmission(sid, grant)
                   for sid in winners}
            for sid in winners:
                tx = txs[sid]
                if tx.reserved_until > duration:
                    continue        # still in flight at the horizon
                overlapping = [
                    other for osid, other in txs.items()
                    if osid != sid and other.start < tx.end
                    and tx.start < other.end]
                self._conclude(sid, tx, overlapping)
            if self.record_periods:
                self.period_log.append(PeriodRecord(
                    anchor=anchor, k=k, winners=tuple(winners),
                    backoff_before=backoff_before,
                    backoff_after=tuple(int(b) for b in self.backoff),
                    cw=tuple(int(c) for c in self.cw),
                    retry=tuple(int(r) for r in self.retry)))
            anchor = max(tx.reserved_until for tx in txs.values())


def run_slot_contention(uplink_traces: Sequence[LinkTrace],
                        adapter_factory: Callable[..., RateAdapter],
                        n_clients: int, duration: float = 0.2,
                        payload_bits: int = 368, seed: int = 1,
                        carrier_sense_prob: float = 1.0,
                        detect_prob: float = 0.8,
                        use_postambles: bool = True,
                        rates: Optional[RateTable] = None,
                        phy_backend=None,
                        record_periods: bool = False,
                        _engine_out: Optional[list] = None
                        ) -> MacContentionResult:
    """Slot-synchronous twin of
    :func:`repro.sim.topology.run_mac_contention`.

    Same arguments, same seed derivations, same
    :class:`MacContentionResult` — and on any scenario both engines
    support, the same frame logs bit for bit.  The slot engine only
    models perfect carrier sense (the lockstep property it vectorizes
    around), so ``carrier_sense_prob`` must be 1.0; hidden-terminal
    studies stay on the event-driven oracle.

    ``record_periods`` keeps a per-round :class:`PeriodRecord` trail
    (exposed through ``_engine_out``, a one-element sink for the
    engine instance, used by the invariant tests).
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    if not uplink_traces:
        raise ValueError("need at least one uplink trace")
    check_duration(duration)
    if carrier_sense_prob != 1.0:
        raise ValueError(
            "the slot-synchronous engine models perfect carrier sense "
            f"only (carrier_sense_prob={carrier_sense_prob!r}); use "
            "run_mac_contention for partial sensing")
    rate_table = rates if rates is not None \
        else RATE_TABLE.prototype_subset()
    rng = np.random.default_rng(seed)
    traces = {(i + 1, AP_ID): uplink_traces[i % len(uplink_traces)]
              for i in range(n_clients)}
    channel = _build_wireless_channel(
        traces, rng, carrier_sense_prob, detect_prob, use_postambles,
        phy_backend, rate_table)
    airtime = make_airtime_fn(rate_table)
    adapters = {sid: adapter_factory(rate_table,
                                     traces.get((sid, AP_ID)))
                for sid in range(1, n_clients + 1)}
    rngs = {sid: _station_rng(seed, sid)
            for sid in range(1, n_clients + 1)}
    engine = SlotMacEngine(channel, adapters, rngs, airtime,
                           n_clients, payload_bits,
                           record_periods=record_periods)
    if _engine_out is not None:
        _engine_out.append(engine)
    engine.run(duration)
    return MacContentionResult(
        duration=duration, payload_bits=payload_bits,
        per_client_frames=[int(engine.delivered[s - 1])
                           for s in range(1, n_clients + 1)],
        frame_logs=engine.frame_logs,
        channel_stats=dict(channel.stats))

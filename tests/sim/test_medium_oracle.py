"""The shared medium's history index against a brute-force scan.

The channels keep only the part of their transmission history that a
frame still to conclude can overlap, and rebuild their active set only
when one of its reservations has expired.  Both shortcuts are exact
under the MAC's contract: transmissions begin in non-decreasing time,
and each concludes at its reserved end.

The oracle below is the scanning medium the index replaced, copied
as it was: it keeps every transmission, rebuilds the active set on
every carrier-sense query and scans the whole history for overlaps
and half-duplex deafness.  Hypothesis drives MAC-like schedules
(short and long frames, a long frame late in the run, RTS overhead,
feedback frames, partial carrier sense) through the indexed channel
and through an identically seeded twin whose scans are the oracle's,
and asserts at every step that both see the same medium:

* at every conclusion, the same overlap list, deafness flag and fate;
* at random instants, the same ``busy_window`` (float ``repr``) and
  the same channel RNG state (partial carrier sense draws its sticky
  coins from it, in active-set order).

The mesh channel's receive buffers get the same checks.
"""

from collections import defaultdict
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim.mesh import MeshChannel, MeshGeometry, RxBufferEntry
from repro.sim.wireless import (MacFrame, Transmission, WirelessChannel,
                                occupancy_window)
from repro.traces.synthetic import constant_trace

# MAC timing (repro.sim.mac.MacConfig defaults).
_SLOT, _SIFS, _FEEDBACK, _RTS = 9e-6, 16e-6, 50e-6, 120e-6
_PREAMBLE, _POSTAMBLE = 16e-6, 8e-6

_TRACE = constant_trace(best_rate=3, duration=0.05)


class ScanOracle:
    """The scanning medium the history index replaced.

    ``begin_transmission``, ``_prune``, ``busy_window``,
    ``_overlapping``, ``_receiver_deaf`` and ``_interferers`` are the
    previous implementation's, verbatim apart from reading the twin
    channel's sensing sample, ``mean_snr_db`` and settings through
    ``self.channel``.  ``_sensed`` is the previous channels' sticky
    carrier-sense cache around that sample.
    """

    def __init__(self, channel):
        self.channel = channel
        self._active = []
        self._history = []
        self._rx_buffers = {}

    def begin_transmission(self, tx):
        self._active.append(tx)
        self._history.append(tx)
        if not isinstance(self.channel, MeshChannel):
            return
        src = tx.frame.src
        for node in self.channel.geometry.node_ids():
            if node == src:
                continue
            rx_snr = self.channel.mean_snr_db(src, node, tx.start)
            if rx_snr >= self.channel.rx_floor_snr_db:
                self._rx_buffers.setdefault(node, []).append(
                    RxBufferEntry(tx=tx, rx_snr_db=rx_snr))

    def _sensed(self, listener, tx):
        if tx.frame.src == listener:
            return True
        if listener not in tx.sensed_by:
            tx.sensed_by[listener] = self.channel._senses(listener, tx)
        return tx.sensed_by[listener]

    def _prune(self, now, horizon=0.1):
        self._active = [t for t in self._active
                        if occupancy_window(t)[1] > now]
        if len(self._history) > 4096:
            self._history = [t for t in self._history
                             if t.end > now - horizon]
            for node, buffer in self._rx_buffers.items():
                self._rx_buffers[node] = [
                    e for e in buffer if e.tx.end > now - horizon]

    def busy_window(self, listener, now):
        self._prune(now)
        since = until = None
        for tx in self._active:
            occ_start, occ_end = occupancy_window(tx)
            if occ_end <= now:
                continue
            if self._sensed(listener, tx):
                since = occ_start if since is None \
                    else min(since, occ_start)
                until = occ_end if until is None \
                    else max(until, occ_end)
        if until is None:
            return None
        return since, until

    def _overlapping(self, tx):
        out = []
        for other in self._history:
            if other is tx or other.frame.is_feedback:
                continue
            if other.frame.src == tx.frame.src:
                continue
            if other.start < tx.end and tx.start < other.end:
                out.append(other)
        return out

    def _interferers(self, tx):
        buffer = self._rx_buffers.get(tx.frame.dest, ())
        out = []
        for entry in buffer:
            other = entry.tx
            if other is tx or other.frame.is_feedback:
                continue
            if other.frame.src == tx.frame.src:
                continue
            if other.start < tx.end and tx.start < other.end:
                out.append(entry)
        return out

    def _receiver_deaf(self, tx):
        for other in self._history:
            if other is tx:
                continue
            if other.frame.src != tx.frame.dest:
                continue
            if other.start < tx.end and tx.start < other.end:
                return True
        return False


def _twin(channel, oracle):
    """Route ``channel``'s overlap and deafness scans to ``oracle``."""
    channel._receiver_deaf = oracle._receiver_deaf
    channel._overlapping = oracle._interferers \
        if isinstance(channel, MeshChannel) else oracle._overlapping
    return channel


# -- schedules that keep the MAC's contract ---------------------------------

_GAP = st.one_of(st.just(0.0),
                 st.integers(0, 60).map(lambda k: k * _SLOT),
                 st.floats(0.0, 3e-3))
_AIRTIME = st.one_of(st.floats(40e-6, 400e-6), st.floats(0.8e-3, 3e-3))
_LATE_LONG = st.floats(5e-3, 15e-3)


@st.composite
def _schedules(draw):
    """Transmission specs in begin order, plus carrier-sense probes."""
    n = draw(st.integers(2, 6))
    specs, begin = [], 0.0
    n_tx = draw(st.integers(1, 40))
    late_long = draw(st.one_of(st.none(), st.integers(0, n_tx - 1)))
    for i in range(n_tx):
        begin += draw(_GAP)
        src = draw(st.integers(0, n - 1))
        dest = draw(st.integers(0, n - 2))
        dest += dest >= src
        airtime = draw(_LATE_LONG) if i == late_long else draw(_AIRTIME)
        specs.append(dict(begin=begin, src=src, dest=dest,
                          airtime=airtime, rts=draw(st.booleans()),
                          feedback=draw(st.integers(0, 9)) == 0,
                          rate=draw(st.integers(0, 5))))
    # Probe instants: arbitrary, or exactly a reservation's start or
    # end (the MAC queries the medium at both).
    instant = st.one_of(st.floats(0.0, begin + 20e-3),
                        st.tuples(st.sampled_from(["start", "end"]),
                                  st.integers(0, n_tx - 1)))
    probes = draw(st.lists(st.tuples(instant, st.integers(0, n - 1)),
                           max_size=40))
    ties = draw(st.randoms(use_true_random=False))
    return n, specs, probes, ties


def _transmissions(specs):
    """One MAC-built :class:`Transmission` per spec."""
    attempts = defaultdict(int)
    out = []
    for spec in specs:
        attempts[spec["src"]] += 1
        frame = MacFrame(src=spec["src"], dest=spec["dest"], seq=0,
                         payload=None, payload_bits=368,
                         is_feedback=spec["feedback"])
        start, airtime = spec["begin"], spec["airtime"]
        overhead = _RTS if spec["rts"] else 0.0
        done = overhead + airtime + _SIFS + _FEEDBACK
        out.append(Transmission(
            frame=frame, rate_index=spec["rate"], start=start + overhead,
            end=start + overhead + airtime,
            preamble_end=start + overhead + _PREAMBLE,
            postamble_start=start + overhead + airtime - _POSTAMBLE,
            rts_protected=spec["rts"], reserved_start=start,
            reserved_until=start + done,
            attempt=attempts[spec["src"]]))
    return out


def _events(txs, probes, ties):
    """Begins, conclusions and probes in time order.  Same-instant
    events pop in a random order, as the event heap may pop them; a
    frame's conclusion is strictly later than its begin."""
    events = [(tx.reserved_start, "begin", i) for i, tx in enumerate(txs)]
    events += [(tx.reserved_until, "conclude", i)
               for i, tx in enumerate(txs)]
    for when, listener in probes:
        if isinstance(when, tuple):
            edge, i = when
            when = occupancy_window(txs[i])[edge == "end"]
        events.append((when, "probe", listener))
    return sorted(events, key=lambda e: (e[0], ties.random()))


def _replay(indexed, twin, oracle, txs, probes, ties, overlap_txs):
    """Drive both channels through one schedule, asserting equality."""
    copies = [replace(tx, sensed_by={}) for tx in txs]
    index = {id(tx): i for i, tx in enumerate(txs)}
    index.update({id(tx): i for i, tx in enumerate(copies)})
    for time, kind, arg in _events(txs, probes, ties):
        if kind == "begin":
            indexed.begin_transmission(txs[arg])
            oracle.begin_transmission(copies[arg])
        elif kind == "probe":
            got = indexed.busy_window(arg, time)
            want = oracle.busy_window(arg, time)
            assert repr(got) == repr(want)
            assert indexed.rng.bit_generator.state == \
                twin.rng.bit_generator.state
        else:
            tx, copy = txs[arg], copies[arg]
            assert [index[id(o)] for o in overlap_txs(indexed, tx)] == \
                [index[id(o)] for o in overlap_txs(twin, copy)]
            assert indexed._receiver_deaf(tx) == twin._receiver_deaf(copy)
            assert indexed.conclude_transmission(tx) == \
                twin.conclude_transmission(copy)
    assert indexed.stats == twin.stats
    assert indexed.rng.bit_generator.state == twin.rng.bit_generator.state


# -- the star channel ---------------------------------------------------------

def _star(n, seed, cs, backend):
    traces = {(a, b): _TRACE for a in range(n) for b in range(n) if a != b}
    return WirelessChannel(traces, np.random.default_rng(seed),
                           carrier_sense_prob=lambda a, b: cs,
                           phy_backend=backend)


@settings(max_examples=120, deadline=None)
@given(schedule=_schedules(), seed=st.integers(0, 2 ** 16),
       cs=st.sampled_from([1.0, 0.5]),
       backend=st.sampled_from([None, None, "surrogate"]))
def test_star_index_matches_full_scan(schedule, seed, cs, backend):
    n, specs, probes, ties = schedule
    indexed = _star(n, seed, cs, backend)
    twin = _star(n, seed, cs, backend)
    oracle = ScanOracle(twin)
    _twin(twin, oracle)
    _replay(indexed, twin, oracle, _transmissions(specs), probes, ties,
            lambda channel, tx: channel._overlapping(tx))


# -- the mesh channel ---------------------------------------------------------

_POSITIONS = st.lists(st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 8.0)),
                      min_size=6, max_size=6)


def _mesh(positions, n, seed):
    geometry = MeshGeometry({i: positions[i] for i in range(n)})
    return MeshChannel(geometry, np.random.default_rng(seed),
                       phy_backend="surrogate")


@settings(max_examples=60, deadline=None)
@given(schedule=_schedules(), positions=_POSITIONS,
       seed=st.integers(0, 2 ** 16))
def test_mesh_receive_buffers_match_full_scan(schedule, positions, seed):
    n, specs, probes, ties = schedule
    indexed = _mesh(positions, n, seed)
    twin = _mesh(positions, n, seed)
    oracle = ScanOracle(twin)
    _twin(twin, oracle)
    _replay(indexed, twin, oracle, _transmissions(specs), probes, ties,
            lambda channel, tx: [e.tx for e in channel._overlapping(tx)])

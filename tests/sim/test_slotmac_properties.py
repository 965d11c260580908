"""Property-based invariants of the slot-synchronous engine.

Hypothesis drives random (protocol, client count, seed, horizon)
scenarios through :func:`run_slot_contention` with per-round
recording on, and asserts the state-transition invariants the
engine's vectorisation is built on:

* **Backoff freeze monotonicity** — a station that loses a round
  decrements its counter by exactly the idle slots counted (``k``)
  and never below zero; counters only ever *increase* via a winner's
  post-transmission redraw.
* **Round structure** — the winners are exactly the argmin set of the
  counter array, rounds anchor at strictly increasing times, and each
  round's closing state is the next round's opening state.
* **CW/retry discipline** — contention windows stay on the 802.11
  doubling chain between ``cw_min`` and ``cw_max``, retries stay
  below the retry limit, and redraws land within the current window.
"""

from hypothesis import given, settings, strategies as st

from repro.experiments.common import protocol_factory
from repro.sim.mac import MacConfig
from repro.sim.slotmac import run_slot_contention
from repro.traces.workloads import link_traces

_CFG = MacConfig()

#: Every contention window reachable by doubling cw_min up to cw_max.
_CW_CHAIN = set()
_w = _CFG.cw_min
while True:
    _CW_CHAIN.add(_w)
    if _w >= _CFG.cw_max:
        break
    _w = min(2 * _w + 1, _CFG.cw_max)

_TRACES = link_traces("static", 2, 42, 0.15, mean_snr_db=14.0,
                      payload_bits=368)

_SCENARIO = dict(
    protocol=st.sampled_from(["softrate", "rraa"]),
    n_clients=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**20),
    duration=st.sampled_from([0.01, 0.02, 0.04]),
)


def _periods(protocol, n_clients, seed, duration):
    sink = []
    run_slot_contention(_TRACES, protocol_factory(protocol),
                        n_clients=n_clients, duration=duration,
                        seed=seed, phy_backend="surrogate",
                        record_periods=True, _engine_out=sink)
    (engine,) = sink
    return engine.period_log


@settings(max_examples=20, deadline=None)
@given(**_SCENARIO)
def test_backoff_freeze_monotonicity(protocol, n_clients, seed,
                                     duration):
    for record in _periods(protocol, n_clients, seed, duration):
        assert record.k == min(record.backoff_before)
        assert record.k >= 0
        for sid in range(1, n_clients + 1):
            i = sid - 1
            if sid in record.winners:
                continue
            # Losers: exactly the idle slots elapsed, never negative.
            assert record.backoff_after[i] == \
                record.backoff_before[i] - record.k
            assert record.backoff_after[i] >= 0


@settings(max_examples=20, deadline=None)
@given(**_SCENARIO)
def test_round_structure(protocol, n_clients, seed, duration):
    periods = _periods(protocol, n_clients, seed, duration)
    for record in periods:
        want = {sid for sid in range(1, n_clients + 1)
                if record.backoff_before[sid - 1] == record.k}
        assert set(record.winners) == want
        assert record.winners
    anchors = [record.anchor for record in periods]
    assert anchors == sorted(anchors)
    assert len(set(anchors)) == len(anchors)
    for prev, nxt in zip(periods, periods[1:]):
        # The round's closing counters are the next round's opening
        # counters: nothing moves between rounds.
        assert prev.backoff_after == nxt.backoff_before


@settings(max_examples=20, deadline=None)
@given(**_SCENARIO)
def test_cw_and_retry_discipline(protocol, n_clients, seed, duration):
    for record in _periods(protocol, n_clients, seed, duration):
        for sid in range(1, n_clients + 1):
            i = sid - 1
            assert record.cw[i] in _CW_CHAIN
            assert 0 <= record.retry[i] < _CFG.retry_limit
            if sid in record.winners:
                # The post-transmission redraw lands in [0, cw].
                assert 0 <= record.backoff_after[i] <= record.cw[i]


@settings(max_examples=10, deadline=None)
@given(**_SCENARIO)
def test_period_log_is_deterministic(protocol, n_clients, seed,
                                     duration):
    assert _periods(protocol, n_clients, seed, duration) == \
        _periods(protocol, n_clients, seed, duration)

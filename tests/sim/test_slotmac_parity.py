"""Oracle-parity wall: the slot engine must match the event engine.

The slot-synchronous engine (:mod:`repro.sim.slotmac`) earns its
1000-station scale only because on every scenario both engines
support, its frame logs are **bit for bit** identical to the
event-driven MAC's — same timestamps, same rate choices, same fates,
same retry counters.  These tests run the same saturated contention
scenarios through both engines across client counts, protocols and
PHY backends and assert exact :class:`FrameLogEntry` equality (and
therefore equal ``frame_log_digest`` values).  If a MAC change breaks
this, the slot engine is no longer simulating the same protocol and
``contention-xl`` results mean nothing.
"""

import pytest

from repro.analysis.metrics import frame_log_digest
from repro.experiments.common import protocol_factory
from repro.sim.slotmac import run_slot_contention
from repro.sim.topology import run_mac_contention
from repro.traces.workloads import link_traces

_PAYLOAD_BITS = 368


@pytest.fixture(scope="module")
def traces():
    return link_traces("static", 4, 42, 0.2, mean_snr_db=14.0,
                       payload_bits=_PAYLOAD_BITS)


def _both(traces, protocol, n_clients, backend, duration=0.05, seed=3):
    kwargs = dict(n_clients=n_clients, duration=duration,
                  payload_bits=_PAYLOAD_BITS, seed=seed,
                  phy_backend=backend)
    event = run_mac_contention(traces, protocol_factory(protocol),
                               **kwargs)
    slot = run_slot_contention(traces, protocol_factory(protocol),
                               **kwargs)
    return event, slot


@pytest.mark.parametrize("backend", [None, "surrogate"])
@pytest.mark.parametrize("protocol", ["softrate", "rraa"])
@pytest.mark.parametrize("n_clients", [2, 3, 5, 10])
def test_frame_logs_bit_identical(traces, backend, protocol,
                                  n_clients):
    event, slot = _both(traces, protocol, n_clients, backend)
    assert event.frame_logs == slot.frame_logs
    assert frame_log_digest(event.frame_logs) == \
        frame_log_digest(slot.frame_logs)


@pytest.mark.parametrize("protocol", ["samplerate", "snr-untrained"])
def test_other_protocols_match_too(traces, protocol):
    # SampleRate is the airtime-accounting stress case: its rate
    # choice compares raw airtimes strictly, so even a one-ulp
    # difference in what the engines hand their adapters diverges.
    event, slot = _both(traces, protocol, 3, "surrogate")
    assert event.frame_logs == slot.frame_logs


def test_full_backend_matches(traces):
    # One point under the full BCJR pipeline: tiny horizon, every
    # frame decoded for real on both sides.
    event, slot = _both(traces, "softrate", 2, "full", duration=0.01)
    assert event.frame_logs == slot.frame_logs


def test_single_station_matches(traces):
    event, slot = _both(traces, "softrate", 1, "surrogate")
    assert event.frame_logs == slot.frame_logs
    assert event.per_client_frames == slot.per_client_frames


@pytest.mark.parametrize("duration", [0.013, 0.05])
def test_horizon_edge_matches(traces, duration):
    """Frames still in flight when the clock runs out conclude in
    neither engine — the duration cutoffs must agree exactly."""
    event, slot = _both(traces, "rraa", 5, None, duration=duration)
    assert event.frame_logs == slot.frame_logs


def test_results_agree_beyond_the_logs(traces):
    event, slot = _both(traces, "softrate", 5, "surrogate")
    assert event.per_client_frames == slot.per_client_frames
    assert event.aggregate_mbps == slot.aggregate_mbps
    assert event.channel_stats == slot.channel_stats


@pytest.mark.parametrize("seed", [1, 7, 2009])
def test_parity_across_seeds(traces, seed):
    event, slot = _both(traces, "softrate", 3, "surrogate", seed=seed)
    assert event.frame_logs == slot.frame_logs


def test_parity_under_total_loss():
    """A dead link exercises the silent-loss and retry-limit drop
    paths; the engines must still agree on every abandoned attempt."""
    lossy = link_traces("static", 2, 42, 0.2, mean_snr_db=-40.0,
                        payload_bits=_PAYLOAD_BITS)
    event, slot = _both(lossy, "softrate", 2, "surrogate")
    assert event.frame_logs == slot.frame_logs
    assert event.per_client_frames == slot.per_client_frames == [0, 0]

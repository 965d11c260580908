"""Unit tests for the slot-synchronous contention engine itself."""

import numpy as np
import pytest

from repro.analysis.metrics import frame_log_digest
from repro.experiments.common import protocol_factory
from repro.sim.mac import MacConfig
from repro.sim.slotmac import run_slot_contention
from repro.traces.workloads import link_traces

_PAYLOAD_BITS = 368


@pytest.fixture(scope="module")
def traces():
    return link_traces("static", 2, 42, 0.2, mean_snr_db=14.0,
                       payload_bits=_PAYLOAD_BITS)


def run(traces, **overrides):
    kwargs = dict(n_clients=2, duration=0.03,
                  payload_bits=_PAYLOAD_BITS, seed=3,
                  phy_backend="surrogate")
    kwargs.update(overrides)
    return run_slot_contention(traces, protocol_factory("softrate"),
                               **kwargs)


class TestValidation:
    def test_partial_carrier_sense_rejected(self, traces):
        with pytest.raises(ValueError, match="carrier sense"):
            run(traces, carrier_sense_prob=0.5)

    def test_zero_clients_rejected(self, traces):
        with pytest.raises(ValueError, match="client"):
            run(traces, n_clients=0)

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            run([])

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("nan"),
                                          float("inf")])
    def test_duration_must_be_positive_and_finite(self, traces,
                                                  duration):
        with pytest.raises(ValueError, match="positive and finite"):
            run(traces, duration=duration)


class TestResults:
    def test_deterministic(self, traces):
        a = run(traces)
        b = run(traces)
        assert a.frame_logs == b.frame_logs
        assert a.per_client_frames == b.per_client_frames

    def test_seed_changes_outcome(self, traces):
        a = run(traces)
        b = run(traces, seed=4)
        assert frame_log_digest(a.frame_logs) != \
            frame_log_digest(b.frame_logs)

    def test_delivered_counts_match_logs(self, traces):
        result = run(traces)
        for sid, count in enumerate(result.per_client_frames,
                                    start=1):
            delivered = sum(1 for e in result.frame_logs[sid]
                            if e.delivered)
            assert count == delivered

    def test_single_station_never_collides(self, traces):
        result = run(traces, n_clients=1)
        entries = result.frame_logs[1]
        assert entries
        assert all(e.kind != "collided" for e in entries)

    def test_logs_cover_ap_and_all_clients(self, traces):
        result = run(traces, n_clients=2)
        assert set(result.frame_logs) == {0, 1, 2}
        assert result.frame_logs[0] == []     # the AP never transmits

    def test_frames_stay_inside_horizon(self, traces):
        duration = 0.03
        result = run(traces, duration=duration)
        cfg = MacConfig()
        for log in result.frame_logs.values():
            for e in log:
                assert e.time <= duration
        # ... and the reserved window (airtime + SIFS + feedback)
        # closed within the horizon too, or the fate would not have
        # concluded.
        assert all(e.time + cfg.sifs <= duration
                   for log in result.frame_logs.values() for e in log)

    def test_retry_limit_drops_frames(self):
        lossy = link_traces("static", 1, 42, 0.2, mean_snr_db=-40.0,
                            payload_bits=_PAYLOAD_BITS)
        sink = []
        result = run(lossy, n_clients=1, duration=0.05,
                     _engine_out=sink)
        (engine,) = sink
        assert int(engine.dropped.sum()) > 0
        assert result.per_client_frames == [0]
        # After every drop the retry counter and window reset.
        assert int(engine.retry[0]) < MacConfig().retry_limit

    def test_payload_bits_scale_throughput(self, traces):
        small = run(traces, payload_bits=368)
        large = run(traces, payload_bits=1472 * 8)
        assert large.payload_bits == 1472 * 8
        assert large.aggregate_mbps > small.aggregate_mbps


class TestRecording:
    def test_period_log_off_by_default(self, traces):
        sink = []
        run(traces, _engine_out=sink)
        (engine,) = sink
        assert engine.period_log == []

    def test_period_log_populates_when_asked(self, traces):
        sink = []
        run(traces, record_periods=True, _engine_out=sink)
        (engine,) = sink
        assert engine.period_log
        first = engine.period_log[0]
        assert first.anchor == 0.0
        assert first.winners

    def test_engine_state_is_consistent(self, traces):
        sink = []
        result = run(traces, _engine_out=sink)
        (engine,) = sink
        assert list(engine.delivered) == result.per_client_frames
        total_attempts = sum(len(log)
                             for log in result.frame_logs.values())
        # Attempts in flight at the horizon are counted but not
        # logged, so the counter can only exceed the log.
        assert int(engine.attempts.sum()) >= total_attempts
        assert np.all(engine.backoff >= 0)
        assert np.all((engine.cw >= MacConfig().cw_min)
                      & (engine.cw <= MacConfig().cw_max))

"""Integration tests for the Fig. 12 topology."""

import pytest

from repro.rateadapt import FixedRate, SoftRate
from repro.sim.topology import run_tcp_uplink
from repro.traces.synthetic import constant_trace


#: Durations a run must refuse instead of dividing by, looping on or
#: reporting as a negative rate.
_BAD_DURATIONS = [0.0, -1.0, float("nan"), float("inf")]


def _traces(n, best_rate=4):
    return [constant_trace(best_rate=best_rate, duration=2.0)
            for _ in range(n)]


class TestTcpUplink:
    def test_single_flow_transfers(self):
        result = run_tcp_uplink(
            _traces(1), _traces(1),
            lambda rates, trace: FixedRate(rates, 4),
            n_clients=1, duration=2.0)
        assert result.aggregate_mbps > 3.0
        assert result.per_flow_mbps[0] == result.aggregate_mbps

    def test_throughput_bounded_by_rate(self):
        # At the 6 Mbps nominal rate, goodput must land in the right
        # ballpark (the simulated airtime differs slightly from the
        # 48-subcarrier nominal rate, so allow some headroom).
        result = run_tcp_uplink(
            _traces(1), _traces(1),
            lambda rates, trace: FixedRate(rates, 0),
            n_clients=1, duration=2.0)
        assert 0.5 < result.aggregate_mbps < 8.0

    def test_multiple_clients_share_medium(self):
        one = run_tcp_uplink(
            _traces(1), _traces(1),
            lambda rates, trace: FixedRate(rates, 4),
            n_clients=1, duration=2.0)
        three = run_tcp_uplink(
            _traces(3), _traces(3),
            lambda rates, trace: FixedRate(rates, 4),
            n_clients=3, duration=2.0)
        # Aggregate stays in the same ballpark; per-flow drops.
        assert three.aggregate_mbps < one.aggregate_mbps * 1.5
        assert max(three.per_flow_mbps) < one.per_flow_mbps[0]
        # No starvation.
        assert min(three.per_flow_mbps) > 0.0

    def test_softrate_end_to_end(self):
        result = run_tcp_uplink(
            _traces(1), _traces(1),
            lambda rates, trace: SoftRate(rates),
            n_clients=1, duration=2.0)
        assert result.aggregate_mbps > 3.0
        log = result.frame_logs[1]
        # SoftRate must settle on the channel's best rate (4).
        settled = [e.rate_index for e in log[len(log) // 2:]]
        assert sum(r == 4 for r in settled) / len(settled) > 0.7

    def test_frame_logs_cover_all_stations(self):
        result = run_tcp_uplink(
            _traces(2), _traces(2),
            lambda rates, trace: FixedRate(rates, 3),
            n_clients=2, duration=1.0)
        assert set(result.frame_logs) == {0, 1, 2}
        assert len(result.frame_logs[1]) > 0
        assert len(result.frame_logs[0]) > 0     # AP sends TCP ACKs

    def test_validation(self):
        with pytest.raises(ValueError):
            run_tcp_uplink([], [], lambda r, t: FixedRate(r, 0),
                           n_clients=1)

    @pytest.mark.parametrize("duration", _BAD_DURATIONS)
    def test_duration_must_be_positive_and_finite(self, duration):
        with pytest.raises(ValueError, match="positive and finite"):
            run_tcp_uplink(_traces(1), _traces(1),
                           lambda rates, trace: FixedRate(rates, 4),
                           n_clients=1, duration=duration)


class TestRecycledTraces:
    def test_small_pool_serves_many_clients(self):
        result = run_tcp_uplink(
            _traces(2), _traces(2),
            lambda rates, trace: FixedRate(rates, 4),
            n_clients=5, duration=1.0, recycle_traces=True)
        assert len(result.per_flow_mbps) == 5
        assert result.aggregate_mbps > 0.0

    def test_recycling_assigns_traces_round_robin(self):
        up = _traces(2)
        from repro.sim.topology import AccessPointNetwork, AP_ID
        network = AccessPointNetwork(
            n_clients=5, uplink_traces=up, downlink_traces=_traces(2),
            adapter_factory=lambda rates, trace: FixedRate(rates, 4),
            recycle_traces=True)
        assert network.traces[(1, AP_ID)] is up[0]
        assert network.traces[(2, AP_ID)] is up[1]
        assert network.traces[(3, AP_ID)] is up[0]

    def test_without_flag_requires_full_pool(self):
        with pytest.raises(ValueError, match="recycle_traces"):
            run_tcp_uplink(
                _traces(2), _traces(2),
                lambda rates, trace: FixedRate(rates, 4),
                n_clients=5, duration=0.5)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="at least one trace"):
            run_tcp_uplink(
                [], [], lambda rates, trace: FixedRate(rates, 4),
                n_clients=1, duration=0.5, recycle_traces=True)


class TestMacContention:
    def _run(self, **kwargs):
        from repro.sim.topology import run_mac_contention
        defaults = dict(n_clients=2, duration=0.1, payload_bits=368,
                        seed=3)
        defaults.update(kwargs)
        return run_mac_contention(
            _traces(2, best_rate=3),
            lambda rates, trace: FixedRate(rates, 3), **defaults)

    @pytest.mark.parametrize("duration", _BAD_DURATIONS)
    def test_duration_must_be_positive_and_finite(self, duration):
        with pytest.raises(ValueError, match="positive and finite"):
            self._run(duration=duration)

    def test_saturated_clients_deliver_frames(self):
        result = self._run()
        assert len(result.per_client_frames) == 2
        assert all(n > 5 for n in result.per_client_frames)
        assert result.aggregate_mbps > 0.5
        assert sum(len(log) for log in result.frame_logs.values()) \
            >= sum(result.per_client_frames)

    def test_deterministic_across_calls(self):
        from repro.analysis.metrics import frame_log_digest
        a, b = self._run(), self._run()
        assert a.per_client_frames == b.per_client_frames
        assert frame_log_digest(a.frame_logs) == \
            frame_log_digest(b.frame_logs)

    def test_seed_changes_outcome(self):
        from repro.analysis.metrics import frame_log_digest
        a, b = self._run(seed=3), self._run(seed=4)
        assert frame_log_digest(a.frame_logs) != \
            frame_log_digest(b.frame_logs)

    def test_trace_pool_recycled(self):
        result = self._run(n_clients=4)
        assert len(result.per_client_frames) == 4

    def test_backend_accepted(self):
        result = self._run(phy_backend="surrogate", duration=0.05)
        assert len(result.per_client_frames) == 2

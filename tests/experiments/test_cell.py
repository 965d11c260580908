"""Tests for the campaign matrix cell experiment."""

import math

import pytest

from repro.experiments import cell
from repro.experiments.api import get_experiment, run
from repro.experiments.cell import run_cell
from repro.traces.workloads import CHANNELS as CHANNEL_MODELS

_FAST = dict(duration=0.05, n_clients=1, trace_pool=1)


def _norm(metrics):
    """NaN-tolerant comparison form (NaN == NaN when comparing)."""
    return {k: None if isinstance(v, float) and math.isnan(v) else v
            for k, v in metrics.items()}


class TestCellMetrics:
    def test_returns_complete_metric_dict(self):
        metrics = run_cell(**_FAST)
        for key in ("mbps", "fairness", "loss_rate", "retry_rate",
                    "convergence_s", "accuracy", "overselect",
                    "underselect", "n_frames", "frame_log_digest"):
            assert key in metrics
        assert metrics["mbps"] >= 0.0
        assert 0.0 <= metrics["fairness"] <= 1.0
        assert metrics["n_frames"] > 0
        # The digest must survive a float round-trip exactly (48-bit).
        digest = metrics["frame_log_digest"]
        assert float(int(digest)) == digest

    def test_deterministic(self):
        assert _norm(run_cell(**_FAST)) == _norm(run_cell(**_FAST))

    def test_seed_changes_frame_logs(self):
        a = run_cell(seed=1, **_FAST)
        b = run_cell(seed=2, **_FAST)
        assert a["frame_log_digest"] != b["frame_log_digest"]

    def test_replicate_alone_changes_nothing(self):
        """``replicate`` only diversifies campaign-derived seeds; at a
        pinned seed it must be a no-op."""
        assert _norm(run_cell(replicate=0, **_FAST)) == \
            _norm(run_cell(replicate=9, **_FAST))

    @pytest.mark.parametrize("channel", CHANNEL_MODELS)
    def test_all_channel_models_run(self, channel):
        metrics = run_cell(channel=channel, **_FAST)
        assert metrics["n_frames"] > 0

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="unknown channel"):
            run_cell(channel="tropospheric", **_FAST)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            run_cell(protocol="alamouti", **_FAST)

    def test_bad_client_count_rejected(self):
        with pytest.raises(ValueError, match="n_clients"):
            run_cell(n_clients=0)

    def test_trained_protocol_runs(self):
        metrics = run_cell(protocol="snr", **_FAST)
        assert metrics["n_frames"] > 0

    def test_trace_pool_smaller_than_clients(self):
        metrics = run_cell(duration=0.05, n_clients=4, trace_pool=2)
        assert metrics["n_frames"] > 0
        assert metrics["fairness"] > 0.0

    def test_hidden_terminals_hurt(self):
        kwargs = dict(duration=0.2, n_clients=3, trace_pool=3,
                      mean_snr_db=22.0)
        sensing = run_cell(carrier_sense_prob=1.0, **kwargs)
        hidden = run_cell(carrier_sense_prob=0.0, **kwargs)
        assert hidden["loss_rate"] > sensing["loss_rate"]


class TestTracePool:
    """The in-process trace pool that cells share."""

    @pytest.fixture(autouse=True)
    def cold_pool(self):
        cell._trace_pool.cache_clear()
        yield
        cell._trace_pool.cache_clear()

    def _misses(self):
        return cell._trace_pool.cache_info().misses

    def test_walking_cells_at_two_snrs_share_traces(self, monkeypatch):
        """Walking reads neither the cell's SNR nor its Doppler, so a
        second cell differing only there misses nothing and simulates
        over the very same trace objects."""
        seen = []
        original = cell.run_tcp_uplink

        def recording(uplinks, downlinks, *args, **kwargs):
            seen.append(uplinks + downlinks)
            return original(uplinks, downlinks, *args, **kwargs)

        monkeypatch.setattr(cell, "run_tcp_uplink", recording)
        run_cell(channel="walking", mean_snr_db=12.0, doppler_hz=40.0,
                 **_FAST)
        assert self._misses() == 2      # one per direction
        run_cell(channel="walking", mean_snr_db=20.0, doppler_hz=400.0,
                 **_FAST)
        assert self._misses() == 2
        first, second = seen
        assert len(first) == 2
        assert all(a is b for a, b in zip(first, second))

    def test_static_ignores_doppler_only(self):
        run_cell(channel="static", doppler_hz=40.0, **_FAST)
        run_cell(channel="static", doppler_hz=400.0, **_FAST)
        assert self._misses() == 2
        run_cell(channel="static", mean_snr_db=12.0, **_FAST)
        assert self._misses() == 4

    def test_fading_reads_both_inputs(self):
        run_cell(channel="fading", **_FAST)
        run_cell(channel="fading", doppler_hz=400.0, **_FAST)
        run_cell(channel="fading", mean_snr_db=12.0, **_FAST)
        assert self._misses() == 6

    @pytest.mark.parametrize("channel", CHANNEL_MODELS)
    def test_pooled_traces_are_read_only(self, channel):
        traces = cell._trace_pool(channel, 2, 0.05, 16.0, 200.0, 2009)
        for trace in traces:
            for name in ("snr_db", "true_snr_db", "detected",
                         "ber_true", "ber_est", "delivered",
                         "loss_prob"):
                array = getattr(trace, name)
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = array[(0,) * array.ndim]


class TestMacWorkload:
    _MAC = dict(duration=0.05, n_clients=3, trace_pool=2,
                workload="mac")

    def test_mac_workload_returns_same_metric_keys(self):
        tcp = run_cell(**_FAST)
        mac = run_cell(**self._MAC)
        assert set(mac) == set(tcp)
        assert mac["n_frames"] > 0

    def test_engines_agree_through_the_cell(self):
        event = run_cell(mac_engine="event", **self._MAC)
        slot = run_cell(mac_engine="slot", **self._MAC)
        assert _norm(event) == _norm(slot)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            run_cell(workload="bogus", **_FAST)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="mac_engine"):
            run_cell(mac_engine="bogus", **_FAST)

    def test_slot_engine_requires_mac_workload(self):
        with pytest.raises(ValueError, match="slot"):
            run_cell(mac_engine="slot", **_FAST)

    def test_slot_engine_rejects_partial_sensing(self):
        with pytest.raises(ValueError, match="carrier sense"):
            run_cell(mac_engine="slot", carrier_sense_prob=0.5,
                     **self._MAC)

    def test_payload_bits_reaches_the_mac(self):
        small = run_cell(**self._MAC)
        large = run_cell(payload_bits=4 * 368, **self._MAC)
        assert large["mbps"] > small["mbps"]


class TestCellRegistration:
    def test_registered_with_seed_param(self):
        spec = get_experiment("cell")
        assert spec.seed_param == "seed"
        assert "replicate" in spec.params
        assert spec.params["phy_backend"] == "surrogate"

    def test_runs_through_registry(self):
        result = run("cell", **_FAST)
        assert result.experiment == "cell"
        assert "mbps" in result.aggregates

    def test_nan_metrics_survive_serialization(self):
        """A zero-frame cell reports NaN rates; the result record must
        round-trip them (strict JSON uses null)."""
        from repro.experiments.api import ExperimentResult
        result = run("cell", duration=0.05, n_clients=1,
                     trace_pool=1, mean_snr_db=-40.0)
        back = ExperimentResult.from_json(result.to_json())
        for key, value in result.aggregates.items():
            if math.isnan(value):
                assert math.isnan(back.aggregates[key])
            else:
                assert back.aggregates[key] == value

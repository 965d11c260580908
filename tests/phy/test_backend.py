"""Unit tests for the pluggable PHY backends and their calibration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.backend import (BACKEND_NAMES, DETECTION_SNR_DB,
                               FullPhyBackend, PhyBackend,
                               SurrogatePhyBackend, UnknownBackendError,
                               get_backend)
from repro.phy.calibrate import TABLE_VERSION, CalibrationTable
from repro.phy.calibration import default_table
from repro.phy.rates import RATE_TABLE


class TestGetBackend:
    def test_resolves_full(self):
        backend = get_backend("full")
        assert isinstance(backend, FullPhyBackend)
        assert backend.name == "full"

    def test_resolves_surrogate(self):
        backend = get_backend("surrogate")
        assert isinstance(backend, SurrogatePhyBackend)
        assert backend.name == "surrogate"

    def test_instance_passes_through(self):
        backend = SurrogatePhyBackend(default_table())
        assert get_backend(backend) is backend

    def test_unknown_name_lists_choices(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("bogus")
        message = str(excinfo.value)
        for name in BACKEND_NAMES:
            assert name in message

    def test_unknown_backend_error_is_value_error(self):
        # CLI error handling catches ValueError; keep the hierarchy.
        assert issubclass(UnknownBackendError, ValueError)


class TestFullBackend:
    def test_high_snr_delivers_clean(self):
        backend = FullPhyBackend()
        out = backend.frame_outcome(0, np.array([20.0]), 256,
                                    np.random.default_rng(0))
        assert out.detected and out.delivered
        assert out.n_bit_errors == 0 and out.ber_true == 0.0
        assert out.ber_est < 1e-6
        assert out.n_info_bits == 256 + 32
        assert out.hints is not None and out.hints.size == 288

    def test_low_snr_loses_frame_with_errors(self):
        backend = FullPhyBackend()
        out = backend.frame_outcome(5, np.array([2.0]), 256,
                                    np.random.default_rng(0))
        assert not out.delivered
        assert out.n_bit_errors > 0
        assert out.ber_est > 1e-3

    def test_undetectable_snr_is_silent(self):
        backend = FullPhyBackend()
        out = backend.frame_outcome(0, np.array([-10.0]), 256,
                                    np.random.default_rng(0),
                                    need_hints=False)
        assert not out.detected and not out.delivered

    def test_interference_mask_corrupts_frame(self):
        backend = FullPhyBackend()
        rng = np.random.default_rng(1)
        mask = np.zeros(16, dtype=bool)
        mask[8:] = True
        out = backend.frame_outcome(3, np.full(16, 20.0), 256, rng,
                                    interference_mask=mask)
        assert not out.delivered and out.n_bit_errors > 0

    def test_payload_cache_is_deterministic(self):
        a = FullPhyBackend().frame_outcome(
            2, np.array([9.0]), 256, np.random.default_rng(7))
        b = FullPhyBackend().frame_outcome(
            2, np.array([9.0]), 256, np.random.default_rng(7))
        assert a.ber_true == b.ber_true
        assert a.snr_db == b.snr_db


class TestSurrogateBackend:
    def test_high_snr_delivers_clean(self):
        backend = SurrogatePhyBackend(default_table())
        out = backend.frame_outcome(3, np.full(8, 20.0), 1600,
                                    np.random.default_rng(0))
        assert out.delivered and out.ber_true == 0.0
        assert out.ber_est < 1e-6
        assert out.hints is not None and out.hints.size == 1632

    def test_low_snr_loses_frames(self):
        backend = SurrogatePhyBackend(default_table())
        rng = np.random.default_rng(0)
        outs = [backend.frame_outcome(5, np.full(8, 4.0), 1600, rng)
                for _ in range(10)]
        assert not any(o.delivered for o in outs)
        assert all(o.ber_est > 1e-3 for o in outs)

    def test_undetectable_snr_is_silent(self):
        backend = SurrogatePhyBackend(default_table())
        out = backend.frame_outcome(
            0, np.array([DETECTION_SNR_DB - 3.0]), 400,
            np.random.default_rng(0), need_hints=False)
        assert not out.detected and not out.delivered

    def test_need_hints_false_skips_array(self):
        backend = SurrogatePhyBackend(default_table())
        out = backend.frame_outcome(3, np.full(8, 10.0), 400,
                                    np.random.default_rng(0),
                                    need_hints=False)
        assert out.hints is None
        assert out.ber_est >= 0.0

    def test_interference_mask_degrades_masked_half(self):
        from repro.core.hints import error_probabilities

        backend = SurrogatePhyBackend(default_table())
        mask = np.zeros(16, dtype=bool)
        mask[8:] = True
        out = backend.frame_outcome(3, np.full(16, 20.0), 1600,
                                    np.random.default_rng(2),
                                    interference_mask=mask)
        assert not out.delivered
        p = error_probabilities(out.hints)
        half = p.size // 2
        assert p[half:].mean() > 100 * p[:half].mean()

    def test_mask_shape_mismatch_rejected(self):
        backend = SurrogatePhyBackend(default_table())
        with pytest.raises(ValueError):
            backend.frame_outcome(3, np.full(8, 10.0), 400,
                                  np.random.default_rng(0),
                                  interference_mask=np.zeros(4, bool))

    def test_rate_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SurrogatePhyBackend(default_table(),
                                rates=RATE_TABLE)     # 8 rates vs 6

    def test_waterfall_monotone_in_snr(self):
        table = default_table()
        snrs = np.linspace(-2.0, 26.0, 57)
        for rate in range(table.n_rates):
            q = table.bit_error_rate(rate, snrs)
            assert np.all(np.diff(q) <= 1e-15)

    def test_robust_rates_beat_fragile_ones(self):
        table = default_table()
        mid = np.array([8.0])
        assert table.bit_error_rate(0, mid) < table.bit_error_rate(5, mid)


class TestObserve:
    """The trace-driven entry point shared by both backends."""

    def _trace(self, snr_db=25.0, true_snr_db=None, duration=0.1):
        from repro.traces.synthetic import constant_trace

        trace = constant_trace(best_rate=5, duration=duration,
                               snr_db=snr_db)
        if true_snr_db is not None:
            trace.true_snr_db = np.full(trace.n_slots, true_snr_db)
        return trace

    def test_wraps_frame_observation(self):
        from repro.traces.format import FrameObservation

        backend = SurrogatePhyBackend(default_table())
        obs = backend.observe(self._trace(), 0.01, 3, 1600,
                              np.random.default_rng(0))
        assert isinstance(obs, FrameObservation)
        assert obs.detected and obs.delivered
        assert obs.slot == self._trace().slot_at(0.01)

    def test_prefers_true_snr_over_estimate(self):
        # Recorded estimate says undetectable; true SNR is fine.  A
        # backend reading the estimate would drop the frame silently.
        trace = self._trace(snr_db=-10.0, true_snr_db=25.0)
        backend = SurrogatePhyBackend(default_table())
        obs = backend.observe(trace, 0.01, 3, 1600,
                              np.random.default_rng(0))
        assert obs.detected and obs.delivered

    def test_falls_back_to_estimate_without_true_snr(self):
        trace = self._trace(snr_db=-10.0)
        assert trace.true_snr_db is None
        backend = SurrogatePhyBackend(default_table())
        obs = backend.observe(trace, 0.01, 3, 1600,
                              np.random.default_rng(0))
        assert not obs.detected

    def test_full_backend_observe(self):
        backend = FullPhyBackend()
        obs = backend.observe(self._trace(), 0.01, 3, 368,
                              np.random.default_rng(0))
        assert obs.detected and obs.delivered
        assert obs.ber_true == 0.0


class TestCalibrationTable:
    def test_roundtrip_through_json(self, tmp_path):
        table = default_table()
        path = str(tmp_path / "table.json")
        table.save(path)
        loaded = CalibrationTable.load(path)
        assert np.allclose(table.ber, loaded.ber)
        assert np.allclose(table.loss, loaded.loss)
        snrs = np.linspace(0.0, 20.0, 11)
        for rate in range(table.n_rates):
            assert np.allclose(table.bit_error_rate(rate, snrs),
                               loaded.bit_error_rate(rate, snrs))
            assert np.allclose(table.hazard(rate, snrs),
                               loaded.hazard(rate, snrs))

    def test_version_mismatch_rejected(self, tmp_path):
        import json

        data = default_table().to_dict()
        data["meta"]["version"] = TABLE_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            CalibrationTable.from_dict(data)

    def test_surfaces_at_matches_each_surface_bytewise(self):
        # Grid points, midpoints, both ends, beyond them and signed
        # zero; bytes, so even a zero's sign counts.
        table = default_table()
        g = table.snr_grid_db
        snr = np.concatenate([g, g[:-1] + 0.37,
                              [-40.0, -np.inf, 60.0, 0.0, -0.0]])
        i1 = np.clip(np.searchsorted(g, snr), 1, g.size - 1)
        frac = np.clip((snr - g[i1 - 1]) / (g[i1] - g[i1 - 1]), 0.0, 1.0)
        surfaces = (table._log_hazard, table._errored_log_ber,
                    table._errored_log_ber_std, table._clean_log_est,
                    table._clean_log_est_std)
        for rate in range(table.n_rates):
            block = table.surfaces_at(rate, snr)
            assert block.shape == (5, snr.size)
            assert block.flags.c_contiguous
            for got, surface in zip(block, surfaces):
                row = surface[rate]
                want = row[i1 - 1] * (1.0 - frac) + row[i1] * frac
                assert got.tobytes() == want.tobytes()

    def test_interference_snr_within_grid(self):
        table = default_table()
        lo, hi = table.snr_grid_db[0], table.snr_grid_db[-1]
        for rate in range(table.n_rates):
            assert lo <= table.interference_snr_db(rate) <= hi

    def test_default_table_covers_prototype_rates(self):
        table = default_table()
        assert table.n_rates == len(RATE_TABLE.prototype_subset())
        assert table.rate_names == RATE_TABLE.prototype_subset().names()


class TestTinyCalibration:
    """End-to-end ``calibrate()`` on a deliberately tiny grid."""

    @pytest.fixture(scope="class")
    def tiny(self):
        from repro.phy.calibrate import calibrate

        return calibrate(snr_grid_db=np.array([0.0, 8.0, 16.0, 24.0]),
                         frames_per_point=2, payload_bits=256,
                         interference_frames=1)

    def test_meta_records_provenance(self, tiny):
        assert tiny.meta["version"] == TABLE_VERSION
        assert tiny.meta["payload_bits"] == 256
        assert tiny.meta["frames_per_point"] == 2

    def test_usable_by_surrogate(self, tiny):
        backend = SurrogatePhyBackend(tiny)
        out = backend.frame_outcome(3, np.full(4, 24.0), 400,
                                    np.random.default_rng(0))
        assert out.delivered

    def test_roundtrips_with_nan_holes(self, tiny, tmp_path):
        path = str(tmp_path / "tiny.json")
        tiny.save(path)
        loaded = CalibrationTable.load(path)
        assert np.allclose(tiny.bit_error_rate(5, np.array([8.0])),
                           loaded.bit_error_rate(5, np.array([8.0])))


_BACKENDS = {"full": FullPhyBackend(),
             "surrogate": SurrogatePhyBackend(default_table())}


class TestContractEdges:
    """Edge cases of the shared frame_outcome contract."""

    def test_trajectory_finer_than_bits(self):
        # 200 samples for a 40-bit frame: zero-bit segments must be
        # dropped, not crash the segment bookkeeping.
        backend = SurrogatePhyBackend(default_table())
        out = backend.frame_outcome(3, np.full(200, 10.0), 8,
                                    np.random.default_rng(0))
        assert out.n_info_bits == 40
        assert out.hints.size == 40

    def test_payloads_byte_aligned_identically(self):
        # 1500 bits rounds up to 1504 + 32 CRC in both backends.
        rng = np.random.default_rng(0)
        sur = SurrogatePhyBackend(default_table())
        full = FullPhyBackend()
        out_s = sur.frame_outcome(3, np.array([20.0]), 1500, rng,
                                  need_hints=False)
        out_f = full.frame_outcome(3, np.array([20.0]), 1500, rng,
                                   need_hints=False)
        assert out_s.n_info_bits == out_f.n_info_bits == 1504 + 32
        assert sur.frame_airtime(1500, 3) == full.frame_airtime(1500, 3)

    def test_observe_rejects_mismatched_rate_names(self):
        # Same rate *count*, different rates: caught via provenance
        # labels instead of silently mis-modeling.
        from repro.phy.rates import RATE_TABLE, RateTable
        from repro.traces.synthetic import constant_trace

        shifted = RateTable(list(RATE_TABLE)[2:])     # 6 rates, wrong set
        trace = constant_trace(best_rate=5, duration=0.1, rates=shifted)
        backend = SurrogatePhyBackend(default_table())
        with pytest.raises(ValueError, match="do not match"):
            backend.observe(trace, 0.0, 3, 368,
                            np.random.default_rng(0))

    def test_freed_trace_does_not_validate_its_successor(self):
        # Validation is remembered per live trace.  CPython hands a
        # freed object's id to the next allocation, so a memo keyed by
        # id let eight-rate traces skip the check after a six-rate one
        # was observed and freed.
        from repro.traces.synthetic import constant_trace

        backend = SurrogatePhyBackend(default_table())
        for _ in range(100):
            six = constant_trace(best_rate=5, duration=0.1)
            backend.observe(six, 0.0, 3, 368, np.random.default_rng(0))
            del six
            eight = constant_trace(best_rate=5, duration=0.1,
                                   rates=RATE_TABLE)
            with pytest.raises(ValueError, match="trace has 8 rates"):
                backend.observe(eight, 0.0, 3, 368,
                                np.random.default_rng(0))

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_backend_pickles_and_still_validates(self, name):
        import pickle

        from repro.traces.synthetic import constant_trace

        backend = _BACKENDS[name]
        six = constant_trace(best_rate=5, duration=0.1)
        backend.observe(six, 0.0, 3, 368, np.random.default_rng(0))
        copy = pickle.loads(pickle.dumps(backend))
        assert copy.observe(six, 0.0, 3, 368, np.random.default_rng(0)) \
            == backend.observe(six, 0.0, 3, 368, np.random.default_rng(0))
        eight = constant_trace(best_rate=5, duration=0.1, rates=RATE_TABLE)
        with pytest.raises(ValueError, match="trace has 8 rates"):
            copy.observe(eight, 0.0, 3, 368, np.random.default_rng(0))

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_nan_or_inf_snr_rejected_before_any_draw(self, name, data):
        n = data.draw(st.integers(1, 12))
        snr = np.array(data.draw(st.lists(
            st.floats(-5.0, 30.0) | st.just(-np.inf),
            min_size=n, max_size=n)))
        first = data.draw(st.integers(0, n - 1))
        snr[first] = data.draw(st.sampled_from([np.nan, np.inf]))
        if first + 1 < n:       # a later bad sample must not hide it
            later = data.draw(st.integers(first + 1, n - 1))
            snr[later] = data.draw(st.sampled_from([np.nan, np.inf]))
        mask = data.draw(st.none() | st.just(np.arange(n) % 2 == 0))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=rf"SNR sample {first} is"):
            _BACKENDS[name].frame_outcome(
                data.draw(st.integers(0, 5)), snr,
                data.draw(st.integers(1, 2000)), rng,
                interference_mask=mask)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_no_signal_is_an_undetected_frame(self, name):
        out = _BACKENDS[name].frame_outcome(
            2, np.full(4, -np.inf), 368, np.random.default_rng(0))
        assert not out.detected and not out.delivered

    def test_empty_trajectory_rejected(self):
        backend = SurrogatePhyBackend(default_table())
        with pytest.raises(ValueError, match="no samples"):
            backend.frame_outcome(0, np.array([]), 368,
                                  np.random.default_rng(0))

    def test_airtime_uses_full_frame_geometry(self):
        # Preamble + header + body + postamble — the airtime the MAC
        # schedules, not just the body symbols.
        from repro.phy.transceiver import Transceiver

        backend = SurrogatePhyBackend(default_table())
        assert backend.frame_airtime(1500, 3) == \
            Transceiver().frame_airtime(1504, 3)

    def test_full_phy_trace_records_true_snr(self):
        from repro.traces.generate import generate_full_phy_trace

        trace = generate_full_phy_trace(np.random.default_rng(0),
                                        n_slots=1, payload_bits=104)
        assert trace.true_snr_db is not None
        assert trace.true_snr_db.shape == (1,)
        # 15 dB mean SNR through Rayleigh fading: the true value is
        # finite and in a physical range.
        assert -40.0 < trace.true_snr_db[0] < 40.0

"""Tests for the LinkTrace container."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.traces.format import LinkTrace


def _trace(n_rates=3, n_slots=10, slot=5e-3, loss_prob=None):
    rng = np.random.default_rng(0)
    delivered = rng.random((n_rates, n_slots)) > 0.3
    return LinkTrace(
        slot_duration=slot,
        snr_db=np.linspace(20, 5, n_slots),
        detected=np.ones(n_slots, dtype=bool),
        ber_true=rng.uniform(1e-6, 1e-2, (n_rates, n_slots)),
        ber_est=rng.uniform(1e-6, 1e-2, (n_rates, n_slots)),
        delivered=delivered,
        loss_prob=loss_prob,
        rate_names=[f"r{i}" for i in range(n_rates)])


class TestConstruction:
    def test_shapes_validated(self):
        with pytest.raises(ValueError):
            LinkTrace(slot_duration=1e-3, snr_db=np.zeros(5),
                      detected=np.ones(4, dtype=bool),
                      ber_true=np.zeros((2, 5)), ber_est=np.zeros((2, 5)),
                      delivered=np.zeros((2, 5), dtype=bool))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LinkTrace(slot_duration=1e-3, snr_db=np.zeros(0),
                      detected=np.ones(0, dtype=bool),
                      ber_true=np.zeros((2, 0)), ber_est=np.zeros((2, 0)),
                      delivered=np.zeros((2, 0), dtype=bool))

    def test_loss_prob_range_validated(self):
        with pytest.raises(ValueError):
            _trace(loss_prob=np.full((3, 10), 1.5))

    def test_default_loss_prob_from_delivered(self):
        trace = _trace()
        assert np.array_equal(trace.loss_prob,
                              1.0 - trace.delivered.astype(float))


class TestLookup:
    def test_slot_at(self):
        trace = _trace()
        assert trace.slot_at(0.0) == 0
        assert trace.slot_at(0.012) == 2

    def test_wraparound(self):
        trace = _trace(n_slots=10, slot=5e-3)    # 50 ms trace
        assert trace.slot_at(0.051) == trace.slot_at(0.001)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            _trace().slot_at(-1.0)

    def test_observe_rate_range(self):
        with pytest.raises(ValueError):
            _trace(n_rates=3).observe(0.0, 3)

    def test_degenerate_outcomes_deterministic(self):
        trace = _trace()     # loss probs are all 0 or 1
        for t in (0.0, 0.007, 0.021):
            for r in range(trace.n_rates):
                obs = trace.observe(t, r)
                slot = trace.slot_at(t)
                assert obs.delivered == bool(trace.delivered[r, slot])

    def test_fractional_loss_resampled_per_time(self):
        # Two attempts in the same slot at different instants must be
        # able to differ (retransmissions are not doomed).
        trace = _trace(loss_prob=np.full((3, 10), 0.5))
        outcomes = {trace.observe(1e-4 * k, 0).delivered
                    for k in range(40)}
        assert outcomes == {True, False}

    def test_observation_reproducible(self):
        trace = _trace(loss_prob=np.full((3, 10), 0.5))
        a = trace.observe(0.00123, 1)
        b = trace.observe(0.00123, 1)
        assert a == b

    def test_undetected_slot_never_delivers(self):
        trace = _trace()
        trace.detected[:] = False
        obs = trace.observe(0.0, 0)
        assert not obs.detected and not obs.delivered


class TestBestRate:
    def test_highest_delivered(self):
        trace = _trace()
        trace.delivered[:, 0] = [True, False, True]
        assert trace.best_rate_at(0.0) == 2

    def test_none_when_all_fail(self):
        trace = _trace()
        trace.delivered[:, 0] = False
        assert trace.best_rate_at(0.0) is None


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        trace = _trace(loss_prob=np.full((3, 10), 0.25))
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = LinkTrace.load(path)
        assert loaded.slot_duration == trace.slot_duration
        assert np.array_equal(loaded.delivered, trace.delivered)
        assert np.allclose(loaded.ber_true, trace.ber_true)
        assert np.allclose(loaded.loss_prob, trace.loss_prob)
        assert loaded.rate_names == trace.rate_names


class TestTrueSnrColumn:
    """The optional true-SNR channel-state column (PHY backends)."""

    def test_roundtrips_through_npz(self, tmp_path):
        trace = _trace()
        trace.true_snr_db = np.linspace(18.0, 6.0, trace.n_slots)
        path = str(tmp_path / "t.npz")
        trace.save(path)
        loaded = LinkTrace.load(path)
        assert np.allclose(loaded.true_snr_db, trace.true_snr_db)

    def test_absent_column_loads_as_none(self, tmp_path):
        trace = _trace()
        assert trace.true_snr_db is None
        path = str(tmp_path / "t.npz")
        trace.save(path)
        assert LinkTrace.load(path).true_snr_db is None

    def test_shape_validated(self):
        with pytest.raises(ValueError, match="true_snr_db"):
            LinkTrace(
                slot_duration=5e-3,
                snr_db=np.zeros(4),
                detected=np.ones(4, dtype=bool),
                ber_true=np.zeros((2, 4)),
                ber_est=np.zeros((2, 4)),
                delivered=np.ones((2, 4), dtype=bool),
                true_snr_db=np.zeros(3))

    def test_generated_fading_trace_records_true_snr(self):
        from repro.traces.generate import generate_fading_trace

        trace = generate_fading_trace(np.random.default_rng(0),
                                      duration=0.05)
        assert trace.true_snr_db is not None
        assert trace.true_snr_db.shape == trace.snr_db.shape
        # The estimate is the true SNR plus zero-mean noise.
        err = trace.snr_db - trace.true_snr_db
        assert np.std(err) > 0.1


#: The float columns ``LinkTrace`` requires to be finite.
_FINITE_COLUMNS = ("slot_duration", "snr_db", "true_snr_db", "ber_true",
                   "ber_est", "loss_prob")


def _saved_columns(directory):
    """A valid trace with every column, saved and read back as arrays."""
    trace = _trace(loss_prob=np.full((3, 10), 0.25))
    trace.true_snr_db = np.linspace(18.0, 6.0, trace.n_slots)
    path = os.path.join(directory, "valid.npz")
    trace.save(path)
    with np.load(path) as data:
        return {name: data[name].copy() for name in data.files}


class TestNonFinite:
    """Non-finite values are rejected on construction and on load:
    ``nan`` passes every ``<``/``>`` range check."""

    @pytest.mark.parametrize("column", _FINITE_COLUMNS[1:])
    def test_nan_column_rejected(self, column):
        trace = _trace(loss_prob=np.full((3, 10), 0.25))
        kwargs = dict(slot_duration=trace.slot_duration,
                      snr_db=trace.snr_db, detected=trace.detected,
                      ber_true=trace.ber_true, ber_est=trace.ber_est,
                      delivered=trace.delivered,
                      loss_prob=trace.loss_prob,
                      true_snr_db=np.zeros(trace.n_slots))
        kwargs[column] = np.array(kwargs[column], dtype=float)
        kwargs[column].flat[3] = np.nan
        with pytest.raises(ValueError, match=column):
            LinkTrace(**kwargs)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
    def test_bad_slot_duration_rejected(self, value):
        with pytest.raises(ValueError, match="slot_duration"):
            _trace(slot=value)

    @settings(max_examples=60, deadline=None)
    @given(column=st.sampled_from(_FINITE_COLUMNS),
           value=st.sampled_from([np.nan, np.inf, -np.inf]),
           position=st.integers(min_value=0, max_value=10**6))
    def test_load_rejects_injected_non_finite(self, column, value,
                                              position):
        with tempfile.TemporaryDirectory() as directory:
            arrays = _saved_columns(directory)
            target = arrays[column].astype(float)
            target.flat[position % target.size] = value
            arrays[column] = target
            path = os.path.join(directory, "bad.npz")
            np.savez_compressed(path, **arrays)
            with pytest.raises(ValueError, match=column):
                LinkTrace.load(path)


class TestReadOnly:
    def test_every_array_becomes_non_writeable(self):
        trace = _trace()
        trace.true_snr_db = np.zeros(trace.n_slots)
        assert trace.read_only() is trace
        for name in ("snr_db", "true_snr_db", "detected", "ber_true",
                     "ber_est", "delivered", "loss_prob"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(trace, name)[0] = 0

    def test_lookups_still_work(self):
        trace = _trace().read_only()
        assert trace.observe(0.0, 1).slot == 0

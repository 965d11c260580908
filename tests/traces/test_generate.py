"""Tests for trace generation (analytic and full-PHY paths)."""

import importlib
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.mobility import WalkingTrajectory
from repro.channel.rayleigh import RayleighFadingProcess
from repro.phy.backend import DETECTION_SNR_DB
from repro.phy.rates import MODES, RATE_TABLE
from repro.phy.snr import db_to_linear, snr_to_db
from repro.traces.analytic import coded_ber, frame_loss_probability
from repro.traces.generate import (BER_ESTIMATE_NOISE_DECADES,
                                   _SNR_ESTIMATE_NOISE_DB,
                                   generate_fading_trace,
                                   generate_full_phy_trace)


class TestFadingTrace:
    @pytest.fixture(scope="class")
    def walking(self):
        rng = np.random.default_rng(1)
        trajectory = WalkingTrajectory(rng, start_distance=5.0)
        return generate_fading_trace(rng, duration=5.0,
                                     mean_snr_db=trajectory.mean_snr_db,
                                     doppler_hz=40.0)

    def test_dimensions(self, walking):
        assert walking.n_rates == 6
        assert walking.n_slots == 1000
        assert walking.duration == pytest.approx(5.0)

    def test_delivery_monotone_in_rate(self, walking):
        # Averaged over the trace, lower rates must deliver at least
        # as often as higher rates (observation 1 of section 3.3).
        fractions = walking.delivered.mean(axis=1)
        for low, high in zip(fractions, fractions[1:]):
            assert low >= high - 0.05

    def test_ber_monotone_in_rate(self, walking):
        # Per slot, BER should be non-decreasing in rate index up to
        # estimation jitter.  The paper measures exactly this on its
        # testbed: "the BER across the various bit rates is monotonic
        # in 96% of such 5 ms cycles" (section 6.1); our traces land
        # at the same fraction.
        diffs = np.diff(walking.ber_true, axis=0)
        assert (diffs >= -1e-15).mean() > 0.93

    def test_walking_away_degrades(self, walking):
        # Later half of the trace (farther away) delivers less at the
        # top rate.
        top = walking.delivered[-1]
        half = top.size // 2
        assert top[half:].mean() < top[:half].mean()

    def test_ber_estimate_tracks_truth(self, walking):
        mask = walking.ber_true[3] > 1e-6
        est = walking.ber_est[3][mask]
        true = walking.ber_true[3][mask]
        err = np.abs(np.log10(est) - np.log10(true))
        assert np.median(err) < 0.3

    def test_loss_prob_consistent_with_ber(self, walking):
        # Slots with tiny BER must have tiny loss probability.
        clean = walking.ber_true[0] < 1e-9
        assert walking.loss_prob[0][clean].max() < 0.05

    def test_deep_fades_cause_silent_slots(self, walking):
        assert 0.0 < 1.0 - walking.detected.mean() < 0.5

    def test_duration_validated(self):
        with pytest.raises(ValueError):
            generate_fading_trace(np.random.default_rng(0), duration=0.0)


class TestConsistencyAcrossRates:
    def test_same_fading_for_all_rates(self):
        # The paper requires channel consistency across rates within a
        # snapshot: in a slot where the top rate delivers, all lower
        # rates must deliver too (monotonicity of the same channel).
        rng = np.random.default_rng(3)
        trace = generate_fading_trace(rng, duration=3.0,
                                      mean_snr_db=lambda t: 14.0,
                                      doppler_hz=40.0)
        top_ok = trace.loss_prob[-1] < 0.01
        for r in range(trace.n_rates - 1):
            assert (trace.loss_prob[r][top_ok] < 0.1).all()


@pytest.mark.slow
class TestFullPhyTrace:
    def test_generates_and_matches_analytic_shape(self):
        rng = np.random.default_rng(4)
        trace = generate_full_phy_trace(rng, n_slots=8,
                                        mean_snr_db=lambda t: 10.0,
                                        doppler_hz=40.0,
                                        payload_bits=800)
        assert trace.n_slots == 8
        # At 10 dB the low rates deliver nearly always, the top rate
        # struggles.
        assert trace.delivered[0].mean() >= 0.5
        assert trace.delivered[0].mean() >= trace.delivered[-1].mean()


_GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "golden")


def _trace_pin():
    with open(os.path.join(_GOLDEN_DIR, "fading_traces.json")) as fh:
        return json.load(fh)["cases"]


def _regenerate():
    sys.path.insert(0, _GOLDEN_DIR)
    try:
        return importlib.import_module("regenerate")
    finally:
        sys.path.pop(0)


@pytest.mark.parametrize("case", sorted(_trace_pin()))
def test_fading_trace_matches_pin(case):
    """Every ``LinkTrace`` array and the generator's RNG state after the
    call are byte-identical to ``tests/golden/fading_traces.json``."""
    want = _trace_pin()[case]
    got = _regenerate().compute_trace_case(want["config"])
    assert len(got) == len(want["traces"])
    for link, (mine, pinned) in enumerate(zip(got, want["traces"])):
        for name, digest in pinned["arrays"].items():
            assert mine["arrays"][name] == digest, \
                f"{case} link {link}: {name} changed"
        assert mine["rng_state"] == pinned["rng_state"], \
            f"{case} link {link}: RNG state after the call changed"
        assert mine["rate_names"] == pinned["rate_names"]
        assert mine["slot_duration"] == pinned["slot_duration"]


#: The ``LinkTrace`` arrays the generator fills.
_ARRAYS = ("snr_db", "true_snr_db", "detected", "ber_true", "ber_est",
           "delivered", "loss_prob")


def _scalar_fading_trace(rng, duration, mean_snr_db, doppler_hz,
                         slot_duration, payload_bits, rates, mode,
                         n_symbol_samples, snr_ceiling_db, snr_jitter_db):
    """The reference: one Python iteration per (slot, rate), scalar
    numpy throughout — the loop :func:`generate_fading_trace`
    vectorises.  Returns the trace's arrays."""
    fading = RayleighFadingProcess(doppler_hz, rng)
    n_slots = max(1, int(round(duration / slot_duration)))
    n_info = payload_bits + 32
    shape = (len(rates), n_slots)
    out = dict(ber_true=np.empty(shape), ber_est=np.empty(shape),
               delivered=np.zeros(shape, dtype=bool),
               loss_prob=np.empty(shape), snr_db=np.empty(n_slots),
               true_snr_db=np.empty(n_slots),
               detected=np.zeros(n_slots, dtype=bool))
    ceiling = db_to_linear(snr_ceiling_db)
    airtimes = [rate.airtime(n_info, mode.symbol_time, mode.n_subcarriers)
                for rate in rates]
    for slot in range(n_slots):
        t0 = slot * slot_duration
        mean_lin = db_to_linear(mean_snr_db(t0))
        h0 = fading.gains(np.array([t0]))[0]
        inst_snr_db = snr_to_db(mean_lin * np.abs(h0) ** 2)
        out["detected"][slot] = inst_snr_db >= DETECTION_SNR_DB
        out["true_snr_db"][slot] = inst_snr_db
        out["snr_db"][slot] = inst_snr_db + rng.normal(
            0, _SNR_ESTIMATE_NOISE_DB)
        for r, rate in enumerate(rates):
            times = t0 + np.linspace(0.0, airtimes[r], n_symbol_samples)
            symbol_snrs = mean_lin * np.abs(fading.gains(times)) ** 2
            symbol_snrs = 1.0 / (1.0 / np.maximum(symbol_snrs, 1e-12)
                                 + 1.0 / ceiling)
            if snr_jitter_db > 0:
                jitter = rng.normal(0.0, snr_jitter_db,
                                    size=symbol_snrs.shape)
                symbol_snrs = symbol_snrs * 10.0 ** (jitter / 10.0)
            ber = float(np.mean(coded_ber(rate, symbol_snrs)))
            loss_p = frame_loss_probability(rate, symbol_snrs, n_info)
            out["ber_true"][r, slot] = ber
            noise = rng.normal(0.0, BER_ESTIMATE_NOISE_DECADES)
            out["ber_est"][r, slot] = min(0.5,
                                          max(1e-12, ber) * 10.0 ** noise)
            out["loss_prob"][r, slot] = loss_p
            out["delivered"][r, slot] = rng.random() >= loss_p
    return out


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n_slots=st.integers(1, 40),
       slot_duration=st.sampled_from([1e-3, 2.5e-3, 5e-3]),
       walking=st.booleans(),
       mean_snr_db=st.floats(-5.0, 35.0),
       doppler_hz=st.sampled_from([0.5, 40.0, 400.0, 4000.0]),
       payload_bits=st.sampled_from([368, 1600, 11200]),
       full_table=st.booleans(),
       mode=st.sampled_from(sorted(MODES)),
       n_symbol_samples=st.integers(1, 40),
       snr_ceiling_db=st.sampled_from([15.0, 23.0, 30.0]),
       snr_jitter_db=st.sampled_from([0.0, 1.5, 3.0]))
def test_matches_the_scalar_loop(seed, n_slots, slot_duration, walking,
                                 mean_snr_db, doppler_hz, payload_bits,
                                 full_table, mode, n_symbol_samples,
                                 snr_ceiling_db, snr_jitter_db):
    """Byte-identical arrays and RNG state to the per-(slot, rate) loop
    over random configurations (the pin fixes chosen ones)."""
    kwargs = dict(duration=n_slots * slot_duration, doppler_hz=doppler_hz,
                  slot_duration=slot_duration, payload_bits=payload_bits,
                  rates=RATE_TABLE if full_table
                  else RATE_TABLE.prototype_subset(),
                  mode=MODES[mode], n_symbol_samples=n_symbol_samples,
                  snr_ceiling_db=snr_ceiling_db,
                  snr_jitter_db=snr_jitter_db)
    results = []
    for generate in (_scalar_fading_trace, generate_fading_trace):
        rng = np.random.default_rng(seed)
        mean = WalkingTrajectory(rng).mean_snr_db if walking \
            else (lambda t: mean_snr_db)
        trace = generate(rng, mean_snr_db=mean, **kwargs)
        arrays = trace if isinstance(trace, dict) else {
            name: getattr(trace, name) for name in _ARRAYS}
        results.append((arrays, rng.bit_generator.state))
    (want, want_state), (got, got_state) = results
    for name in _ARRAYS:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name
    assert got_state == want_state

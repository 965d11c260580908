"""``link_traces`` against the per-channel loops it replaced.

The three loops below are the oracle: every trace ``link_traces``
returns must equal theirs byte for byte, and leave each link's
generator in the same state, so the seeds and draw order of every
pinned trace, golden and digest carry over.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.mobility import WalkingTrajectory
from repro.traces import workloads
from repro.traces.generate import generate_fading_trace
from repro.traces.workloads import CHANNELS, channel_inputs, link_traces

_ARRAYS = ("snr_db", "true_snr_db", "detected", "ber_true", "ber_est",
           "delivered", "loss_prob")


def _walking_loop(n_links, duration, seed, payload_bits):
    out = []
    for link in range(n_links):
        rng = np.random.default_rng(seed + link)
        trajectory = WalkingTrajectory(
            rng, start_distance=float(rng.uniform(4.0, 8.0)),
            speed=1.2, doppler_hz=40.0)
        out.append((generate_fading_trace(
            rng, duration=duration, mean_snr_db=trajectory.mean_snr_db,
            doppler_hz=40.0, payload_bits=payload_bits),
            rng.bit_generator.state))
    return out


def _simulation_loop(doppler_hz, n_links, duration, mean_snr_db, seed,
                     payload_bits):
    out = []
    for link in range(n_links):
        rng = np.random.default_rng(seed + 100 + link)
        out.append((generate_fading_trace(
            rng, duration=duration,
            mean_snr_db=lambda t: mean_snr_db,
            doppler_hz=doppler_hz, payload_bits=payload_bits),
            rng.bit_generator.state))
    return out


def _static_short_range_loop(n_links, duration, mean_snr_db, seed,
                             payload_bits):
    out = []
    for link in range(n_links):
        rng = np.random.default_rng(seed + 200 + link)
        out.append((generate_fading_trace(
            rng, duration=duration,
            mean_snr_db=lambda t: mean_snr_db,
            doppler_hz=1.0, payload_bits=payload_bits),
            rng.bit_generator.state))
    return out


def _oracle(channel, n_links, seed, duration, mean_snr_db, doppler_hz,
            payload_bits):
    if channel == "walking":
        return _walking_loop(n_links, duration, seed, payload_bits)
    if channel == "fading":
        return _simulation_loop(doppler_hz, n_links, duration,
                                mean_snr_db, seed, payload_bits)
    return _static_short_range_loop(n_links, duration, mean_snr_db,
                                    seed, payload_bits)


def _recorded(*args, **kwargs):
    """``link_traces`` paired with the generator state after each link,
    recorded where the module looks the generator up."""
    states = []

    def recording(rng, *a, **kw):
        trace = generate_fading_trace(rng, *a, **kw)
        states.append(rng.bit_generator.state)
        return trace

    with mock.patch.object(workloads, "generate_fading_trace",
                           recording):
        traces = link_traces(*args, **kwargs)
    return list(zip(traces, states))


def _assert_same(got, want):
    assert len(got) == len(want)
    for (mine, my_state), (theirs, their_state) in zip(got, want):
        for name in _ARRAYS:
            a, b = getattr(mine, name), getattr(theirs, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        assert mine.rate_names == theirs.rate_names
        assert mine.slot_duration == theirs.slot_duration
        assert my_state == their_state


@settings(max_examples=40, deadline=None)
@given(channel=st.sampled_from(CHANNELS), n_links=st.integers(1, 4),
       seed=st.integers(0, 10_000), duration=st.floats(5e-3, 0.3),
       mean_snr_db=st.floats(0.0, 25.0),
       doppler_hz=st.floats(1.0, 4000.0),
       payload_bits=st.sampled_from([368, 1600, 11200]))
def test_matches_the_per_channel_loops(channel, n_links, seed, duration,
                                       mean_snr_db, doppler_hz,
                                       payload_bits):
    got = _recorded(channel, n_links, seed, duration, mean_snr_db,
                    doppler_hz, payload_bits)
    _assert_same(got, _oracle(channel, n_links, seed, duration,
                              mean_snr_db, doppler_hz, payload_bits))


@pytest.mark.parametrize("channel", CHANNELS)
def test_every_trace_is_read_only(channel):
    for trace in link_traces(channel, 2, 7, 0.02, 16.0, 200.0):
        for name in _ARRAYS:
            array = getattr(trace, name)
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = array[(0,) * array.ndim]


def test_inputs_a_channel_does_not_read_change_nothing():
    def pairs(traces):
        return [(trace, None) for trace in traces]

    _assert_same(pairs(link_traces("walking", 2, 3, 0.05, 5.0, 40.0)),
                 pairs(link_traces("walking", 2, 3, 0.05, 20.0, 400.0)))
    _assert_same(pairs(link_traces("walking", 1, 3, 0.05)),
                 pairs(link_traces("walking", 1, 3, 0.05, 12.0)))
    _assert_same(pairs(link_traces("static", 2, 3, 0.05, 14.0, 40.0)),
                 pairs(link_traces("static", 2, 3, 0.05, 14.0)))


def test_channel_inputs_keeps_only_what_each_channel_reads():
    assert channel_inputs("walking", 12.0, 40.0) == (None, None)
    assert channel_inputs("walking", None, None) == (None, None)
    assert channel_inputs("static", 12.0, 40.0) == (12.0, None)
    assert channel_inputs("fading", 12.0, 40.0) == (12.0, 40.0)


def test_unknown_channel_names_the_channels():
    for call in (lambda: channel_inputs("rayleigh", 12.0, 40.0),
                 lambda: link_traces("rayleigh", 1, 1, 0.05, 12.0, 40.0)):
        with pytest.raises(ValueError,
                           match=r"\['walking', 'static', 'fading'\]"):
            call()


@pytest.mark.parametrize("channel, mean, doppler, missing", [
    ("static", None, 40.0, "mean_snr_db"),
    ("fading", None, 40.0, "mean_snr_db"),
    ("fading", 12.0, None, "doppler_hz"),
])
def test_a_missing_input_the_channel_reads(channel, mean, doppler,
                                           missing):
    with pytest.raises(ValueError, match=missing):
        link_traces(channel, 1, 1, 0.05, mean, doppler)


@pytest.mark.parametrize("n_links", [0, -1])
def test_needs_at_least_one_link(n_links):
    with pytest.raises(ValueError, match="n_links"):
        link_traces("walking", n_links, 1, 0.05)


@pytest.mark.parametrize("duration", [0.0, -1.0, float("nan"),
                                      float("inf")])
def test_rejects_a_duration_that_is_not_finite_and_positive(duration):
    with pytest.raises(ValueError, match="duration"):
        link_traces("static", 1, 1, duration, 14.0)

"""Tests for walking-mobility channel trajectories."""

import numpy as np
import pytest

from repro.channel.mobility import WalkingTrajectory


@pytest.fixture()
def trajectory():
    return WalkingTrajectory(np.random.default_rng(0))


class TestLargeScale:
    def test_distance_grows(self, trajectory):
        assert trajectory.distance(10.0) > trajectory.distance(0.0)

    def test_mean_snr_decays_when_walking_away(self, trajectory):
        assert trajectory.mean_snr_db(10.0) < trajectory.mean_snr_db(0.0)

    def test_walking_towards_improves(self):
        towards = WalkingTrajectory(np.random.default_rng(1), speed=-0.5,
                                    start_distance=20.0)
        assert towards.mean_snr_db(10.0) > towards.mean_snr_db(0.0)

    def test_distance_floor(self):
        t = WalkingTrajectory(np.random.default_rng(2), speed=-10.0,
                              start_distance=1.0)
        assert t.distance(100.0) == 0.5


class TestSmallScale:
    def test_symbol_gains_embed_mean_snr(self, trajectory):
        # Average |gain|^2 over many fading realisations approximates
        # the linear mean SNR (noise variance normalised to 1).
        rng = np.random.default_rng(3)
        t0 = 2.0
        target = 10 ** (trajectory.mean_snr_db(t0) / 10)
        powers = []
        for seed in range(40):
            traj = WalkingTrajectory(np.random.default_rng(seed))
            g = traj.symbol_gains(t0, 50, 160e-6)
            powers.append(np.mean(np.abs(g) ** 2))
        assert np.mean(powers) == pytest.approx(target, rel=0.25)

    def test_fades_present(self, trajectory):
        # Over several coherence times the instantaneous SNR must swing
        # by tens of dB (Fig. 1's fades).
        snrs = [trajectory.instantaneous_snr_db(t)
                for t in np.linspace(0, 2.0, 400)]
        assert max(snrs) - min(snrs) > 15.0

    def test_validation(self):
        # NaN used to walk from 0.5 m, inf to give a -inf dB trace.
        for distance in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="start distance"):
                WalkingTrajectory(np.random.default_rng(0),
                                  start_distance=distance)

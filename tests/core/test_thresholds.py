"""Tests for optimal threshold computation (paper section 3.3)."""

import numpy as np
import pytest

from repro.core.thresholds import (FrameLevelArq, PartialBitArq,
                                   compute_thresholds)
from repro.phy.rates import RATE_TABLE

RATES = RATE_TABLE.prototype_subset()


@pytest.fixture(scope="module")
def frame_arq_table():
    return compute_thresholds(RATES, FrameLevelArq(frame_bits=10000))


@pytest.fixture(scope="module")
def harq_table():
    return compute_thresholds(RATES, PartialBitArq(cost_per_error=500.0))


class TestRecoveryModels:
    def test_frame_arq_throughput_decays_fast(self):
        arq = FrameLevelArq(frame_bits=10000)
        rate = RATES[3]
        assert arq.throughput(rate, 0.0) == rate.mbps
        assert arq.throughput(rate, 1e-3) < 0.01 * rate.mbps

    def test_harq_tolerates_moderate_ber(self):
        harq = PartialBitArq(cost_per_error=500.0)
        rate = RATES[3]
        assert harq.throughput(rate, 1e-4) > 0.9 * rate.mbps
        assert harq.throughput(rate, 1e-2) < 0.2 * rate.mbps

    def test_validation(self):
        with pytest.raises(ValueError):
            FrameLevelArq(frame_bits=0)
        # NaN and inf used to yield a table of flat thresholds.
        for cost in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="cost per error"):
                PartialBitArq(cost_per_error=cost)

    @pytest.mark.parametrize("separation", [0.5, -1.0, float("nan"),
                                            float("inf")])
    def test_separation_must_be_finite_and_at_least_one(self,
                                                        separation):
        # -1 used to give alpha above beta; NaN a table of nonsense.
        with pytest.raises(ValueError, match="separation"):
            compute_thresholds(RATES, FrameLevelArq(frame_bits=10000),
                               separation=separation)


class TestThresholdStructure:
    def test_alpha_below_beta(self, frame_arq_table):
        for i in range(len(RATES)):
            t = frame_arq_table[i]
            assert t.alpha < t.beta

    def test_edges(self, frame_arq_table):
        assert frame_arq_table[0].beta == pytest.approx(0.5)
        assert frame_arq_table[len(RATES) - 1].alpha <= 1e-11

    def test_paper_example_orders_of_magnitude(self, frame_arq_table):
        # Paper: 18 Mbps with 10000-bit frames and frame ARQ has
        # thresholds around (1e-7..1e-6, 1e-5..1e-4).
        t = frame_arq_table[3]          # QPSK 3/4 = 18 Mbps
        assert 1e-8 < t.alpha < 1e-4
        assert 1e-6 < t.beta < 1e-3
        assert t.beta / t.alpha >= 5.0

    def test_harq_shifts_thresholds_up(self, frame_arq_table, harq_table):
        # Smarter recovery tolerates orders of magnitude more BER
        # before dropping rate (paper's 1e-3 vs 1e-5 example).
        for i in range(1, len(RATES)):
            assert harq_table[i].beta > 10 * frame_arq_table[i].beta

    def test_classify(self, frame_arq_table):
        t = frame_arq_table[3]
        assert t.classify(t.beta * 10) == -1
        assert t.classify(t.alpha / 10) == 1
        assert t.classify(np.sqrt(t.alpha * t.beta)) == 0


class TestBestRate:
    def test_stays_in_sweet_spot(self, frame_arq_table):
        t = frame_arq_table[3]
        mid = np.sqrt(t.alpha * t.beta)
        assert frame_arq_table.best_rate(3, mid) == 3

    def test_moves_down_on_high_ber(self, frame_arq_table):
        assert frame_arq_table.best_rate(3, 1e-2) < 3

    def test_moves_up_on_tiny_ber(self, frame_arq_table):
        assert frame_arq_table.best_rate(3, 1e-12) > 3

    def test_jump_limit_respected(self, frame_arq_table):
        assert frame_arq_table.best_rate(5, 0.5, max_jump=2) >= 3
        assert frame_arq_table.best_rate(0, 1e-12, max_jump=1) <= 1

    def test_edge_rates_clamped(self, frame_arq_table):
        assert frame_arq_table.best_rate(0, 0.4) == 0
        top = len(RATES) - 1
        assert frame_arq_table.best_rate(top, 1e-12) == top

    def test_multi_level_jump_on_terrible_ber(self, frame_arq_table):
        # Paper: "if the BER at 18 Mbps is above 1e-2, jump two rates".
        assert frame_arq_table.best_rate(3, 5e-2) == 1

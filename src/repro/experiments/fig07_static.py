"""Fig. 7: SoftPHY-based vs SNR-based BER estimation, static channel.

Runs the bit-exact PHY over AWGN at a grid of transmit powers and
rates (the Table 4 "Static" experiment, scaled down), then produces:

* **7(a)** — per-frame SoftPHY BER estimate vs ground truth, binned;
* **7(b)** — the same with all bits of a bin aggregated, resolving
  true BERs far below what one frame can measure;
* **7(c)** — ground-truth BER vs the frame's preamble SNR estimate,
  per rate, exposing the spread that makes SNR an unreliable
  predictor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.binning import (BinnedBer, aggregate_bits_per_bin,
                                    log_bin_ber)
from repro.core.hints import frame_ber_estimate
from repro.experiments.api import register_experiment
from repro.phy import batch
from repro.phy.rates import RATE_TABLE
from repro.phy.snr import db_to_linear
from repro.phy.transceiver import Transceiver

__all__ = ["Fig7Data", "run_fig7"]


@dataclass
class Fig7Data:
    """All three panels of Fig. 7."""

    estimates: np.ndarray           # per frame
    truths: np.ndarray
    error_counts: np.ndarray
    snr_estimates: np.ndarray
    rate_indices: np.ndarray
    bits_per_frame: int

    def panel_a(self, decades_per_bin: float = 0.25) -> List[BinnedBer]:
        """Per-frame binned estimate vs truth."""
        return log_bin_ber(self.estimates, self.truths, decades_per_bin)

    def panel_b(self, decades_per_bin: float = 0.5) -> List[Tuple]:
        """Aggregated-bits estimate vs truth."""
        return aggregate_bits_per_bin(self.estimates, self.error_counts,
                                      self.bits_per_frame,
                                      decades_per_bin)

    def panel_c(self, rate_index: int,
                bin_db: float = 1.0) -> List[Tuple[float, float, float]]:
        """(snr_bin, mean true BER, std true BER) for one rate."""
        mask = self.rate_indices == rate_index
        snrs = self.snr_estimates[mask]
        truths = self.truths[mask]
        out = []
        for edge in np.arange(np.floor(snrs.min()),
                              np.ceil(snrs.max()) + bin_db, bin_db):
            sel = (snrs >= edge) & (snrs < edge + bin_db)
            if sel.sum() < 3:
                continue
            out.append((float(edge + bin_db / 2),
                        float(truths[sel].mean()),
                        float(truths[sel].std())))
        return out

    def estimator_error_decades(self) -> float:
        """Median |log10(estimate / truth)| over errored frames."""
        mask = self.truths > 0
        if not mask.any():
            return float("nan")
        err = np.abs(np.log10(np.clip(self.estimates[mask], 1e-12, 1))
                     - np.log10(self.truths[mask]))
        return float(np.median(err))


def _metrics(data: Fig7Data) -> dict:
    return {
        "estimator_error_decades": data.estimator_error_decades(),
        "n_frames": float(data.truths.size),
        "errored_fraction": float((data.truths > 0).mean()),
    }


@register_experiment(
    "fig07",
    description="SoftPHY vs SNR BER estimation on a static channel",
    params={"seed": 7, "payload_bits": 1600, "frames_per_point": 4,
            "phy_backend": "full"},
    algorithms=(), metrics=_metrics)
def run_fig7(seed: int = 7, payload_bits: int = 1600,
             frames_per_point: int = 4,
             snr_grid_db: np.ndarray = None,
             rate_indices: List[int] = None,
             phy_backend="full") -> Fig7Data:
    """Run the static BER-estimation experiment.

    The default grid covers each rate's waterfall region so the
    collected frames span BERs from ~0.3 down past 1e-6.

    Frames are decoded :data:`repro.phy.batch.FRAMES_PER_DECODE` at a
    time through the batched PHY.  Noise is drawn frame-by-frame in
    sweep order, so the results are bit-identical at any stack size.

    ``phy_backend`` selects how frames are computed: ``"full"`` (the
    bit-exact pipeline, default) or ``"surrogate"`` (the calibrated
    table-driven backend of :mod:`repro.phy.backend` — statistically
    matched, not bit-identical, orders of magnitude faster).
    """
    rng = np.random.default_rng(seed)
    rates = RATE_TABLE.prototype_subset()
    if rate_indices is None:
        rate_indices = list(range(len(rates)))
    if snr_grid_db is None:
        snr_grid_db = np.arange(0.0, 19.0, 1.0)

    if phy_backend != "full":
        from repro.phy.backend import get_backend
        backend = get_backend(phy_backend, rates=rates)
        return _run_fig7_backend(backend, rng, payload_bits,
                                 frames_per_point, snr_grid_db,
                                 rate_indices)

    phy = Transceiver(rates=rates)
    payload = rng.integers(0, 2, payload_bits).astype(np.uint8)
    estimates, truths, errors, snrs, rates_used = [], [], [], [], []
    for rate_index in rate_indices:
        tx = phy.transmit(payload, rate_index=rate_index)
        # One noise variance per frame of this rate's grid, in the
        # same order the sequential loop would visit them.
        noise_vars = np.repeat([db_to_linear(-float(s))
                                for s in snr_grid_db], frames_per_point)
        for start in range(0, noise_vars.size, batch.FRAMES_PER_DECODE):
            chunk = noise_vars[start:start + batch.FRAMES_PER_DECODE]
            gains = np.ones((chunk.size, tx.layout.n_symbols),
                            dtype=complex)
            for rx in phy.run_batch(tx, gains, chunk, rng):
                estimates.append(frame_ber_estimate(rx.hints))
                truths.append(rx.true_ber)
                errors.append(int(rx.error_mask.sum()))
                snrs.append(rx.snr_db)
                rates_used.append(rate_index)
    return Fig7Data(estimates=np.array(estimates),
                    truths=np.array(truths),
                    error_counts=np.array(errors),
                    snr_estimates=np.array(snrs),
                    rate_indices=np.array(rates_used),
                    bits_per_frame=payload_bits + 32)


def _run_fig7_backend(backend, rng, payload_bits: int,
                      frames_per_point: int, snr_grid_db,
                      rate_indices) -> Fig7Data:
    """The fig07 sweep through a :class:`PhyBackend`.

    Same (rate, SNR, frame) visit order as the bit-exact path, but
    each frame outcome comes from ``backend.frame_outcome`` on a flat
    SNR trajectory.
    """
    estimates, truths, errors, snrs, rates_used = [], [], [], [], []
    for rate_index in rate_indices:
        for snr_db in snr_grid_db:
            trajectory = np.array([float(snr_db)])
            for _ in range(frames_per_point):
                out = backend.frame_outcome(rate_index, trajectory,
                                            payload_bits, rng)
                estimates.append(out.ber_est)
                truths.append(out.ber_true)
                errors.append(out.n_bit_errors)
                snrs.append(out.snr_db)
                rates_used.append(rate_index)
    return Fig7Data(estimates=np.array(estimates),
                    truths=np.array(truths),
                    error_counts=np.array(errors),
                    snr_estimates=np.array(snrs),
                    rate_indices=np.array(rates_used),
                    bits_per_frame=payload_bits + 32)

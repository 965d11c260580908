"""Figs. 8 & 9: BER estimation in mobile channels.

Runs the bit-exact PHY through Rayleigh fading at walking (40 Hz) and
vehicular (400 Hz) Doppler spreads:

* **Fig. 8** — the SoftPHY estimate vs ground truth curve is the *same*
  at both speeds (mobility-invariant);
* **Fig. 9** — the preamble-SNR vs ground-truth-BER curve *shifts* with
  Doppler, because the preamble cannot see mid-frame fades whose
  number grows as coherence time shrinks.  This is why SNR protocols
  need retraining per environment and SoftRate does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.binning import BinnedBer, log_bin_ber
from repro.channel.awgn import apply_channel
from repro.channel.rayleigh import RayleighFadingProcess
from repro.core.hints import frame_ber_estimate
from repro.experiments.api import register_experiment
from repro.phy import batch
from repro.phy.snr import db_to_linear, snr_to_db
from repro.phy.transceiver import Transceiver

__all__ = ["MobileBerData", "run_fig8"]


@dataclass
class MobileBerData:
    """Per-Doppler estimation data for Figs. 8 and 9."""

    doppler_hz: Dict[str, float]
    estimates: Dict[str, np.ndarray]
    truths: Dict[str, np.ndarray]
    snrs: Dict[str, np.ndarray]

    def softphy_curve(self, label: str) -> List[BinnedBer]:
        """Fig. 8 curve for one mobility speed."""
        return log_bin_ber(self.estimates[label], self.truths[label],
                           decades_per_bin=0.5, min_frames=3)

    def snr_curve(self, label: str, bin_db: float = 2.0
                  ) -> List[Tuple[float, float]]:
        """Fig. 9 curve: (snr_bin_center, mean true BER).

        Bin edges are anchored at multiples of ``bin_db`` so curves
        from different mobility speeds share bin centres and can be
        compared point-by-point.
        """
        snrs = self.snrs[label]
        truths = self.truths[label]
        out = []
        start = np.floor(snrs.min() / bin_db) * bin_db
        for edge in np.arange(start, np.ceil(snrs.max()) + bin_db,
                              bin_db):
            sel = (snrs >= edge) & (snrs < edge + bin_db)
            if sel.sum() < 3:
                continue
            out.append((float(edge + bin_db / 2),
                        float(truths[sel].mean())))
        return out

    def curve_divergence(self, label_a: str, label_b: str,
                         curve: str) -> float:
        """Mean |log10 BER| gap between two speeds' curves.

        For ``curve="softphy"`` the x-axis is the BER estimate; for
        ``curve="snr"`` it is the SNR estimate.  Fig. 8 expects a small
        value, Fig. 9 a large one.
        """
        if curve == "softphy":
            a = {round(np.log10(b.estimate_center), 1): b.mean_true
                 for b in self.softphy_curve(label_a)}
            b = {round(np.log10(c.estimate_center), 1): c.mean_true
                 for c in self.softphy_curve(label_b)}
        elif curve == "snr":
            a = {x: y for x, y in self.snr_curve(label_a)}
            b = {x: y for x, y in self.snr_curve(label_b)}
        else:
            raise ValueError(f"unknown curve {curve!r}")
        shared = sorted(set(a) & set(b))
        gaps = [abs(np.log10(max(a[k], 1e-7))
                    - np.log10(max(b[k], 1e-7))) for k in shared]
        return float(np.mean(gaps)) if gaps else float("nan")


def _metrics(data: MobileBerData) -> dict:
    labels = sorted(data.doppler_hz)
    out = {}
    if len(labels) >= 2:
        a, b = labels[0], labels[1]
        out["softphy_divergence_decades"] = data.curve_divergence(
            a, b, "softphy")
        out["snr_divergence_decades"] = data.curve_divergence(
            a, b, "snr")
    for label in labels:
        out[f"errored_fraction/{label}"] = float(
            (data.truths[label] > 0).mean())
    return out


@register_experiment(
    "fig08",
    description="BER estimation across mobility speeds (Figs. 8 & 9)",
    params={"seed": 8, "payload_bits": 1600, "n_frames": 60,
            "rate_index": 3, "phy_backend": "full"},
    algorithms=(), metrics=_metrics)
def run_fig8(seed: int = 8, payload_bits: int = 1600,
             n_frames: int = 60, rate_index: int = 3,
             dopplers: Dict[str, float] = None,
             mean_snr_range_db: Tuple[float, float] = (4.0, 14.0),
             phy_backend="full") -> MobileBerData:
    """Collect per-frame BER estimates across mobility speeds.

    Each frame sees an independent fading realisation whose mean SNR is
    drawn uniformly across the waterfall region, so both lossy and
    clean frames appear at every Doppler.

    Frames are decoded :data:`repro.phy.batch.FRAMES_PER_DECODE` at a
    time through the batched PHY; fading and noise are drawn
    frame-by-frame in the original sequential order, so results are
    bit-identical at any stack size.

    ``phy_backend`` selects how frames are computed: ``"full"`` (the
    bit-exact pipeline, default) or ``"surrogate"`` (the calibrated
    table-driven backend — statistically matched, not bit-identical,
    orders of magnitude faster).
    """
    if dopplers is None:
        dopplers = {"walking": 40.0, "vehicular": 400.0}
    phy = Transceiver()

    if phy_backend != "full":
        from repro.phy.backend import get_backend
        backend = get_backend(phy_backend, rates=phy.rates)
        # Layout arithmetic only — no need to modulate a frame the
        # surrogate will never decode.
        n_symbols = phy.frame_layout(payload_bits,
                                     rate_index).n_symbols
        return _run_fig8_backend(
            backend, seed, payload_bits, n_frames, rate_index,
            dopplers, mean_snr_range_db, n_symbols,
            phy.mode.symbol_time)

    payload = np.random.default_rng(seed).integers(
        0, 2, payload_bits).astype(np.uint8)
    tx = phy.transmit(payload, rate_index=rate_index)
    n_symbols = tx.layout.n_symbols

    estimates, truths, snrs = {}, {}, {}
    for label, doppler in dopplers.items():
        rng = np.random.default_rng(seed + int(doppler))
        est, tru, snr = [], [], []
        for start in range(0, n_frames, batch.FRAMES_PER_DECODE):
            chunk = min(batch.FRAMES_PER_DECODE, n_frames - start)
            gains = np.empty((chunk, n_symbols), dtype=complex)
            rx_syms = np.empty((chunk, n_symbols,
                                phy.mode.n_subcarriers), dtype=complex)
            for i in range(chunk):
                mean_snr = rng.uniform(*mean_snr_range_db)
                fading = RayleighFadingProcess(doppler, rng)
                amplitude = np.sqrt(db_to_linear(mean_snr))
                gains[i] = amplitude * fading.symbol_gains(
                    0.0, n_symbols, phy.mode.symbol_time)
                rx_syms[i], _ = apply_channel(tx.symbols, gains[i],
                                              1.0, rng)
            for rx in phy.receive_batch(rx_syms, gains, tx.layout,
                                        tx=tx):
                est.append(frame_ber_estimate(rx.hints))
                tru.append(rx.true_ber)
                snr.append(rx.snr_db)
        estimates[label] = np.array(est)
        truths[label] = np.array(tru)
        snrs[label] = np.array(snr)
    return MobileBerData(doppler_hz=dict(dopplers), estimates=estimates,
                         truths=truths, snrs=snrs)


def _run_fig8_backend(backend, seed: int, payload_bits: int,
                      n_frames: int, rate_index: int,
                      dopplers: Dict[str, float],
                      mean_snr_range_db: Tuple[float, float],
                      n_symbols: int, symbol_time: float
                      ) -> MobileBerData:
    """The fig08 sweep through a :class:`PhyBackend`.

    Draws the same kind of per-frame fading trajectories as the
    bit-exact path (uniform mean SNR across the waterfall, one
    independent Rayleigh realisation per frame) and hands the
    per-symbol SNR trajectory to ``backend.frame_outcome``.
    """
    estimates, truths, snrs = {}, {}, {}
    for label, doppler in dopplers.items():
        rng = np.random.default_rng(seed + int(doppler))
        est, tru, snr = [], [], []
        for _ in range(n_frames):
            mean_snr = rng.uniform(*mean_snr_range_db)
            fading = RayleighFadingProcess(doppler, rng)
            amplitude = np.sqrt(db_to_linear(mean_snr))
            gains = amplitude * fading.symbol_gains(
                0.0, n_symbols, symbol_time)
            trajectory = snr_to_db(np.abs(gains) ** 2)
            out = backend.frame_outcome(rate_index, trajectory,
                                        payload_bits, rng)
            est.append(out.ber_est)
            tru.append(out.ber_true)
            snr.append(out.snr_db)
        estimates[label] = np.array(est)
        truths[label] = np.array(tru)
        snrs[label] = np.array(snr)
    return MobileBerData(doppler_hz=dict(dopplers), estimates=estimates,
                         truths=truths, snrs=snrs)

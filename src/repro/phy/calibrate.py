"""Calibrate the surrogate PHY backend against the full pipeline.

:func:`calibrate` sweeps the bit-exact transceiver over an SNR grid at
every rate and measures, per (rate, SNR) point:

* the realized post-decoder **BER** and the **frame-loss** fraction
  (frame errors near the waterfall are *bimodal* — the decoder either
  locks on or falls apart — so delivery is calibrated directly from
  the loss curve as a per-bit hazard, not derived from the mean BER);
* the BER of **errored frames** (conditional level and spread), which
  sets how wrong a failed frame looks;
* the BER-estimate distribution of **clean frames** (the estimator's
  noise floor — what lets SoftRate tell a 1e-9 channel from a 1e-4
  one without observing a single bit error) and the estimator's
  decade-level tracking noise on errored frames (Fig. 7a);
* the shape of the per-bit hint distribution (``log10 p_k`` moments),
  used to synthesize hint arrays;
* the preamble SNR estimator's bias and spread;
* the BER under an equal-power interferer (the collision response).

The result is a :class:`CalibrationTable`, stored as JSON under
``src/repro/phy/calibration/`` and loaded by
:class:`repro.phy.backend.SurrogatePhyBackend`.  Regenerate with::

    PYTHONPATH=src python -m repro calibrate \
        --output src/repro/phy/calibration/default.json

Tables are versioned (:data:`TABLE_VERSION`); loading a table written
by an incompatible calibrator fails loudly rather than mis-predicting.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.phy.snr import db_to_linear

__all__ = ["CalibrationTable", "calibrate", "TABLE_VERSION"]

#: Bump when the table schema or its semantics change.
TABLE_VERSION = 1

#: Floor applied to per-bit error probabilities before taking logs.
_LOG_P_FLOOR = 1e-12

#: Minimum decline (decades/dB) enforced when extrapolating a
#: waterfall past the last Monte-Carlo-measurable point.
_MIN_TAIL_SLOPE = -0.3


def _fill_nan(grid: np.ndarray, values: np.ndarray,
              fallback: float) -> np.ndarray:
    """Fill NaN holes by interpolation over the grid (clamped ends)."""
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.any():
        return np.full_like(values, fallback)
    return np.interp(grid, grid[finite], values[finite])


@dataclass
class CalibrationTable:
    """Measured full-PHY response surfaces on an SNR grid.

    All 2-D arrays are indexed ``[rate, snr_point]``.  Lookup methods
    interpolate linearly in dB (log-domain for BER/hazard) and clamp
    at the grid edges.  The five surfaces the surrogate reads for
    every frame are also stacked once per table into one
    ``(n_rates, 5, n_snr)`` array, which :meth:`surfaces_at` reads
    with a single grid search and gather.

    Attributes:
        snr_grid_db: the calibration SNR grid (dB), ascending.
        rate_names: provenance labels for the rate axis.
        ber: mean realized BER per (rate, SNR) — the waterfall curves
            validated against the golden fixtures.
        loss: frame-loss fraction per (rate, SNR) at the calibration
            frame size; source of the per-bit delivery hazard.
        errored_log_ber_arr / errored_log_ber_std_arr: mean / std of
            ``log10 BER`` over frames with at least one bit error.
        clean_log_est_arr / clean_log_est_std_arr: mean / std of
            ``log10`` of the frame BER estimate over *error-free*
            frames (the estimator's floor).
        log_p_mean_arr / log_p_std_arr: within-frame moments of
            ``log10 p_k`` over the hint-implied per-bit error
            probabilities (the hint distribution's shape).
        est_noise_decades: decade-level std of the estimator's error
            on errored frames, ``std(log10 est − log10 truth)``
            (Fig. 7a's tracking noise), pooled over the whole sweep.
        snr_bias_grid / snr_std_grid: preamble SNR estimator bias and
            spread (dB) per grid point, pooled over rates.
        interference_ber: mean realized BER under an equal-power
            interferer, per rate.
        meta: provenance (version, payload size, frames per point,
            seed, creation time, decoder variant).
    """

    snr_grid_db: np.ndarray
    rate_names: List[str]
    ber: np.ndarray
    loss: np.ndarray
    errored_log_ber_arr: np.ndarray
    errored_log_ber_std_arr: np.ndarray
    clean_log_est_arr: np.ndarray
    clean_log_est_std_arr: np.ndarray
    log_p_mean_arr: np.ndarray
    log_p_std_arr: np.ndarray
    est_noise_decades: float
    snr_bias_grid: np.ndarray
    snr_std_grid: np.ndarray
    interference_ber: np.ndarray
    meta: Dict = field(default_factory=dict)

    def __post_init__(self):
        self.snr_grid_db = np.asarray(self.snr_grid_db, dtype=np.float64)
        for name in ("ber", "loss", "errored_log_ber_arr",
                     "errored_log_ber_std_arr", "clean_log_est_arr",
                     "clean_log_est_std_arr", "log_p_mean_arr",
                     "log_p_std_arr"):
            setattr(self, name, np.asarray(getattr(self, name),
                                           dtype=np.float64))
        self.est_noise_decades = float(self.est_noise_decades)
        self.snr_bias_grid = np.asarray(self.snr_bias_grid,
                                        dtype=np.float64)
        self.snr_std_grid = np.asarray(self.snr_std_grid,
                                       dtype=np.float64)
        self.interference_ber = np.asarray(self.interference_ber,
                                           dtype=np.float64)
        grid = self.snr_grid_db
        self._errored_log_ber = np.stack(
            [_fill_nan(grid, row, -2.0)
             for row in self.errored_log_ber_arr])
        self._errored_log_ber_std = np.stack(
            [_fill_nan(grid, row, 0.3)
             for row in self.errored_log_ber_std_arr])
        self._clean_log_est = np.stack(
            [_fill_nan(grid, row, -6.0)
             for row in self.clean_log_est_arr])
        self._clean_log_est_std = np.stack(
            [_fill_nan(grid, row, 0.3)
             for row in self.clean_log_est_std_arr])
        self._log_q = self._extend_waterfalls()
        self._log_hazard = self._per_bit_hazard()
        self._interference_snr = {}
        # What surfaces_at reads: the interior grid points (one search
        # lands on the bracketing interval, clamped at both ends), the
        # interval widths, and the five per-frame surfaces stacked
        # (rate, surface, snr) so one gather serves all five.
        self._grid_inner = grid[1:-1].copy()
        self._grid_step = grid[1:] - grid[:-1]
        self._surfaces = np.ascontiguousarray(np.stack(
            [self._log_hazard, self._errored_log_ber,
             self._errored_log_ber_std, self._clean_log_est,
             self._clean_log_est_std], axis=1))
        for name in ("_grid_inner", "_grid_step", "_surfaces"):
            getattr(self, name).setflags(write=False)

    @property
    def n_rates(self) -> int:
        """Number of rates the table covers."""
        return self.ber.shape[0]

    @property
    def n_info_ref(self) -> int:
        """Information bits per calibration frame (payload + CRC-32)."""
        return int(self.meta.get("payload_bits", 1600)) + 32

    # -- waterfall preparation ----------------------------------------

    def _measurable_floor(self) -> float:
        """Smallest BER the calibration Monte Carlo could resolve."""
        frames = int(self.meta.get("frames_per_point", 1))
        return 2.0 / max(frames * self.n_info_ref, 1)

    def _extend_tail(self, logv: np.ndarray,
                     meas: np.ndarray) -> np.ndarray:
        """Continue a log-domain curve past its last measured point.

        Interpolates over the measurable indices ``meas``, then
        extends beyond the last one at the final measured slope (at
        least :data:`_MIN_TAIL_SLOPE` decades/dB), clamps at 1e-12,
        and forces the result monotone non-increasing in SNR.
        """
        grid = self.snr_grid_db
        log_meas = logv[meas]
        out = np.interp(grid, grid[meas], log_meas)
        last = meas[-1]
        if last < grid.size - 1:
            if meas.size >= 2:
                prev = meas[-2]
                slope = (log_meas[-1] - log_meas[-2]) \
                    / (grid[last] - grid[prev])
            else:
                slope = _MIN_TAIL_SLOPE
            slope = min(slope, _MIN_TAIL_SLOPE)
            out[last + 1:] = log_meas[-1] \
                + slope * (grid[last + 1:] - grid[last])
        return np.minimum.accumulate(np.maximum(out, -12.0))

    def _extend_waterfalls(self) -> np.ndarray:
        """Per-rate tail-extrapolated ``log10 BER`` over the grid."""
        floor = self._measurable_floor()
        out = np.empty_like(self.ber)
        for r in range(self.ber.shape[0]):
            meas = np.where(self.ber[r] >= floor)[0]
            if meas.size == 0:
                out[r] = -12.0
                continue
            logv = np.where(self.ber[r] > 0,
                            np.log10(np.maximum(self.ber[r], 1e-300)),
                            -12.0)
            out[r] = self._extend_tail(logv, meas)
        return out

    def _per_bit_hazard(self) -> np.ndarray:
        """Per-rate ``log10`` per-bit delivery hazard over the grid.

        The hazard λ is defined by ``P(frame loss) = 1 − exp(−λ·n)``
        at the calibration frame size, measured from the loss curve
        where it is resolvable and continued with the BER tail (for
        small λ the two coincide: ``loss ≈ n·λ``).
        """
        frames = int(self.meta.get("frames_per_point", 1))
        floor = 1.0 / max(frames, 1)
        n_ref = self.n_info_ref
        out = np.empty_like(self.loss)
        for r in range(self.loss.shape[0]):
            loss = np.clip(self.loss[r], 0.0, 1.0 - 1e-12)
            hazard = -np.log1p(-loss) / n_ref
            meas = np.where(self.loss[r] >= floor)[0]
            if meas.size == 0:
                out[r] = self._log_q[r]
                continue
            logv = np.where(hazard > 0,
                            np.log10(np.maximum(hazard, 1e-300)),
                            -12.0)
            extended = self._extend_tail(logv, meas)
            # Past the last measurable loss point, fall back to the
            # (steeper-informed) BER tail when it is lower.
            last = meas[-1]
            if last < extended.size - 1:
                tail = slice(last + 1, None)
                extended[tail] = np.minimum(extended[tail],
                                            np.maximum(
                                                self._log_q[r][tail],
                                                -12.0))
            out[r] = np.minimum.accumulate(extended)
        return out

    # -- lookups ------------------------------------------------------

    def surfaces_at(self, rate_index: int, snr_db: np.ndarray) -> np.ndarray:
        """The surrogate's five per-frame surfaces at 1-D SNR values.

        Returns a C-contiguous ``(5, n)`` block whose rows are, in
        order: ``log10`` of the per-bit hazard (:meth:`hazard`),
        errored-frame ``log10 BER`` mean and std, and clean-frame
        ``log10`` estimate mean and std.  One grid search and one pair
        of gathers serve all five, each value interpolated as
        ``row[i0] * (1 - frac) + row[i1] * frac`` between the grid
        points around it, ``frac`` clipped to ``[0, 1]`` so values
        past either grid end take that end's value (as ``np.interp``
        does).  Each row is contiguous, which keeps numpy's
        transcendental loops (``10.0 ** row``) on one code path.
        """
        x = np.asarray(snr_db, dtype=np.float64)
        i0 = self._grid_inner.searchsorted(x)
        frac = ((x - self.snr_grid_db[i0])
                / self._grid_step[i0]).clip(0.0, 1.0)
        block = self._surfaces[rate_index]
        out = block.take(i0, axis=1) * (1.0 - frac)
        out += block.take(i0 + 1, axis=1) * frac
        return out

    def bit_error_rate(self, rate_index: int, snr_db) -> np.ndarray:
        """Calibrated mean BER at the given SNR(s)."""
        logq = np.interp(np.asarray(snr_db, dtype=np.float64),
                         self.snr_grid_db, self._log_q[rate_index])
        return 10.0 ** logq

    def hazard(self, rate_index: int, snr_db) -> np.ndarray:
        """Calibrated per-bit delivery hazard at the given SNR(s)."""
        logh = np.interp(np.asarray(snr_db, dtype=np.float64),
                         self.snr_grid_db, self._log_hazard[rate_index])
        return 10.0 ** logh

    def log_p_mean(self, rate_index: int, snr_db) -> np.ndarray:
        """Within-frame mean of ``log10 p_k`` at the given SNR(s)."""
        return np.interp(snr_db, self.snr_grid_db,
                         self.log_p_mean_arr[rate_index])

    def log_p_std(self, rate_index: int, snr_db) -> np.ndarray:
        """Within-frame std of ``log10 p_k`` at the given SNR(s)."""
        return np.interp(snr_db, self.snr_grid_db,
                         self.log_p_std_arr[rate_index])

    def snr_bias(self, snr_db: float) -> float:
        """Preamble SNR estimator bias (dB) at the given channel SNR."""
        return float(np.interp(snr_db, self.snr_grid_db,
                               self.snr_bias_grid))

    def snr_std(self, snr_db: float) -> float:
        """Preamble SNR estimator spread (dB) at the given SNR."""
        return float(max(np.interp(snr_db, self.snr_grid_db,
                                   self.snr_std_grid), 1e-6))

    def interference_snr_db(self, rate_index: int) -> float:
        """SNR whose calibrated BER equals the interference BER.

        Remapping an interfered trajectory sample to this equivalent
        SNR makes every downstream lookup (delivery hazard, hints,
        estimate) consistent with the measured collision response.
        """
        if rate_index not in self._interference_snr:
            target = np.log10(max(float(
                self.interference_ber[rate_index]), _LOG_P_FLOOR))
            logq = self._log_q[rate_index]
            # logq is non-increasing in SNR; interp wants ascending x.
            snr = np.interp(target, logq[::-1], self.snr_grid_db[::-1])
            self._interference_snr[rate_index] = float(snr)
        return self._interference_snr[rate_index]

    # -- serialization ------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-ready representation (see :meth:`from_dict`).

        NaN holes (points where no errored / no clean frame was
        observed) are stored as ``null``.
        """
        def listify(arr):
            return [[None if not np.isfinite(v) else float(v)
                     for v in row] for row in arr]

        return {
            "meta": dict(self.meta, version=TABLE_VERSION),
            "snr_grid_db": self.snr_grid_db.tolist(),
            "rate_names": list(self.rate_names),
            "ber": self.ber.tolist(),
            "loss": self.loss.tolist(),
            "errored_log_ber": listify(self.errored_log_ber_arr),
            "errored_log_ber_std": listify(self.errored_log_ber_std_arr),
            "clean_log_est": listify(self.clean_log_est_arr),
            "clean_log_est_std": listify(self.clean_log_est_std_arr),
            "log_p_mean": self.log_p_mean_arr.tolist(),
            "log_p_std": self.log_p_std_arr.tolist(),
            "est_noise_decades": float(self.est_noise_decades),
            "snr_bias": self.snr_bias_grid.tolist(),
            "snr_std": self.snr_std_grid.tolist(),
            "interference_ber": self.interference_ber.tolist(),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CalibrationTable":
        """Rebuild a table from :meth:`to_dict` output.

        Raises:
            ValueError: the stored schema version is incompatible.
        """
        meta = dict(data.get("meta", {}))
        version = int(meta.get("version", -1))
        if version != TABLE_VERSION:
            raise ValueError(
                f"calibration table version {version} unsupported "
                f"(expected {TABLE_VERSION}); re-run `repro calibrate`")

        def arrify(rows):
            return np.array([[np.nan if v is None else float(v)
                              for v in row] for row in rows])

        return cls(snr_grid_db=data["snr_grid_db"],
                   rate_names=list(data["rate_names"]),
                   ber=data["ber"], loss=data["loss"],
                   errored_log_ber_arr=arrify(data["errored_log_ber"]),
                   errored_log_ber_std_arr=arrify(
                       data["errored_log_ber_std"]),
                   clean_log_est_arr=arrify(data["clean_log_est"]),
                   clean_log_est_std_arr=arrify(
                       data["clean_log_est_std"]),
                   log_p_mean_arr=data["log_p_mean"],
                   log_p_std_arr=data["log_p_std"],
                   est_noise_decades=data["est_noise_decades"],
                   snr_bias_grid=data["snr_bias"],
                   snr_std_grid=data["snr_std"],
                   interference_ber=data["interference_ber"],
                   meta=meta)

    def save(self, path: str) -> None:
        """Write the table as JSON."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "CalibrationTable":
        """Load a table saved with :meth:`save`."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def calibrate(phy=None,
              snr_grid_db: Optional[np.ndarray] = None,
              frames_per_point: int = 24,
              payload_bits: int = 1600,
              seed: int = 2009,
              interference_snr_db: float = 20.0,
              interference_frames: int = 16,
              progress: Optional[Callable[[str], None]] = None
              ) -> CalibrationTable:
    """Measure a :class:`CalibrationTable` from the full PHY.

    Sweeps every rate over ``snr_grid_db``, decoding
    ``frames_per_point`` independent AWGN realisations per point
    through the batched PHY, :data:`repro.phy.batch.FRAMES_PER_DECODE`
    frames per call (the table is bit-identical at any stack size),
    then measures the equal-power interference response at
    ``interference_snr_db``.

    Args:
        phy: the :class:`~repro.phy.transceiver.Transceiver` to
            calibrate against (a default one if omitted).
        snr_grid_db: calibration grid; default −2…26 dB in 1 dB steps,
            spanning every rate's waterfall.
        frames_per_point: Monte Carlo frames per (rate, SNR) point.
        payload_bits: payload size of the calibration frames.
        seed: RNG seed (the table records it for provenance).
        interference_snr_db: channel SNR of the interference probe.
        interference_frames: frames for the interference probe.
        progress: optional callback receiving one line per rate.

    Returns:
        The measured :class:`CalibrationTable`.

    Example::

        table = calibrate(frames_per_point=8, payload_bits=400)
        table.save("my_calibration.json")
    """
    from repro.channel.awgn import apply_channel, awgn
    from repro.core.hints import error_probabilities
    from repro.phy import batch
    from repro.phy.transceiver import Transceiver

    phy = phy if phy is not None else Transceiver()
    if snr_grid_db is None:
        snr_grid_db = np.arange(-2.0, 26.5, 1.0)
    snr_grid_db = np.asarray(snr_grid_db, dtype=np.float64)
    rng = np.random.default_rng(seed)
    rates = phy.rates
    n_rates, n_snr = len(rates), snr_grid_db.size
    payload = rng.integers(0, 2, payload_bits).astype(np.uint8)

    shape = (n_rates, n_snr)
    ber = np.zeros(shape)
    loss = np.zeros(shape)
    errored_log_ber = np.full(shape, np.nan)
    errored_log_ber_std = np.full(shape, np.nan)
    clean_log_est = np.full(shape, np.nan)
    clean_log_est_std = np.full(shape, np.nan)
    log_p_mean = np.zeros(shape)
    log_p_std = np.zeros(shape)
    est_deviations: List[float] = []
    snr_err_sum = np.zeros(n_snr)
    snr_err_sq = np.zeros(n_snr)
    snr_err_n = np.zeros(n_snr)
    interference_ber = np.zeros(n_rates)

    for r in range(n_rates):
        tx = phy.transmit(payload, rate_index=r)
        for s, snr_db in enumerate(snr_grid_db):
            noise_var = db_to_linear(-float(snr_db))
            bers, log_p_all = [], []
            err_logs, clean_logs = [], []
            done = 0
            while done < frames_per_point:
                chunk = min(batch.FRAMES_PER_DECODE,
                            frames_per_point - done)
                gains = np.ones((chunk, tx.layout.n_symbols),
                                dtype=complex)
                for rx in phy.run_batch(tx, gains, noise_var, rng):
                    bers.append(rx.true_ber)
                    p = error_probabilities(rx.hints)
                    log_p_all.append(
                        np.log10(np.clip(p, _LOG_P_FLOOR, 0.5)))
                    est = max(float(np.mean(p)), _LOG_P_FLOOR)
                    if rx.true_ber > 0:
                        err_logs.append(np.log10(rx.true_ber))
                        est_deviations.append(
                            np.log10(est) - np.log10(rx.true_ber))
                    else:
                        clean_logs.append(np.log10(est))
                    err = rx.snr_db - float(snr_db)
                    snr_err_sum[s] += err
                    snr_err_sq[s] += err * err
                    snr_err_n[s] += 1
                done += chunk
            ber[r, s] = float(np.mean(bers))
            loss[r, s] = float(np.mean([b > 0 for b in bers]))
            if err_logs:
                errored_log_ber[r, s] = float(np.mean(err_logs))
                errored_log_ber_std[r, s] = float(np.std(err_logs))
            if clean_logs:
                clean_log_est[r, s] = float(np.mean(clean_logs))
                clean_log_est_std[r, s] = float(np.std(clean_logs))
            pooled = np.concatenate(log_p_all)
            log_p_mean[r, s] = float(np.mean(pooled))
            log_p_std[r, s] = float(np.std(pooled))

        # Equal-power interference probe at a comfortably high SNR.
        noise_var = db_to_linear(-interference_snr_db)
        i_bers = []
        for _ in range(interference_frames):
            interference = awgn(tx.symbols.shape, 1.0, rng)
            rx_sym, gains = apply_channel(
                tx.symbols, np.ones(tx.layout.n_symbols, dtype=complex),
                noise_var, rng, interference=interference)
            rx = phy.receive(rx_sym, gains, tx.layout, tx_frame=tx)
            i_bers.append(rx.true_ber)
        interference_ber[r] = float(np.mean(i_bers))
        if progress is not None:
            progress(f"calibrated rate {r} ({rates[r].name}): "
                     f"interference BER {interference_ber[r]:.3g}")

    n = np.maximum(snr_err_n, 1.0)
    bias = snr_err_sum / n
    std = np.sqrt(np.maximum(snr_err_sq / n - bias ** 2, 0.0))
    est_noise = float(np.std(est_deviations)) if est_deviations else 0.1

    meta = {
        "version": TABLE_VERSION,
        "created": time.strftime("%Y-%m-%d %H:%M:%S"),
        "payload_bits": int(payload_bits),
        "frames_per_point": int(frames_per_point),
        "interference_snr_db": float(interference_snr_db),
        "interference_frames": int(interference_frames),
        "seed": int(seed),
        "decoder_variant": phy.decoder_variant,
        "mode": phy.mode.name,
    }
    return CalibrationTable(
        snr_grid_db=snr_grid_db, rate_names=rates.names(),
        ber=ber, loss=loss,
        errored_log_ber_arr=errored_log_ber,
        errored_log_ber_std_arr=errored_log_ber_std,
        clean_log_est_arr=clean_log_est,
        clean_log_est_std_arr=clean_log_est_std,
        log_p_mean_arr=log_p_mean, log_p_std_arr=log_p_std,
        est_noise_decades=est_noise,
        snr_bias_grid=bias, snr_std_grid=std,
        interference_ber=interference_ber, meta=meta)

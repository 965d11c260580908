"""Pluggable PHY backends: one contract, two ways to compute it.

Everything above the PHY consumes the same three facts about a frame —
was it delivered, what BER did the channel impose, and what SoftPHY
feedback (hints, BER estimate, SNR estimate) did the receiver extract.
This module decouples *what the PHY reports* from *how it is
computed*, the surrogate-model technique large-scale link simulators
use:

* :class:`FullPhyBackend` — the bit-exact path: every frame is OFDM-
  modulated, pushed through the channel, and BCJR-decoded by
  :class:`repro.phy.transceiver.Transceiver`.  Slow (tens to hundreds
  of milliseconds per frame) but ground truth.
* :class:`SurrogatePhyBackend` — a calibrated table-driven model
  mapping ``(rate, per-symbol SNR trajectory, interference mask)`` to
  a frame outcome plus synthetic SoftPHY hints.  Its tables are
  *measured from the full PHY* by :func:`repro.phy.calibrate.calibrate`
  (CLI: ``repro calibrate``), not derived analytically, so its BER
  waterfalls, estimator noise, and SNR-estimate error reproduce the
  full pipeline within the tolerances asserted by
  ``tests/validation/test_surrogate_fidelity.py``.  Three to four
  orders of magnitude faster — the backend for million-frame sweeps.

Both implement the :class:`PhyBackend` contract, selected everywhere
by name::

    from repro.phy.backend import get_backend

    backend = get_backend("surrogate")
    out = backend.frame_outcome(rate_index=3,
                                snr_db_per_symbol=np.full(16, 12.0),
                                n_payload_bits=1600,
                                rng=np.random.default_rng(1))
    out.delivered, out.ber_true, out.ber_est   # frame facts
    out.hints                                  # per-bit |LLR| array

The trace-driven simulator reaches the same contract through
:meth:`PhyBackend.observe`, which samples a link trace's true-SNR
trajectory over a frame's airtime and wraps the outcome as a
:class:`repro.traces.format.FrameObservation`.
"""

from __future__ import annotations

import abc
import weakref
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from repro.phy.rates import MODES, RATE_TABLE, OperatingMode, RateTable
from repro.phy.snr import db_to_linear

__all__ = ["PhyFrameOutcome", "PhyBackend", "FullPhyBackend",
           "SurrogatePhyBackend", "get_backend",
           "validate_backend_name", "UnknownBackendError",
           "BACKEND_NAMES", "DETECTION_SNR_DB"]

#: Preamble SNR (dB) below which the receiver cannot detect the frame
#: at all (silent loss).  BPSK-coded preamble correlation works a
#: couple of dB below the lowest data rate's threshold.
DETECTION_SNR_DB = -2.0

#: Names accepted by :func:`get_backend`.
BACKEND_NAMES = ("full", "surrogate")

#: Trace-sample points taken across a frame's airtime by
#: :meth:`PhyBackend.observe` (5 ms slots vs ~1 ms frames: a handful
#: of samples already captures every slot boundary a frame can cross).
_OBSERVE_SNR_SAMPLES = 8


class UnknownBackendError(ValueError):
    """A PHY backend was requested by a name nobody registered.

    Raised by :func:`get_backend`; the message lists the valid names so
    CLI users see their options immediately.
    """


@dataclass(frozen=True)
class PhyFrameOutcome:
    """Everything a PHY backend reports about one simulated frame.

    This is the backend-agnostic contract: the full PHY measures these
    fields from an actual decode, the surrogate synthesizes them from
    calibrated tables — consumers cannot (and must not) tell which.

    Attributes:
        detected: the receiver found the preamble; when False the
            frame is a *silent* loss (no feedback of any kind).
        delivered: every information bit decoded correctly (body
            CRC-32 would pass).
        ber_true: realized ground-truth BER over the frame's
            information bits (``n_bit_errors / n_info_bits``).
        ber_est: the BER estimate the SoftPHY receiver would feed
            back, i.e. :func:`repro.core.hints.frame_ber_estimate`
            over the hints.
        snr_db: the (noisy) preamble SNR estimate the receiver would
            report.
        n_bit_errors: number of wrong information bits.
        n_info_bits: information bits in the frame — the byte-aligned
            payload plus CRC-32 (:meth:`PhyBackend.aligned_payload_bits`).
        hints: per-bit SoftPHY hints (posterior-LLR magnitudes), or
            ``None`` when the caller asked to skip their synthesis
            (``need_hints=False``).
        error_mask: boolean array over the information bits marking
            the positions the channel flipped, or ``None`` unless the
            caller asked for it (``need_error_mask=True``).  Chunk
            consumers (PPR-style salvage, the rateless video decoder)
            use it to reconstruct what each chunk of a failed frame
            actually carried.
    """

    detected: bool
    delivered: bool
    ber_true: float
    ber_est: float
    snr_db: float
    n_bit_errors: int
    n_info_bits: int
    hints: Optional[np.ndarray] = None
    error_mask: Optional[np.ndarray] = None


class PhyBackend(abc.ABC):
    """Contract every PHY backend implements.

    A backend maps ``(rate, per-symbol SNR trajectory, interference
    mask)`` to a :class:`PhyFrameOutcome`.  The trajectory is sampled
    at any resolution the caller has (one value per OFDM symbol, per
    trace slot, or a single scalar for AWGN); backends spread the
    frame's bits evenly across the samples.

    Example::

        backend = get_backend("full")
        out = backend.frame_outcome(3, np.full(8, 10.0), 1600,
                                    np.random.default_rng(0))
        assert out.n_info_bits == 1600 + 32
    """

    #: Registry name (``"full"`` / ``"surrogate"``).
    name = "abstract"

    def __init__(self, rates: Optional[RateTable] = None,
                 mode: Union[str, OperatingMode] = "simulation"):
        """Bind the backend to a rate table and OFDM operating mode.

        Args:
            rates: available bit rates (the paper's six-rate prototype
                subset by default).
            mode: OFDM operating mode name or instance; sets symbol
                time and subcarrier count for airtime computations.
        """
        self.rates = rates if rates is not None \
            else RATE_TABLE.prototype_subset()
        self.mode = mode if isinstance(mode, OperatingMode) \
            else MODES[mode]
        #: Transceiver used for frame-geometry arithmetic only
        #: (lazily built; FullPhyBackend reuses its decode pipeline).
        self._layout_phy = None
        self._airtime_cache = {}
        #: trace objects already validated by :meth:`observe`.  Weak
        #: references, not ids: CPython reuses a freed object's id, and
        #: a new trace must not inherit a dead one's validation.
        self._validated_traces = weakref.WeakSet()
        #: per-airtime sample-offset arrays for :meth:`observe`.
        self._offsets_cache: dict = {}

    def __getstate__(self):
        # Weak references do not pickle; a copy starts with no trace
        # validated, which only costs it one check per trace.
        state = self.__dict__.copy()
        del state["_validated_traces"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._validated_traces = weakref.WeakSet()

    @abc.abstractmethod
    def frame_outcome(self, rate_index: int,
                      snr_db_per_symbol: np.ndarray,
                      n_payload_bits: int, rng: np.random.Generator,
                      interference_mask: Optional[np.ndarray] = None,
                      need_hints: bool = True,
                      need_error_mask: bool = False) -> PhyFrameOutcome:
        """Simulate one frame against a per-symbol SNR trajectory.

        Args:
            rate_index: index into this backend's rate table.
            snr_db_per_symbol: channel SNR trajectory in dB across the
                frame's airtime, at any sampling resolution (a scalar
                array of length 1 means a flat channel).
            n_payload_bits: payload size, rounded up to a whole number
                of bytes as the MAC does; the frame carries the
                aligned size plus 32 CRC bits of information
                (:meth:`aligned_payload_bits`).
            rng: random source (noise realisations / outcome draws).
            interference_mask: optional boolean array aligned with the
                trajectory; ``True`` samples see an equal-power
                interferer on top of the channel (a collision
                overlapping that part of the frame).
            need_hints: set False to skip synthesizing/collecting the
                per-bit hints array when only the scalar outcome is
                needed (a throughput win for the surrogate).
            need_error_mask: set True to also report the per-bit error
                positions (``PhyFrameOutcome.error_mask``).  Off by
                default — the surrogate draws error positions *after*
                every pre-existing draw, so leaving this off keeps its
                random stream (and every golden that depends on it)
                bit-identical to before the field existed.

        Returns:
            A :class:`PhyFrameOutcome`.

        Raises:
            ValueError: the trajectory is empty, or a sample is NaN or
                ``+inf`` (``-inf``, no signal, is valid); raised before
                anything is drawn from ``rng``.
        """

    @staticmethod
    def _trajectory(snr_db_per_symbol) -> np.ndarray:
        """The SNR trajectory as a float array of at least one sample.

        ``-inf`` (no signal at all) is a valid sample.  NaN and
        ``+inf`` are not: raise ``ValueError`` naming the first one,
        before the caller draws anything from its generator.
        """
        trajectory = np.atleast_1d(
            np.asarray(snr_db_per_symbol, dtype=np.float64))
        if trajectory.size == 0:
            raise ValueError("the SNR trajectory has no samples")
        if not trajectory.max() < np.inf:      # NaN or +inf somewhere
            first = int(np.argmin(trajectory.ravel() < np.inf))
            raise ValueError(
                f"SNR sample {first} is {trajectory.flat[first]}; samples "
                "must be finite dB values, or -inf for no signal")
        return trajectory

    @staticmethod
    def aligned_payload_bits(n_payload_bits: int) -> int:
        """Payload size rounded up to whole bytes (min one byte).

        Link-layer payloads are byte-aligned; both backends apply the
        same rounding so their ``n_info_bits`` agree for any input.
        """
        return max(-(-int(n_payload_bits) // 8) * 8, 8)

    def _geometry(self):
        """Transceiver for frame-layout arithmetic (no decoding)."""
        if self._layout_phy is None:
            from repro.phy.transceiver import Transceiver
            self._layout_phy = Transceiver(mode=self.mode,
                                           rates=self.rates)
        return self._layout_phy

    def frame_airtime(self, n_payload_bits: int, rate_index: int) -> float:
        """Frame duration in seconds, full geometry — preamble,
        base-rate header, body, postamble — matching the airtime the
        MAC schedules (:func:`repro.sim.topology.make_airtime_fn`).

        Used by :meth:`observe` to know how much of the trace's SNR
        trajectory one frame spans; a body-only window would hide
        tail fades of frames crossing a slot boundary.
        """
        key = (self.aligned_payload_bits(n_payload_bits),
               int(rate_index))
        if key not in self._airtime_cache:
            self._airtime_cache[key] = self._geometry().frame_airtime(
                key[0], key[1])
        return self._airtime_cache[key]

    def observe(self, trace, time: float, rate_index: int,
                n_payload_bits: int, rng: np.random.Generator):
        """Recompute a trace-driven frame fate through this backend.

        Samples the trace's *true* SNR trajectory (falling back to the
        recorded estimate for traces that predate the field) across
        the frame's airtime, runs :meth:`frame_outcome`, and wraps the
        result as a :class:`repro.traces.format.FrameObservation` —
        the exact record :meth:`repro.traces.format.LinkTrace.observe`
        would have produced from precomputed columns.

        Args:
            trace: the :class:`~repro.traces.format.LinkTrace`
                modelling the link.
            time: transmission start time in seconds.
            rate_index: transmit rate.
            n_payload_bits: link-layer payload size in bits.
            rng: random source for the outcome draws.

        Returns:
            A :class:`~repro.traces.format.FrameObservation`.
        """
        from repro.traces.format import FrameObservation

        # A contention run observes thousands of frames against a
        # handful of traces: validate each trace object once.
        if trace not in self._validated_traces:
            if trace.n_rates != len(self.rates):
                raise ValueError(
                    f"trace has {trace.n_rates} rates but the backend's "
                    f"rate table has {len(self.rates)}; construct the "
                    "backend with the simulation's rate table "
                    "(get_backend(name, rates=...))")
            names = list(getattr(trace, "rate_names", None) or [])
            placeholders = [f"rate{i}" for i in range(trace.n_rates)]
            if names and names != placeholders \
                    and names != self.rates.names():
                raise ValueError(
                    f"trace rates {names} do not match the backend's "
                    f"{self.rates.names()}; construct the backend with "
                    "the simulation's rate table "
                    "(get_backend(name, rates=...))")
            self._validated_traces.add(trace)
        airtime = self.frame_airtime(n_payload_bits, rate_index)
        offsets = self._offsets_cache.get(airtime)
        if offsets is None:
            offsets = np.linspace(0.0, airtime, _OBSERVE_SNR_SAMPLES)
            self._offsets_cache[airtime] = offsets
        times = time + offsets
        # Vectorized trace.slot_at (truncation matches int() for the
        # non-negative times the MAC produces).
        slots = (times / trace.slot_duration).astype(np.int64) \
            % trace.n_slots
        source = trace.true_snr_db if trace.true_snr_db is not None \
            else trace.snr_db
        trajectory = np.asarray(source, dtype=np.float64)[slots]
        out = self.frame_outcome(rate_index, trajectory, n_payload_bits,
                                 rng, need_hints=False)
        return FrameObservation(
            detected=out.detected,
            delivered=out.detected and out.delivered,
            ber_true=out.ber_true, ber_est=out.ber_est,
            snr_db=out.snr_db, slot=int(slots[0]))


class FullPhyBackend(PhyBackend):
    """The bit-exact backend: every frame really goes through the PHY.

    Each :meth:`frame_outcome` call modulates a cached frame, applies
    per-symbol channel gains (and an equal-power interferer over any
    masked symbols), adds unit-variance AWGN, and runs the full soft
    (BCJR) receive pipeline.  Ground truth for everything the
    surrogate is calibrated against.

    Example::

        backend = FullPhyBackend()
        out = backend.frame_outcome(0, np.array([20.0]), 256,
                                    np.random.default_rng(0))
        assert out.delivered and out.n_bit_errors == 0

    Args:
        transceiver: the PHY pipeline to use (a default
            :class:`~repro.phy.transceiver.Transceiver` if omitted).
        payload_seed: seed of the deterministic per-(size, rate)
            payload cache, so outcomes are reproducible across runs.
    """

    name = "full"

    def __init__(self, transceiver=None, payload_seed: int = 2009):
        from repro.phy.transceiver import Transceiver

        self.phy = transceiver if transceiver is not None \
            else Transceiver()
        super().__init__(rates=self.phy.rates, mode=self.phy.mode)
        self._layout_phy = self.phy
        self._payload_seed = payload_seed
        self._tx_cache = {}

    def _tx_frame(self, n_payload_bits: int, rate_index: int):
        """A cached transmitted frame for this (size, rate) pair."""
        padded = self.aligned_payload_bits(n_payload_bits)
        key = (padded, int(rate_index))
        if key not in self._tx_cache:
            rng = np.random.default_rng(
                (self._payload_seed, padded, rate_index))
            payload = rng.integers(0, 2, padded).astype(np.uint8)
            self._tx_cache[key] = self.phy.transmit(
                payload, rate_index=rate_index)
        return self._tx_cache[key]

    def frame_outcome(self, rate_index: int,
                      snr_db_per_symbol: np.ndarray,
                      n_payload_bits: int, rng: np.random.Generator,
                      interference_mask: Optional[np.ndarray] = None,
                      need_hints: bool = True,
                      need_error_mask: bool = False) -> PhyFrameOutcome:
        """Transmit, propagate, and BCJR-decode one real frame.

        See :meth:`PhyBackend.frame_outcome` for the argument
        contract.  The trajectory is linearly interpolated onto the
        frame's OFDM symbols; masked samples receive an additional
        complex-Gaussian interferer at the local signal power.
        """
        from repro.channel.awgn import apply_channel
        from repro.core.hints import frame_ber_estimate

        trajectory = self._trajectory(snr_db_per_symbol)
        tx = self._tx_frame(n_payload_bits, rate_index)
        n_symbols = tx.layout.n_symbols
        position = np.linspace(0.0, 1.0, n_symbols)
        sample_pos = np.linspace(0.0, 1.0, trajectory.size)
        snr_syms = np.interp(position, sample_pos, trajectory)
        gains = np.sqrt(db_to_linear(snr_syms)).astype(np.complex128)

        interference = None
        if interference_mask is not None:
            mask = np.interp(position, sample_pos,
                             np.asarray(interference_mask,
                                        dtype=np.float64)) >= 0.5
            if mask.any():
                power = np.where(mask, np.abs(gains) ** 2, 0.0)
                scale = np.sqrt(power / 2.0)[:, None]
                shape = (n_symbols, tx.layout.n_subcarriers)
                interference = scale * (
                    rng.normal(size=shape) + 1j * rng.normal(size=shape))

        rx_symbols, gains = apply_channel(tx.symbols, gains, 1.0, rng,
                                          interference=interference)
        rx = self.phy.receive(rx_symbols, gains, tx.layout, tx_frame=tx)
        detected = bool(rx.snr_db >= DETECTION_SNR_DB)
        n_info = int(tx.body_info_bits.size)
        return PhyFrameOutcome(
            detected=detected,
            delivered=detected and bool(rx.crc_ok),
            ber_true=float(rx.true_ber),
            ber_est=float(frame_ber_estimate(rx.hints)),
            snr_db=float(rx.snr_db),
            n_bit_errors=int(rx.error_mask.sum()),
            n_info_bits=n_info,
            hints=rx.hints if need_hints else None,
            error_mask=rx.error_mask.astype(bool)
            if need_error_mask else None)


class _Segments(NamedTuple):
    """How one frame's information bits spread over its SNR samples."""

    #: bits per kept sample (every entry > 0), int64.
    bits: np.ndarray
    #: ``bits`` as float64, the weights of the frame-level averages.
    bits_f: np.ndarray
    #: their float64 total, summed as ``np.average`` sums its weights.
    bits_sum: np.float64
    #: samples that carry at least one bit, or ``None`` when all do.
    keep: Optional[np.ndarray]
    #: index of each kept segment's first bit.
    starts: np.ndarray


class SurrogatePhyBackend(PhyBackend):
    """Calibrated table-driven stand-in for the full PHY.

    Works entirely from a
    :class:`~repro.phy.calibrate.CalibrationTable` measured on the
    full pipeline: per-rate BER waterfalls, a per-bit delivery hazard
    from the measured frame-loss curves, errored-frame BER levels,
    the estimator's clean-frame floor and decade noise, hint-shape
    statistics, SNR-estimator noise, and the equal-power-interference
    BER.  Per frame it interpolates those surfaces along the SNR
    trajectory, draws segment failures and realized bit errors, and
    synthesizes hints — so delivery, ground truth, and the SoftPHY
    feedback all behave like the full pipeline's, including the
    estimator floor on error-free frames and high reported BER on
    failed ones.

    A frame's five calibrated surfaces (log hazard, errored log-BER
    mean and std, clean log-estimate mean and std) come from one fused
    :meth:`~repro.phy.calibrate.CalibrationTable.surfaces_at` lookup,
    and its bit split across the samples is cached per
    ``(information bits, samples)``.  Without hints a frame costs
    30-60 µs (replayed campaign frames, 2-vCPU x86-64 host, numpy 2.4;
    the upper end on numpy's baseline loops).

    Example::

        from repro.phy.calibration import default_table

        backend = SurrogatePhyBackend(default_table())
        out = backend.frame_outcome(3, np.full(16, 6.0), 1600,
                                    np.random.default_rng(0))
        # out.hints feed the same estimators as real SoftPHY hints.

    Args:
        table: the calibration table (``default_table()`` loads the
            checked-in one generated by ``repro calibrate``).
        rates: rate table; defaults to the table's provenance set.
        mode: OFDM operating mode for airtime computations.
    """

    name = "surrogate"

    def __init__(self, table=None, rates: Optional[RateTable] = None,
                 mode: Union[str, OperatingMode] = "simulation"):
        if table is None:
            from repro.phy.calibration import default_table
            table = default_table()
        super().__init__(rates=rates, mode=mode)
        if len(self.rates) != table.n_rates:
            raise ValueError(
                f"calibration table covers {table.n_rates} rates but "
                f"the rate table has {len(self.rates)}")
        self.table = table
        #: per-(n_info, n_samples) bit splits (pure function).
        self._segment_cache: dict = {}

    def _segments(self, n_info: int, n_samples: int) -> _Segments:
        """Spread ``n_info`` bits near-evenly over trajectory samples.

        Trajectories finer than one bit per sample leave zero-bit
        samples; they carry nothing and would break the segment
        bookkeeping, so ``keep`` drops them.  Arrays are read-only
        (shared by every frame of the same shape).
        """
        key = (n_info, n_samples)
        seg = self._segment_cache.get(key)
        if seg is None:
            edges = np.round(np.linspace(0, n_info, n_samples + 1))
            bits = np.diff(edges).astype(np.int64)
            keep = bits > 0
            if keep.all():
                keep = None
            else:
                bits = bits[keep]
            seg = _Segments(
                bits=bits, bits_f=bits.astype(np.float64),
                bits_sum=bits.sum(dtype=np.float64), keep=keep,
                starts=np.concatenate(([0], np.cumsum(bits)[:-1])))
            for arr in (seg.bits, seg.bits_f, seg.keep, seg.starts):
                if arr is not None:
                    arr.setflags(write=False)
            self._segment_cache[key] = seg
        return seg

    def frame_outcome(self, rate_index: int,
                      snr_db_per_symbol: np.ndarray,
                      n_payload_bits: int, rng: np.random.Generator,
                      interference_mask: Optional[np.ndarray] = None,
                      need_hints: bool = True,
                      need_error_mask: bool = False) -> PhyFrameOutcome:
        """Synthesize one frame outcome from the calibration tables.

        See :meth:`PhyBackend.frame_outcome` for the argument
        contract.  Masked trajectory samples are remapped to the SNR
        whose calibrated BER equals the measured equal-power-
        interference BER, so interference degrades hints and delivery
        exactly as a real collision segment would.

        The outcome model mirrors the bimodality of a real decoder:
        each trajectory segment independently *fails* with the
        calibrated per-bit hazard (near the waterfall a frame either
        decodes cleanly or falls apart — delivery cannot be derived
        from the mean BER); failed segments then realize a BER drawn
        from the calibrated errored-frame distribution.  The BER
        estimate tracks the realized BER with the calibrated Fig.-7a
        decade noise on errored frames, and sits at the calibrated
        estimator floor on clean frames.

        Raises:
            ValueError: as :meth:`PhyBackend.frame_outcome`, or the mask
                does not match the trajectory (before any draw).
        """
        table = self.table
        trajectory = self._trajectory(snr_db_per_symbol)
        effective = trajectory
        if interference_mask is not None:
            mask = np.atleast_1d(np.asarray(interference_mask,
                                            dtype=bool))
            if mask.shape != trajectory.shape:
                raise ValueError(
                    "interference mask must match the SNR trajectory")
            if mask.any():
                effective = trajectory.copy()
                effective[mask] = table.interference_snr_db(rate_index)

        n_info = self.aligned_payload_bits(n_payload_bits) + 32
        seg = self._segments(n_info, effective.size)
        bits = seg.bits
        if seg.keep is not None:
            effective = effective[seg.keep]

        # One lookup serves every surface below; the per-frame cost
        # of this path is what campaign throughput rides on.
        (log_hazard, errored_log_ber, errored_log_ber_std,
         clean_log_est, clean_log_est_std) = table.surfaces_at(
             rate_index, effective)

        # Segment failures from the calibrated per-bit hazard.
        lam = 10.0 ** log_hazard
        p_fail = -np.expm1(-lam * seg.bits_f)
        failed = rng.random(effective.size) < p_fail
        any_failed = bool(failed.any())

        n_errors = 0
        if any_failed:
            seg_log_ber = rng.normal(
                errored_log_ber, np.maximum(errored_log_ber_std, 1e-6))
            seg_ber = np.minimum(10.0 ** seg_log_ber, 0.5)
            draw = rng.binomial(bits, np.where(failed, seg_ber, 0.0))
            errors = np.where(failed, np.maximum(draw, 1), 0)
            n_errors = int(errors.sum())

        first = trajectory[0]
        snr_est = float(first + table.snr_bias(first)
                        + rng.normal(0.0, table.snr_std(first)))
        # Detection gates on the *estimated* preamble SNR, exactly as
        # the full backend's receiver does.
        detected = bool(snr_est >= DETECTION_SNR_DB)

        # Per-segment estimator level: realized BER for failed
        # segments (the estimator tracks the channel, Fig. 7a), the
        # calibrated clean-frame floor otherwise; one frame-level
        # decade-noise factor on top.
        clean_level = 10.0 ** clean_log_est
        if any_failed:
            level = np.where(
                failed, np.maximum(errors / seg.bits_f, 1e-12),
                clean_level)
            sigma = table.est_noise_decades
        else:
            level = clean_level
            # np.mean's sum-then-divide, without its wrapper.
            sigma = float(clean_log_est_std.sum()
                          / clean_log_est_std.size)
        noise = 10.0 ** rng.normal(0.0, max(sigma, 1e-6))
        level = np.minimum(level * noise, 0.5)

        hints = None
        if need_hints:
            mu = table.log_p_mean(rate_index, effective)
            shape_sigma = np.maximum(
                table.log_p_std(rate_index, effective), 1e-6)
            log_p = rng.normal(np.repeat(mu, bits),
                               np.repeat(shape_sigma, bits))
            p = 10.0 ** np.clip(log_p, -12.0, np.log10(0.5))
            # Rescale each segment's mean p onto its target level so
            # the hint *pattern* carries the trajectory (what the
            # interference detector and PPR consume).
            means = np.add.reduceat(p, seg.starts) / seg.bits_f
            scale = np.where(means > 0,
                             level / np.maximum(means, 1e-300), 1.0)
            p = np.clip(p * np.repeat(scale, bits), 1e-12, 0.5)
            hints = np.log1p(-p) - np.log(p)      # |LLR| = ln((1-p)/p)
            ber_est = float(np.mean(p))
        else:
            # np.average(level, weights=bits), without its wrapper.
            ber_est = float((level * seg.bits_f).sum() / seg.bits_sum)
        ber_est = min(ber_est, 0.5)

        error_mask = None
        if need_error_mask:
            # Scatter each failed segment's realized errors over its
            # bit range.  These draws happen after every pre-existing
            # draw, so the stream consumed by need_error_mask=False
            # callers (and the goldens built on it) is untouched.
            error_mask = np.zeros(n_info, dtype=bool)
            if any_failed:
                for s in np.flatnonzero(errors):
                    pos = rng.choice(int(bits[s]), int(errors[s]),
                                     replace=False)
                    error_mask[seg.starts[s] + pos] = True

        return PhyFrameOutcome(
            detected=detected,
            delivered=detected and n_errors == 0,
            ber_true=n_errors / n_info,
            ber_est=ber_est, snr_db=snr_est,
            n_bit_errors=n_errors, n_info_bits=n_info, hints=hints,
            error_mask=error_mask)


def validate_backend_name(name: str) -> str:
    """Check a backend *name* without building the backend.

    Used by call sites that accept the name long before resolving it
    (e.g. :class:`repro.experiments.api.Runner`), so typos fail at
    configuration time with the same message :func:`get_backend`
    would produce.

    Returns:
        The validated name, unchanged.

    Raises:
        UnknownBackendError: ``name`` names no known backend.

    Example::

        validate_backend_name("surrogate")      # "surrogate"
    """
    if name not in BACKEND_NAMES:
        raise UnknownBackendError(
            f"unknown PHY backend {name!r}; available: "
            f"{list(BACKEND_NAMES)}")
    return name


def get_backend(spec, rates: Optional[RateTable] = None,
                mode: Union[str, OperatingMode] = "simulation"
                ) -> PhyBackend:
    """Resolve a backend name (or pass through an instance).

    Args:
        spec: ``"full"``, ``"surrogate"``, or an existing
            :class:`PhyBackend` (returned unchanged, so call sites can
            accept either form).
        rates: rate table for a newly built backend.
        mode: OFDM operating mode for a newly built backend.

    Returns:
        A ready-to-use :class:`PhyBackend`.

    Raises:
        UnknownBackendError: ``spec`` names no known backend; the
            message lists the valid names.

    Example::

        get_backend("surrogate").name          # "surrogate"
        get_backend(FullPhyBackend()).name     # "full" (pass-through)
    """
    if isinstance(spec, PhyBackend):
        return spec
    validate_backend_name(spec)
    if spec == "full":
        from repro.phy.transceiver import Transceiver
        phy = Transceiver(mode=mode) if rates is None \
            else Transceiver(mode=mode, rates=rates)
        return FullPhyBackend(phy)
    return SurrogatePhyBackend(rates=rates, mode=mode)

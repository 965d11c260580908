"""The link trace container used by the trace-driven simulator.

A :class:`LinkTrace` captures one unidirectional wireless link: for
each time slot and each available bit rate it records the fate a frame
sent then would meet — exactly the role of the paper's software-radio
packet traces in its ns-3 evaluation (section 6.1).

Consistency across rates is guaranteed by construction: all rates are
evaluated against the *same* fading realisation, mirroring the paper's
round-robin trace collection ("the channel is fairly invariant across
all the bit rates in a 5 ms snapshot").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.mix import uniform01

__all__ = ["FrameObservation", "LinkTrace"]


@dataclass(frozen=True)
class FrameObservation:
    """What happens to one frame sent at a given time and rate.

    Attributes:
        detected: the receiver found the preamble (if False, the frame
            is a *silent loss* — no feedback of any kind).
        delivered: all info bits correct (body CRC would pass).
        ber_true: ground-truth channel BER for the frame.
        ber_est: the BER estimate the SoftPHY receiver would feed back.
        snr_db: the preamble SNR estimate the receiver would report.
        slot: the trace slot index that produced this observation.
    """

    detected: bool
    delivered: bool
    ber_true: float
    ber_est: float
    snr_db: float
    slot: int


class LinkTrace:
    """Per-slot, per-rate channel state of one unidirectional link.

    Args:
        slot_duration: seconds per trace slot (5 ms by default,
            matching the paper's cross-rate consistency window).
        snr_db: array ``(n_slots,)`` — preamble SNR estimate per slot.
        detected: bool array ``(n_slots,)`` — preamble detectable.
        ber_true: array ``(n_rates, n_slots)`` — ground-truth BER.
        ber_est: array ``(n_rates, n_slots)`` — SoftPHY BER estimate.
        delivered: bool array ``(n_rates, n_slots)`` — frame success.
        rate_names: labels for the rate axis (for provenance).
        true_snr_db: optional array ``(n_slots,)`` — the *noiseless*
            instantaneous channel SNR per slot.  Pluggable PHY
            backends (:mod:`repro.phy.backend`) recompute frame fates
            from this trajectory instead of the precomputed columns;
            traces without it fall back to the noisy ``snr_db``
            estimate.

    Every float column and ``slot_duration`` must be finite, and
    ``loss_prob`` must lie in [0, 1]; a bad column raises
    ``ValueError`` naming it.

    Lookups past the end of the trace wrap around, so a short trace can
    drive an arbitrarily long simulation (the standard trace-driven
    simulation convention).
    """

    def __init__(self, slot_duration: float, snr_db: np.ndarray,
                 detected: np.ndarray, ber_true: np.ndarray,
                 ber_est: np.ndarray, delivered: np.ndarray,
                 rate_names: Optional[List[str]] = None,
                 loss_prob: Optional[np.ndarray] = None,
                 true_snr_db: Optional[np.ndarray] = None):
        if not 0 < slot_duration < np.inf:
            raise ValueError(f"slot_duration must be positive and "
                             f"finite, got {slot_duration!r}")
        snr_db = np.asarray(snr_db, dtype=np.float64)
        detected = np.asarray(detected, dtype=bool)
        ber_true = np.asarray(ber_true, dtype=np.float64)
        ber_est = np.asarray(ber_est, dtype=np.float64)
        delivered = np.asarray(delivered, dtype=bool)
        n_rates, n_slots = ber_true.shape
        if n_slots == 0:
            raise ValueError("trace must have at least one slot")
        if loss_prob is None:
            # Degenerate traces (synthetic): the slot outcome is the
            # outcome of every attempt in the slot.
            loss_prob = 1.0 - delivered.astype(np.float64)
        loss_prob = np.asarray(loss_prob, dtype=np.float64)
        if true_snr_db is not None:
            true_snr_db = np.asarray(true_snr_db, dtype=np.float64)
        checks = [
            ("snr_db", snr_db, (n_slots,)),
            ("detected", detected, (n_slots,)),
            ("ber_est", ber_est, (n_rates, n_slots)),
            ("delivered", delivered, (n_rates, n_slots)),
            ("loss_prob", loss_prob, (n_rates, n_slots)),
        ]
        if true_snr_db is not None:
            checks.append(("true_snr_db", true_snr_db, (n_slots,)))
        for name, arr, shape in checks:
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, "
                                 f"expected {shape}")
        for name, arr in (("snr_db", snr_db), ("true_snr_db", true_snr_db),
                          ("ber_true", ber_true), ("ber_est", ber_est),
                          ("loss_prob", loss_prob)):
            if arr is not None and not np.isfinite(arr).all():
                raise ValueError(f"{name} holds non-finite values")
        if np.any((loss_prob < 0) | (loss_prob > 1)):
            raise ValueError("loss probabilities must lie in [0, 1]")
        self.slot_duration = slot_duration
        self.snr_db = snr_db
        self.detected = detected
        self.ber_true = ber_true
        self.ber_est = ber_est
        self.delivered = delivered
        self.loss_prob = loss_prob
        self.true_snr_db = true_snr_db
        self.rate_names = rate_names or [f"rate{i}" for i in range(n_rates)]

    def read_only(self) -> "LinkTrace":
        """Make every array of this trace non-writeable; returns it.

        For traces handed to many users, such as the campaign cell's
        trace pool: a write then raises instead of changing what the
        other users see.
        """
        for arr in (self.snr_db, self.detected, self.ber_true,
                    self.ber_est, self.delivered, self.loss_prob,
                    self.true_snr_db):
            if arr is not None:
                arr.flags.writeable = False
        return self

    @property
    def n_rates(self) -> int:
        return self.ber_true.shape[0]

    @property
    def n_slots(self) -> int:
        return self.ber_true.shape[1]

    @property
    def duration(self) -> float:
        """Length of the trace in seconds."""
        return self.n_slots * self.slot_duration

    def slot_at(self, time: float) -> int:
        """The slot index covering ``time`` (wrapping at the end)."""
        if time < 0:
            raise ValueError("time must be non-negative")
        return int(time / self.slot_duration) % self.n_slots

    def observe(self, time: float, rate_index: int) -> FrameObservation:
        """The fate of a frame sent at ``time`` at ``rate_index``.

        The delivery outcome is a fresh (but deterministic) draw from
        the slot's loss probability, keyed by the exact transmission
        time: two attempts in the same 5 ms slot are distinct channel
        realisations, so a retransmission is not doomed to repeat its
        predecessor's fate.  The same (time, rate) always returns the
        same outcome, keeping simulations reproducible.
        """
        if not 0 <= rate_index < self.n_rates:
            raise ValueError(f"rate index {rate_index} outside trace "
                             f"({self.n_rates} rates)")
        slot = self.slot_at(time)
        detected = bool(self.detected[slot])
        loss_p = float(self.loss_prob[rate_index, slot])
        if loss_p <= 0.0:
            delivered = True
        elif loss_p >= 1.0:
            delivered = False
        else:
            # Keyed deterministic draw on (slot, rate, 100 ns-quantised
            # time) — a hash, not a Generator, as this is a per-frame
            # hot path (see repro.core.mix).
            draw = uniform01(slot, rate_index, int(round(time * 1e7)))
            delivered = draw >= loss_p
        return FrameObservation(
            detected=detected,
            delivered=detected and delivered,
            ber_true=float(self.ber_true[rate_index, slot]),
            ber_est=float(self.ber_est[rate_index, slot]),
            snr_db=float(self.snr_db[slot]),
            slot=slot)

    def best_rate_at(self, time: float) -> Optional[int]:
        """Omniscient choice: the highest rate delivered in this slot.

        Returns ``None`` when no rate gets through (the omniscient
        sender would defer).
        """
        slot = self.slot_at(time)
        if not self.detected[slot]:
            return None
        winners = np.where(self.delivered[:, slot])[0]
        if winners.size == 0:
            return None
        return int(winners.max())

    def save(self, path) -> None:
        """Persist to an ``.npz`` file."""
        arrays = dict(
            slot_duration=self.slot_duration, snr_db=self.snr_db,
            detected=self.detected, ber_true=self.ber_true,
            ber_est=self.ber_est, delivered=self.delivered,
            loss_prob=self.loss_prob,
            rate_names=np.array(self.rate_names))
        if self.true_snr_db is not None:
            arrays["true_snr_db"] = self.true_snr_db
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path) -> "LinkTrace":
        """Load a trace saved with :meth:`save`.

        Traces written before the ``true_snr_db`` column existed load
        fine — the field simply stays ``None``.
        """
        with np.load(path) as data:
            true_snr = data["true_snr_db"] \
                if "true_snr_db" in data.files else None
            return cls(slot_duration=float(data["slot_duration"]),
                       snr_db=data["snr_db"], detected=data["detected"],
                       ber_true=data["ber_true"], ber_est=data["ber_est"],
                       delivered=data["delivered"],
                       loss_prob=data["loss_prob"],
                       rate_names=[str(n) for n in data["rate_names"]],
                       true_snr_db=true_snr)

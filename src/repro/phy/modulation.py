"""Gray-mapped constellations and soft demapping to coded-bit LLRs.

Implements the four modulations of the 802.11a/g rate table — BPSK,
QPSK, 16-QAM, and 64-QAM — with the standard per-axis Gray labelling
and unit average symbol energy.

The demapper produces, for every coded bit, the channel LLR

    L = log P(y | c = 1) - log P(y | c = 0)

by marginalising over the constellation points consistent with each bit
value, given the (known) complex channel gain for the symbol and the
receiver's noise-variance estimate.  An exact (``logsumexp``) and a
max-log variant are provided; the exact one is the default since the
constellations are small.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.phy.logsumexp import logsumexp_rows

__all__ = [
    "Constellation",
    "CONSTELLATIONS",
    "modulate",
    "soft_demap",
    "soft_demap_batch",
    "hard_demap",
]


def _gray_code(n: int) -> np.ndarray:
    """The length-``2**n`` Gray code sequence."""
    codes = np.arange(1 << n)
    return codes ^ (codes >> 1)


def _pam_levels(bits_per_axis: int) -> np.ndarray:
    """Gray-labelled PAM levels for one axis, indexed by bit pattern.

    Returns ``levels`` such that ``levels[pattern]`` is the (unnormalised)
    amplitude whose Gray label equals ``pattern``.
    """
    m = 1 << bits_per_axis
    amplitudes = np.arange(-(m - 1), m, 2, dtype=np.float64)
    gray = _gray_code(bits_per_axis)
    levels = np.empty(m)
    for position, label in enumerate(gray):
        levels[label] = amplitudes[position]
    return levels


class Constellation:
    """A Gray-mapped constellation with unit average energy.

    Attributes:
        name: e.g. ``"QAM16"``.
        bits_per_symbol: bits carried per complex symbol.
        points: complex array indexed by the integer formed from the
            symbol's bits (MSB first).
        bit_table: ``(2**bps, bps)`` bit patterns of each point.
    """

    def __init__(self, name: str, bits_per_symbol: int):
        self.name = name
        self.bits_per_symbol = bits_per_symbol
        if name == "BPSK":
            points = np.array([-1.0 + 0j, 1.0 + 0j])
        else:
            half = bits_per_symbol // 2
            levels = _pam_levels(half)
            labels = np.arange(1 << bits_per_symbol)
            i_bits = labels >> half
            q_bits = labels & ((1 << half) - 1)
            points = levels[i_bits] + 1j * levels[q_bits]
        energy = np.mean(np.abs(points) ** 2)
        self.points = points / np.sqrt(energy)
        n = 1 << bits_per_symbol
        self.bit_table = (
            (np.arange(n)[:, None] >> np.arange(bits_per_symbol - 1, -1, -1))
            & 1
        ).astype(np.uint8)
        # Masks of points where bit i equals 1 / 0, for demapping.
        self._ones_mask = self.bit_table.T.astype(bool)   # (bps, n)

    @property
    def min_distance(self) -> float:
        """Minimum Euclidean distance between constellation points."""
        diffs = self.points[:, None] - self.points[None, :]
        distances = np.abs(diffs)
        return float(distances[distances > 0].min())


CONSTELLATIONS: Dict[str, Constellation] = {
    "BPSK": Constellation("BPSK", 1),
    "QPSK": Constellation("QPSK", 2),
    "QAM16": Constellation("QAM16", 4),
    "QAM64": Constellation("QAM64", 6),
}


def modulate(bits: np.ndarray, modulation: str) -> np.ndarray:
    """Map coded bits (MSB-first per symbol) to complex symbols.

    The bit count must be a multiple of the modulation's
    ``bits_per_symbol``.
    """
    const = CONSTELLATIONS[modulation]
    bits = np.asarray(bits, dtype=np.uint8)
    bps = const.bits_per_symbol
    if bits.size % bps != 0:
        raise ValueError(
            f"bit count {bits.size} not a multiple of {bps} for {modulation}")
    groups = bits.reshape(-1, bps)
    weights = 1 << np.arange(bps - 1, -1, -1)
    indices = groups @ weights
    return const.points[indices]


def soft_demap(received: np.ndarray, modulation: str, noise_var: float,
               gains: np.ndarray = None, max_log: bool = False) -> np.ndarray:
    """Compute channel LLRs for each coded bit of each received symbol.

    Args:
        received: complex received symbols ``y = h * x + n``.
        modulation: constellation name.
        noise_var: the receiver's estimate of ``E[|n|^2]``.  SoftRate's
            receiver estimates this from the preamble only, which is
            what makes interference (unmodelled extra noise mid-frame)
            visible as an abrupt change in hint quality.
        gains: per-symbol complex channel gains ``h`` (assumed known to
            the receiver via channel estimation); defaults to 1.
        max_log: use the max-log approximation instead of exact
            marginalisation.

    Returns:
        Float array of length ``len(received) * bits_per_symbol`` with
        ``log P(y|c=1) - log P(y|c=0)`` per coded bit, in symbol order.
    """
    y = np.asarray(received, dtype=np.complex128)
    if gains is None:
        gains_2d = None
    else:
        gains = np.asarray(gains, dtype=np.complex128)
        if gains.size != y.size:
            raise ValueError("one channel gain per received symbol required")
        gains_2d = gains.ravel()[None, :]
    return soft_demap_batch(y.ravel()[None, :], modulation, noise_var,
                            gains=gains_2d, max_log=max_log)[0]


def soft_demap_batch(received: np.ndarray, modulation: str,
                     noise_var, gains: np.ndarray = None,
                     max_log: bool = False) -> np.ndarray:
    """Demap a ``(n_frames, n_symbols)`` stack of received symbols.

    The batched kernel behind :func:`soft_demap`: every frame's symbols
    are demapped together, with an optional per-frame noise variance
    (SoftRate estimates the noise from each frame's own preamble, so
    frames of a batch generally carry different estimates).

    Args:
        received: complex received symbols, shape
            ``(n_frames, n_symbols)``.
        modulation: constellation name.
        noise_var: scalar, or array of ``n_frames`` per-frame noise
            variance estimates.
        gains: per-symbol complex channel gains, shape like
            ``received``; defaults to 1.
        max_log: use the max-log approximation instead of exact
            marginalisation.

    Returns:
        Float array of shape ``(n_frames, n_symbols *
        bits_per_symbol)``, bit-identical to demapping each row alone.

    Raises:
        ValueError: non-finite symbols or gains, or a noise variance
            that is not positive.
    """
    const = CONSTELLATIONS[modulation]
    y = np.asarray(received, dtype=np.complex128)
    if y.ndim != 2:
        raise ValueError("soft_demap_batch expects a 2-D symbol array")
    n_frames, n_symbols = y.shape
    if not np.isfinite(y).all():
        raise ValueError("received symbols must be finite")
    if gains is None:
        gains = np.ones_like(y)
    else:
        gains = np.asarray(gains, dtype=np.complex128)
        if gains.shape != y.shape:
            raise ValueError("one channel gain per received symbol required")
        if not np.isfinite(gains).all():
            raise ValueError("channel gains must be finite")
    nv = np.asarray(noise_var, dtype=np.float64)
    if nv.ndim == 0:
        nv = np.full(n_frames, float(nv))
    elif nv.shape != (n_frames,):
        raise ValueError("noise_var must be scalar or one per frame")
    if not np.all(nv > 0):
        raise ValueError("noise variance must be positive")

    # Squared distances to each candidate point:
    # (n_frames, n_symbols, n_points).
    candidates = gains[:, :, None] * const.points[None, None, :]
    metric = -np.abs(y[:, :, None] - candidates) ** 2 / nv[:, None, None]

    bps = const.bits_per_symbol
    llrs = np.empty((n_frames, n_symbols, bps))
    for i in range(bps):
        ones = const._ones_mask[i]
        if max_log:
            llrs[:, :, i] = (metric[:, :, ones].max(axis=-1)
                             - metric[:, :, ~ones].max(axis=-1))
        else:
            llrs[:, :, i] = (logsumexp_rows(metric[:, :, ones])
                             - logsumexp_rows(metric[:, :, ~ones]))
    return llrs.reshape(n_frames, n_symbols * bps)


def hard_demap(received: np.ndarray, modulation: str,
               gains: np.ndarray = None) -> np.ndarray:
    """Minimum-distance hard decisions (no code, no LLRs)."""
    const = CONSTELLATIONS[modulation]
    y = np.asarray(received, dtype=np.complex128)
    if gains is None:
        gains = np.ones(y.size, dtype=np.complex128)
    candidates = gains[:, None] * const.points[None, :]
    nearest = np.argmin(np.abs(y[:, None] - candidates), axis=1)
    return const.bit_table[nearest].ravel()

"""From SoftPHY hints to BER estimates (paper section 3.1).

The physical layer exports, for every decoded bit ``k``, the magnitude
of its a-posteriori log-likelihood ratio: the SoftPHY hint
``s_k = |LLR(k)|``.  Because

    s_k = log((1 - p_k) / p_k),

where ``p_k = P(x_k != y_k | r)`` is the probability the decoded bit is
wrong, the receiver recovers ``p_k = 1 / (1 + exp(s_k))`` — *without
knowing which bits were transmitted*.  Averaging ``p_k`` over a frame
estimates the channel BER during that frame, even when the frame has
zero actual bit errors; that is the property that lets SoftRate tell a
channel at BER 1e-9 from one at 1e-4 from a single error-free frame.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hints_from_llrs", "error_probabilities", "frame_ber_estimate",
           "symbol_ber_profile"]


def hints_from_llrs(llrs: np.ndarray) -> np.ndarray:
    """SoftPHY hints: per-bit posterior LLR magnitudes (Eq. after 2)."""
    return np.abs(np.asarray(llrs, dtype=np.float64))


def error_probabilities(hints: np.ndarray) -> np.ndarray:
    """Per-bit error probabilities from SoftPHY hints (Eq. 3).

    ``p_k = 1 / (1 + exp(s_k))``; computed stably for large hints.
    Raises ``ValueError`` for a negative or NaN hint.
    """
    hints = np.asarray(hints, dtype=np.float64)
    if not np.all(hints >= 0):                 # also catches NaN
        raise ValueError("SoftPHY hints are magnitudes; must be >= 0 "
                         "and not NaN")
    # 1 / (1 + e^s) = e^-s / (1 + e^-s): stable for all s >= 0.
    exp_neg = np.exp(-hints)
    return exp_neg / (1.0 + exp_neg)


def frame_ber_estimate(hints: np.ndarray) -> float:
    """Average BER of the channel over one frame (paper section 3.1)."""
    hints = np.asarray(hints, dtype=np.float64)
    if hints.size == 0:
        raise ValueError("cannot estimate BER from an empty frame")
    return float(np.mean(error_probabilities(hints)))


def symbol_ber_profile(hints: np.ndarray, info_symbol: np.ndarray,
                       n_symbols: int) -> np.ndarray:
    """Per-OFDM-symbol average BER, Eq. 4 of the paper.

    Args:
        hints: SoftPHY hints, one per information bit.
        info_symbol: map from information bit to the body OFDM symbol
            carrying it (:func:`repro.phy.ofdm.info_bit_symbol_map`).
        n_symbols: number of body OFDM symbols.

    Returns:
        Array of length ``n_symbols`` with the mean ``p_k`` of each
        symbol's bits.  Symbols carrying no information bits (possible
        only for the final padded symbol) get the profile value of the
        previous symbol so the difference signal stays well-defined.
    """
    hints = np.asarray(hints, dtype=np.float64)
    info_symbol = np.asarray(info_symbol)
    if hints.size != info_symbol.size:
        raise ValueError("one symbol index per hint required")
    if n_symbols <= 0:
        raise ValueError("need at least one symbol")
    p = error_probabilities(hints)
    sums = np.bincount(info_symbol, weights=p, minlength=n_symbols)
    counts = np.bincount(info_symbol, minlength=n_symbols)
    profile = np.empty(n_symbols)
    last = 0.0
    for j in range(n_symbols):
        if counts[j] > 0:
            last = sums[j] / counts[j]
        profile[j] = last
    return profile

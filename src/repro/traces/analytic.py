"""Analytic PHY performance model for fast trace generation.

Running the bit-exact BCJR pipeline for every (slot, rate) pair of a
multi-second network simulation is infeasible in pure Python, so —
exactly as the paper substitutes traces for ns-3's PHY — we substitute
a calibrated analytic model for the bit-exact PHY when generating
network-scale traces:

* per-modulation uncoded BER over AWGN (standard Gray-mapping
  formulas);
* coded BER via the soft-decision union bound for the 802.11 K=7
  convolutional code, using the published distance spectra of the
  punctured rates (Frenger et al. / Begin-Haccoun weights);
* per-symbol evaluation, so mid-frame fades degrade exactly the part
  of the frame they overlap.

``tests/traces/test_analytic.py`` validates the model against the full
pipeline: the predicted waterfall curves must match the measured ones
to within a fraction of a dB.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from scipy.special import erfc, erfcinv

from repro.phy.rates import Rate

__all__ = ["uncoded_ber", "coded_ber", "frame_loss_probability",
           "loss_probability", "frame_ber"]


def _q_function(x: np.ndarray) -> np.ndarray:
    """The Gaussian tail function Q(x)."""
    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / np.sqrt(2.0))


def _q_inverse(p: np.ndarray) -> np.ndarray:
    """Inverse of Q, clipped away from 0 and 0.5 for stability."""
    p = np.clip(np.asarray(p, dtype=np.float64), 1e-300, 0.5 - 1e-12)
    return np.sqrt(2.0) * erfcinv(2.0 * p)


def uncoded_ber(modulation: str, snr_linear: np.ndarray) -> np.ndarray:
    """Uncoded (pre-decoder) BER of a Gray-mapped constellation.

    Args:
        modulation: constellation name.
        snr_linear: per-symbol SNR ``Es/N0`` (linear), scalar or array.

    Uses the standard approximations
    ``P_b ~ (4/log2 M)(1 - 1/sqrt(M)) Q(sqrt(3 Es/((M-1) N0)))`` for
    square QAM and the exact expressions for BPSK/QPSK.
    """
    snr = np.maximum(np.asarray(snr_linear, dtype=np.float64), 0.0)
    if modulation == "BPSK":
        return _q_function(np.sqrt(2.0 * snr))
    if modulation == "QPSK":
        return _q_function(np.sqrt(snr))
    if modulation == "QAM16":
        return 0.75 * _q_function(np.sqrt(snr / 5.0))
    if modulation == "QAM64":
        return (7.0 / 12.0) * _q_function(np.sqrt(snr / 21.0))
    raise ValueError(f"unknown modulation {modulation!r}")


#: Information-error weight spectra c_d of the K=7 (133, 171) code at
#: the 802.11 puncturing rates, as (d_free, [c_dfree, c_dfree+1, ...]).
#: Sources: Frenger et al., "Multi-rate convolutional codes" (1998);
#: Begin & Haccoun for the mother code.  Odd-distance terms of the
#: rate-1/2 mother code are zero.
_SPECTRA: Dict[str, Tuple[int, Tuple[float, ...]]] = {
    "1/2": (10, (36.0, 0.0, 211.0, 0.0, 1404.0, 0.0, 11633.0)),
    "2/3": (6, (3.0, 70.0, 285.0, 1276.0, 6160.0, 27128.0)),
    "3/4": (5, (42.0, 201.0, 1492.0, 10469.0, 62935.0)),
}

#: Information bits per puncturing period (the 1/k in the union bound).
_INFO_PER_PERIOD = {"1/2": 1.0, "2/3": 2.0, "3/4": 3.0}


def coded_ber(rate: Rate, snr_linear: np.ndarray) -> np.ndarray:
    """Post-decoder BER of one bit rate at the given per-symbol SNR.

    The uncoded coded-bit error probability ``p`` is converted to an
    equivalent per-coded-bit SNR ``g = Qinv(p)^2 / 2`` and fed through
    the soft-decision union bound
    ``P_b ~ (1/k) sum_d c_d Q(sqrt(2 d g))``.
    """
    key = str(rate.code_rate)
    if key not in _SPECTRA:
        raise ValueError(f"no spectrum for code rate {key}")
    d_free, weights = _SPECTRA[key]
    k = _INFO_PER_PERIOD[key]
    p = uncoded_ber(rate.modulation, snr_linear)
    p = np.clip(p, 1e-300, 0.5 - 1e-12)
    g = 0.5 * _q_inverse(p) ** 2
    total = np.zeros_like(g)
    for offset, c_d in enumerate(weights):
        if c_d == 0.0:
            continue
        d = d_free + offset
        total = total + c_d * _q_function(np.sqrt(2.0 * d * g))
    return np.minimum(total / k, 0.5)


def frame_ber(rate: Rate, symbol_snrs: np.ndarray) -> float:
    """Average post-decoder BER of a frame spanning per-symbol SNRs.

    Each OFDM symbol's bits decode at the BER implied by that symbol's
    SNR (decoder memory spans ~7 bits, far below a symbol), so the
    frame BER is the mean of the per-symbol coded BERs.
    """
    return float(np.mean(coded_ber(rate, symbol_snrs)))


def frame_loss_probability(rate: Rate, symbol_snrs: np.ndarray,
                           n_info_bits: int) -> float:
    """Probability that at least one info bit of the frame is wrong.

    With ``b_j`` the coded BER during symbol ``j`` and the frame's info
    bits spread evenly over the symbols,
    ``P(loss) = 1 - prod_j (1 - b_j)^(bits_per_symbol)``.
    """
    symbol_snrs = np.atleast_1d(symbol_snrs).ravel()
    return float(loss_probability(coded_ber(rate, symbol_snrs),
                                  n_info_bits))


def loss_probability(symbol_bers: np.ndarray,
                     n_info_bits: int) -> np.ndarray:
    """:func:`frame_loss_probability` from per-symbol coded BERs.

    ``symbol_bers`` holds one frame's symbols along its last axis, so
    a ``(frames, symbols)`` array gives one probability per frame —
    each bit-identical to the one-frame call, as the sum runs along
    the contiguous axis.
    """
    bits_per_symbol = n_info_bits / symbol_bers.shape[-1]
    bers = np.clip(symbol_bers, 0.0, 1.0 - 1e-15)
    log_ok = bits_per_symbol * np.sum(np.log1p(-bers), axis=-1)
    return 1.0 - np.exp(log_ok)

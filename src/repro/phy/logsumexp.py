"""Row-wise log-sum-exp, bit-identical to scipy's on finite rows.

The exact soft demapper (:mod:`repro.phy.modulation`) and the log-MAP
BCJR (:mod:`repro.phy.bcjr`) both marginalise in the log domain over
short rows.  ``scipy.special.logsumexp`` goes through scipy's array-API
dispatch on every call, about 0.2-0.3 ms with scipy 1.17 — more than
the arithmetic on such rows.  :func:`logsumexp_rows` is its algorithm
without the dispatch.
"""

from __future__ import annotations

import numpy as np

__all__ = ["logsumexp_rows"]


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the last axis of ``a``, consuming ``a``.

    Bit-identical to ``scipy.special.logsumexp(a, axis=-1)`` (scipy >=
    1.15 algorithm) when every row is finite: the maximal elements are
    pulled out of the sum, the rest is scaled by their multiplicity
    ``m``, and the result is ``log1p(s) + log(m) + a_max``.  Callers
    must reject non-finite input.  The row sum's rounding depends on
    element order, so a caller that wants stable bits keeps its rows
    in one fixed order.
    """
    mx = np.amax(a, axis=-1, keepdims=True)
    mask = a == mx                             # maximal elements
    m = np.sum(mask, axis=-1, dtype=a.dtype)
    np.subtract(a, mx, out=a)
    np.exp(a, out=a)
    a[mask] = 0.0                              # exclude the maxima
    s = np.sum(a, axis=-1)
    np.divide(s, m, out=s, where=s != 0)       # s == 0 stays 0
    return np.log1p(s) + np.log(m) + mx[..., 0]

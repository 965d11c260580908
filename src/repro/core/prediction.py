"""Cross-rate BER prediction (paper section 3.3).

SoftRate never learns SNR-BER curves.  It relies on two environment-
and hardware-independent observations:

1. at any SNR, BER increases monotonically with bit rate;
2. within the usable range (BER below ~1e-2), adjacent rates in a
   well-designed rate table differ in BER by at least a factor of 10
   at the same SNR.

So from a measured BER ``b`` at rate ``i``, the BER at rate
``i + n`` is predicted as ``b * 10**n`` (and ``b * 10**-n`` going
down), clipped to a sane range.  The prediction only needs to be
accurate enough to rank rates — which is all the threshold-based rate
walk consumes.
"""

from __future__ import annotations

__all__ = ["predict_ber", "BER_FLOOR", "BER_CEILING", "RATE_SEPARATION"]

#: BER below which we stop resolving differences (a 960-byte frame
#: cannot distinguish 1e-9 from 1e-12).
BER_FLOOR = 1e-12
#: BER cannot exceed 0.5 (a random channel).
BER_CEILING = 0.5
#: Minimum BER separation factor between adjacent rates (observation 2).
RATE_SEPARATION = 10.0

#: A local for :func:`predict_ber`'s finiteness check (a hot path).
_INF = float("inf")


def predict_ber(ber: float, from_rate: int, to_rate: int,
                separation: float = RATE_SEPARATION) -> float:
    """Predict the BER at ``to_rate`` from a measurement at ``from_rate``.

    Args:
        ber: measured (interference-free) BER at ``from_rate``.
        from_rate, to_rate: rate table indices.
        separation: per-step BER ratio (finite, >= 1).

    Returns:
        The predicted BER, clipped to ``[BER_FLOOR, BER_CEILING]``.
    """
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"BER {ber} outside [0, 1]")
    if not 1.0 <= separation < _INF:
        raise ValueError(f"separation factor must be finite and >= 1, "
                         f"got {separation!r}")
    steps = to_rate - from_rate
    predicted = ber * separation ** steps
    # Scalar clip: np.clip costs microseconds per call and this sits
    # on the per-feedback hot path of every rate walk.
    if predicted < BER_FLOOR:
        return BER_FLOOR
    if predicted > BER_CEILING:
        return BER_CEILING
    return float(predicted)

"""SoftPHY-based interference detection (paper sections 3.2 and 4).

Channel fading changes the BER gradually (its physics are continuous
in time), while a colliding transmission raises the BER of *every*
subcarrier of the overlapped OFDM symbols at once.  Following the
paper's criterion — "a sudden change in BER **by orders of magnitude**
within a small number of bits cannot be explained by stochastic
channel fading" — the detector works in log-BER space: it clamps the
per-symbol BER profile

    d_j = | log10 p̄_j - log10 p̄_{j-1} |

to a sensitivity floor and thresholds the jump in *decades*.  The
floor matters: below ~1e-4 a per-symbol estimate from a few hundred
bits is dominated by estimation noise (clean symbols legitimately read
anywhere from 1e-30 to 1e-6), and without the clamp that noise would
register as huge log-domain jumps.

When a jump is found, the interfered symbols are excised and the BER
is recomputed over the clean portion alone, so rate adaptation reacts
only to the interference-free BER — collisions never drag the bit
rate down (which would only worsen contention, section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hints import error_probabilities, symbol_ber_profile

__all__ = ["InterferenceDetector", "InterferenceReport"]

#: Default jump threshold in decades of per-symbol BER.  Calibrated so
#: collision-errored frames are flagged >80% of the time across
#: interferer powers (Fig. 10) while keeping fading losses rarely
#: flagged.  Residual false positives (a few percent, vs the paper's
#: <1%) come from marginal-SNR frames whose bursty decoder errors
#: create genuine multi-decade per-symbol contrast — our simulated
#: frames carry fewer bits per OFDM symbol than the paper's prototype,
#: so per-symbol estimates are noisier.
DEFAULT_JUMP_DECADES = 1.0

#: Sensitivity floor for the per-symbol BER profile.  A 100-300-bit
#: symbol cannot measure BERs below ~1e-3 reliably; everything under
#: the floor is "clean" and indistinguishable.
PROFILE_FLOOR = 1e-3

#: Per-symbol BER above which a segment between jump boundaries is
#: treated as interfered when excising.
_BAD_SEGMENT_BER = 3e-3


@dataclass(frozen=True)
class InterferenceReport:
    """Outcome of interference detection on one frame.

    Attributes:
        detected: an abrupt BER jump was found.
        clean_mask: boolean array over body OFDM symbols; True where
            the symbol is believed interference-free.
        ber_full: BER estimate over the whole frame.
        ber_clean: BER estimate over the clean portion only — the
            quantity fed back to the sender.  Equal to ``ber_full``
            when nothing was detected.
        jump_positions: symbol indices where the log-BER step crossed
            the threshold.
    """

    detected: bool
    clean_mask: np.ndarray
    ber_full: float
    ber_clean: float
    jump_positions: np.ndarray

    @property
    def clean_fraction(self) -> float:
        """Fraction of body symbols believed interference-free."""
        return float(np.mean(self.clean_mask))


class InterferenceDetector:
    """Thresholds per-symbol log-BER jumps to find collisions.

    Args:
        jump_decades: minimum |log10 p̄_j - log10 p̄_{j-1}| flagged as
            a collision boundary (ablated in
            ``benchmarks/test_ablation_detector.py``).
        profile_floor: clamp for the per-symbol BER profile.
        bad_segment_ber: segments averaging above this are excised.
    """

    def __init__(self, jump_decades: float = DEFAULT_JUMP_DECADES,
                 profile_floor: float = PROFILE_FLOOR,
                 bad_segment_ber: float = _BAD_SEGMENT_BER):
        if jump_decades <= 0:
            raise ValueError("jump threshold must be positive")
        if not 0 < profile_floor < 0.5:
            raise ValueError("profile floor must lie in (0, 0.5)")
        self.jump_decades = jump_decades
        self.profile_floor = profile_floor
        self.bad_segment_ber = bad_segment_ber

    def analyze_profile(self, profile: np.ndarray) -> InterferenceReport:
        """Run detection on a precomputed per-symbol BER profile."""
        profile = np.asarray(profile, dtype=np.float64)
        n = profile.size
        if n == 0:
            raise ValueError("empty BER profile")
        clamped = np.clip(profile, self.profile_floor, 0.5)
        log_profile = np.log10(clamped)
        diffs = np.abs(np.diff(log_profile))
        jumps = np.where(diffs >= self.jump_decades)[0] + 1
        ber_full = float(np.mean(profile))
        if jumps.size == 0 or n == 1:
            return InterferenceReport(
                detected=False, clean_mask=np.ones(n, dtype=bool),
                ber_full=ber_full, ber_clean=ber_full,
                jump_positions=jumps)
        # Between consecutive jump boundaries the profile is roughly
        # level; segments whose level is "bad" are the interfered ones.
        boundaries = np.concatenate([[0], jumps, [n]])
        clean = np.ones(n, dtype=bool)
        for start, end in zip(boundaries[:-1], boundaries[1:]):
            if np.mean(clamped[start:end]) >= self.bad_segment_ber:
                clean[start:end] = False
        if clean.any() and not clean.all():
            # Guard band: the decoder smears a collision's damage into
            # the adjacent symbol (its trellis memory crosses the
            # boundary), so erode the clean region by one symbol on
            # each side of every excised segment.
            bad = ~clean
            dilated = bad.copy()
            dilated[1:] |= bad[:-1]
            dilated[:-1] |= bad[1:]
            if (~dilated).any():
                clean = ~dilated
        if not clean.any():
            # Entire frame bad after a jump: keep the pre-jump prefix
            # (received before the collision began).
            clean[: jumps[0]] = True
        ber_clean = float(np.mean(profile[clean])) if clean.any() \
            else ber_full
        return InterferenceReport(
            detected=bool((~clean).any()), clean_mask=clean,
            ber_full=ber_full, ber_clean=ber_clean, jump_positions=jumps)

    def analyze(self, hints: np.ndarray, info_symbol: np.ndarray,
                n_symbols: int) -> InterferenceReport:
        """Run detection on a frame's SoftPHY hints.

        The clean-portion BER is recomputed over the individual bits of
        the clean symbols (not the symbol means), matching the paper's
        "computes the BER of the frame over the interference-free
        portions alone".
        """
        profile = symbol_ber_profile(hints, info_symbol, n_symbols)
        report = self.analyze_profile(profile)
        if report.detected:
            p = error_probabilities(np.asarray(hints, dtype=np.float64))
            bit_clean = report.clean_mask[np.asarray(info_symbol)]
            if bit_clean.any():
                ber_clean = float(np.mean(p[bit_clean]))
                report = InterferenceReport(
                    detected=report.detected,
                    clean_mask=report.clean_mask,
                    ber_full=report.ber_full, ber_clean=ber_clean,
                    jump_positions=report.jump_positions)
        return report

"""Rayleigh fading via the Zheng-Xiao sum-of-sinusoids model.

This is the "Jakes simulator model" the paper's GNU Radio fading
channel simulator implements (reference [26]: Zheng & Xiao, *Simulation
Models With Correct Statistical Properties for Rayleigh Fading
Channels*, IEEE Trans. Communications, 2003).  The model sums ``M``
sinusoids with randomised angles of arrival and phases, producing a
complex gain process with the classic Jakes Doppler spectrum and
Rayleigh-distributed envelope.

The Doppler spread ``f_d`` sets the channel coherence time
``T_c ~= 0.423 / f_d`` (the paper uses the ``0.4 / f`` rule of thumb
from Tse & Viswanath): 40 Hz is walking speed (tens of ms), 4 kHz is
train speed (about 100 us).
"""

from __future__ import annotations

import numpy as np

__all__ = ["RayleighFadingProcess", "coherence_time", "doppler_for_coherence"]

_COHERENCE_FACTOR = 0.423


def coherence_time(doppler_hz: float) -> float:
    """Channel coherence time for a given Doppler spread."""
    if doppler_hz <= 0:
        raise ValueError("Doppler spread must be positive")
    return _COHERENCE_FACTOR / doppler_hz


def doppler_for_coherence(coherence_s: float) -> float:
    """Doppler spread producing a given coherence time."""
    if coherence_s <= 0:
        raise ValueError("coherence time must be positive")
    return _COHERENCE_FACTOR / coherence_s


class RayleighFadingProcess:
    """A stationary Rayleigh fading gain process h(t).

    Args:
        doppler_hz: maximum Doppler frequency (spread) of the channel.
        rng: random source for the sinusoid angles/phases (one draw per
            process; the process itself is then deterministic in t,
            which lets different bit rates observe the *same* fading
            realisation, as the paper's trace collection requires).
        n_sinusoids: number of summed sinusoids; 16 is ample for
            statistical convergence (Zheng & Xiao recommend >= 8).

    The process has unit average power: ``E[|h(t)|^2] = 1``.
    """

    def __init__(self, doppler_hz: float, rng: np.random.Generator,
                 n_sinusoids: int = 16):
        if not 0 < doppler_hz < np.inf:
            raise ValueError("Doppler spread must be positive and finite")
        if n_sinusoids < 4:
            raise ValueError("need at least 4 sinusoids")
        self.doppler_hz = doppler_hz
        self.n_sinusoids = n_sinusoids
        m = np.arange(1, n_sinusoids + 1)
        theta = rng.uniform(-np.pi, np.pi)
        self._alpha = (2.0 * np.pi * m - np.pi + theta) / (4.0 * n_sinusoids)
        self._phi = rng.uniform(-np.pi, np.pi, size=n_sinusoids)
        self._psi = rng.uniform(-np.pi, np.pi, size=n_sinusoids)

    def gains(self, times: np.ndarray) -> np.ndarray:
        """Complex channel gains at the given times (seconds)."""
        t = np.atleast_1d(np.asarray(times, dtype=np.float64))
        wd = 2.0 * np.pi * self.doppler_hz
        arg = wd * t[:, None]
        # Both sums reuse one (times, sinusoids) buffer: their
        # temporaries cost a trace fill ~15% of its time.
        out = np.empty(t.size, dtype=np.complex128)
        phases = arg * np.cos(self._alpha)
        phases += self._phi
        out.real = np.cos(phases, out=phases).sum(axis=1)
        np.multiply(arg, np.sin(self._alpha), out=phases)
        phases += self._psi
        out.imag = np.cos(phases, out=phases).sum(axis=1)
        out /= np.sqrt(self.n_sinusoids)
        return out

    @property
    def coherence_time(self) -> float:
        """Approximate coherence time of this process."""
        return coherence_time(self.doppler_hz)

    def symbol_gains(self, start_time: float, n_symbols: int,
                     symbol_time: float) -> np.ndarray:
        """Gains sampled once per OFDM symbol starting at ``start_time``."""
        times = start_time + np.arange(n_symbols) * symbol_time
        return self.gains(times)

"""The one source of link traces for the trace-driven experiments.

The paper's evaluation replaces ns-3's PHY with per-link traces taken
in the Table 4 environments (section 6.1).  :func:`link_traces` is the
only way an experiment gets such traces; it knows three channels
(:data:`CHANNELS`):

* ``"walking"`` — walking-speed mobility (section 6.2): each link
  draws a start distance of 4–8 m, walks away at 1.2 m/s and fades at
  a 40 Hz Doppler.  It reads neither ``mean_snr_db`` nor
  ``doppler_hz``; the trajectory sets the mean SNR.
* ``"static"`` — the static short-range channel of the interference
  study (section 6.4): a constant ``mean_snr_db`` with a residual
  1 Hz Doppler, so a mid-table rate is the steady optimum and
  collisions come from the MAC simulation, not the trace.
* ``"fading"`` — the fading simulator at a fixed Doppler
  (section 6.3): a constant ``mean_snr_db`` at ``doppler_hz``.

:func:`channel_inputs` says which inputs a channel reads, so callers
that memoize traces (the campaign cell's trace pool) key on those
alone.

**Seed rule.**  Link ``i`` of a call draws everything from
``np.random.default_rng(seed + offset + i)``, with ``offset`` 0 for
walking, 100 for fading and 200 for static.  Traces, goldens and
frame-log digests are pinned to these seeds and to the draw order
documented on :func:`repro.traces.generate.generate_fading_trace`.

**What stays outside.**  fig05 and ``repro trace`` call
:func:`generate_fading_trace` themselves: they walk from a set start
distance (5 m by default) and seed the generator without a
per-channel offset, so routing them through :func:`link_traces` would
change their output.  Downlink seeds stay with their callers too:
fig13, fig17 and ``repro simulate --workload tcp`` use
:func:`downlink_seed` (+50), while the campaign cell uses its own
``_DOWNLINK_SEED_OFFSET``.  Merging the two rules would move the
results of one side, so it waits for a deliberate golden
regeneration.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.channel.mobility import WalkingTrajectory
from repro.traces.format import LinkTrace
from repro.traces.generate import generate_fading_trace

__all__ = ["CHANNELS", "channel_inputs", "link_traces",
           "DOWNLINK_SEED_OFFSET", "downlink_seed"]

#: The channels :func:`link_traces` generates.
CHANNELS = ("walking", "static", "fading")

#: Added to the caller's seed per channel (see the seed rule above).
_SEED_OFFSETS = {"walking": 0, "fading": 100, "static": 200}

#: The Doppler spread of the channels that fix it, in Hz.
_FIXED_DOPPLER_HZ = {"walking": 40.0, "static": 1.0}

#: How far above the uplink seed fig13, fig17 and ``repro simulate
#: --workload tcp`` seed their downlink traces.  :func:`link_traces`
#: seeds link ``i`` at ``seed + i``, so it is also the largest client
#: count those entry points support.
DOWNLINK_SEED_OFFSET = 50


def downlink_seed(seed: int, n_links: int) -> int:
    """The downlink trace seed paired with uplink trace seed ``seed``.

    Raises:
        ValueError: ``n_links`` exceeds :data:`DOWNLINK_SEED_OFFSET`,
            so uplink ``DOWNLINK_SEED_OFFSET`` and downlink 0 would be
            one fading realisation.
    """
    if n_links > DOWNLINK_SEED_OFFSET:
        raise ValueError(
            f"{n_links} clients would alias: uplink "
            f"{DOWNLINK_SEED_OFFSET} and downlink 0 would be the same "
            f"trace.  This workload is limited to {DOWNLINK_SEED_OFFSET} "
            f"clients; the campaign 'cell' experiment runs larger cells "
            f"(see its _DOWNLINK_SEED_OFFSET).")
    return seed + DOWNLINK_SEED_OFFSET


def channel_inputs(channel: str, mean_snr_db: Optional[float],
                   doppler_hz: Optional[float]
                   ) -> Tuple[Optional[float], Optional[float]]:
    """``(mean_snr_db, doppler_hz)`` with each input ``channel`` does
    not read replaced by ``None``.

    Raises:
        ValueError: ``channel`` is not one of :data:`CHANNELS`, or an
            input it reads is ``None``.
    """
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}; "
                         f"available: {list(CHANNELS)}")
    if channel == "walking":
        return None, None
    if mean_snr_db is None:
        raise ValueError(f"the {channel!r} channel reads mean_snr_db")
    if channel == "static":
        return mean_snr_db, None
    if doppler_hz is None:
        raise ValueError(f"the {channel!r} channel reads doppler_hz")
    return mean_snr_db, doppler_hz


def link_traces(channel: str, n_links: int, seed: int, duration: float,
                mean_snr_db: Optional[float] = None,
                doppler_hz: Optional[float] = None,
                payload_bits: int = 11200) -> Tuple[LinkTrace, ...]:
    """``n_links`` independent read-only traces of one channel.

    Every link has the channel's statistics and its own fading
    realisation (and, walking, its own start distance).

    Args:
        channel: one of :data:`CHANNELS`.
        n_links: traces to generate (>= 1).
        seed: base seed; link ``i`` uses ``seed + offset + i``.
        duration: trace length in seconds.
        mean_snr_db: mean SNR of the static and fading channels.
        doppler_hz: Doppler spread of the fading channel.
        payload_bits: frame payload the traces size frames by.

    Raises:
        ValueError: an unknown channel, a missing input the channel
            reads, ``n_links < 1``, or a duration that is not finite
            and positive.
    """
    mean, doppler = channel_inputs(channel, mean_snr_db, doppler_hz)
    if n_links < 1:
        raise ValueError(f"n_links must be >= 1, got {n_links}")
    doppler = _FIXED_DOPPLER_HZ.get(channel, doppler)
    traces = []
    for link in range(n_links):
        rng = np.random.default_rng(seed + _SEED_OFFSETS[channel] + link)
        if channel == "walking":
            snr = WalkingTrajectory(
                rng, start_distance=float(rng.uniform(4.0, 8.0)),
                speed=1.2, doppler_hz=doppler).mean_snr_db
        else:
            snr = lambda t: mean    # noqa: E731 - constant mean SNR
        traces.append(generate_fading_trace(
            rng, duration=duration, mean_snr_db=snr, doppler_hz=doppler,
            payload_bits=payload_bits).read_only())
    return tuple(traces)

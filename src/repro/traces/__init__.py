"""Channel traces for trace-driven link simulation.

The paper evaluates SoftRate by replacing ns-3's PHY with packet traces
collected from its software-radio prototype (section 6.1): for each
link and each bit rate, the trace specifies — for every point in time —
whether a frame sent then would be received, and what its SNR and
SoftPHY feedback would be.  We reproduce that methodology:

* :mod:`repro.traces.format` — the :class:`LinkTrace` container and
  per-frame :class:`FrameObservation` lookup;
* :mod:`repro.traces.analytic` — a fast modulation/coding performance
  model (uncoded BER formulas + soft-decision union bound for the K=7
  punctured code), validated against the full PHY pipeline in
  ``tests/traces/test_analytic.py``;
* :mod:`repro.traces.generate` — trace generation, either through the
  full PHY (bit-exact, slow) or the analytic model (fast, used for the
  network-scale experiments);
* :mod:`repro.traces.synthetic` — hand-built traces such as the
  good/bad alternating channel of Fig. 15;
* :mod:`repro.traces.workloads` — ``link_traces``, the one source of
  link traces for every trace-driven experiment;
* :mod:`repro.traces.video` — the deadline-annotated GoP video
  workload feeding the rateless pipeline.

``link_traces(channel, n_links, seed, duration, ...)`` generates the
three Table 4 channels: ``"walking"`` mobility, a ``"static"``
short-range channel and the ``"fading"`` simulator at a fixed Doppler.
Link ``i`` draws from ``np.random.default_rng(seed + offset + i)``,
``offset`` being 0, 200 and 100 for those channels, and every trace it
returns is read-only.  Two things stay outside it on purpose: fig05
and ``repro trace`` call :func:`generate_fading_trace` directly (a
set start distance and no seed offset), and the downlink seed offsets
stay with their callers (:func:`repro.traces.workloads.downlink_seed`
for fig13, fig17 and ``repro simulate``; the campaign cell's own
offset), since moving either would change pinned results.
"""

from repro.traces.format import FrameObservation, LinkTrace
from repro.traces.generate import (generate_fading_trace,
                                   generate_full_phy_trace)
from repro.traces.synthetic import alternating_trace, constant_trace
from repro.traces.video import (VideoFrame, VideoTrace,
                                generate_video_trace,
                                reference_video_trace)

__all__ = [
    "FrameObservation",
    "LinkTrace",
    "generate_fading_trace",
    "generate_full_phy_trace",
    "alternating_trace",
    "constant_trace",
    "VideoFrame",
    "VideoTrace",
    "generate_video_trace",
    "reference_video_trace",
]

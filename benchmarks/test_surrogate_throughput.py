"""End-to-end frames/sec: surrogate vs full PHY backend.

Runs the same trace-driven end-to-end simulation — a saturated TCP
uplink through the Fig. 12 topology (eventsim + CSMA/CA MAC +
collision-geometry channel + TCP) — with frame fates computed per
transmission by each PHY backend, and compares wall-clock frames/sec.

The full backend BCJR-decodes every 1400-byte data frame (~hundreds
of milliseconds each), so it simulates a token slice of virtual time;
the surrogate must beat it by **at least 10x** frames/sec (acceptance
criterion; measured ~1000x).  This is the lever that makes
million-frame scenario sweeps feasible.

Set ``REPRO_SMOKE_BENCH=1`` for a seconds-scale smoke run — used by
CI.
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import emit

_SMOKE = os.environ.get("REPRO_SMOKE_BENCH", "") not in ("", "0")

#: Virtual seconds simulated per backend (the full backend pays
#: ~0.3-0.5 s of wall time per 11232-bit frame, so its slice is tiny).
_FULL_DURATION = 0.02 if _SMOKE else 0.04
_SURROGATE_DURATION = 0.3 if _SMOKE else 2.0
_MIN_SPEEDUP = 10.0


def _run(phy_backend, duration):
    """One saturated-TCP run; returns (frames concluded, wall secs)."""
    from repro.experiments.common import softrate_factory
    from repro.sim.topology import run_tcp_uplink
    from repro.traces.workloads import link_traces

    uplinks = link_traces("walking", 1, 5, 10.0)
    downlinks = link_traces("walking", 1, 55, 10.0)
    start = time.perf_counter()
    result = run_tcp_uplink(uplinks, downlinks, softrate_factory,
                            n_clients=1, duration=duration, seed=3,
                            phy_backend=phy_backend)
    wall = time.perf_counter() - start
    frames = sum(len(log) for log in result.frame_logs.values())
    return frames, wall


def test_surrogate_end_to_end_speedup():
    full_frames, full_wall = _run("full", _FULL_DURATION)
    sur_frames, sur_wall = _run("surrogate", _SURROGATE_DURATION)
    assert full_frames > 0 and sur_frames > 0

    full_fps = full_frames / full_wall
    sur_fps = sur_frames / sur_wall
    speedup = sur_fps / full_fps
    emit("surrogate end-to-end throughput"
         f"{' (smoke)' if _SMOKE else ''}",
         f"full:      {full_fps:8.1f} frames/s "
         f"({full_frames} frames / {full_wall:.2f} s wall)\n"
         f"surrogate: {sur_fps:8.1f} frames/s "
         f"({sur_frames} frames / {sur_wall:.2f} s wall)\n"
         f"speedup:   {speedup:.0f}x")
    assert speedup >= _MIN_SPEEDUP, (
        f"surrogate only {speedup:.1f}x the full backend "
        f"(required {_MIN_SPEEDUP}x)")


def test_surrogate_tracks_trace_driven_throughput():
    """Sanity anchor: the surrogate's TCP throughput lands in the
    same regime as the default precomputed-trace simulation (they are
    different channel models — calibrated full-PHY response vs the
    impairment-calibrated analytic trace columns — so only a loose
    band is asserted)."""
    from repro.experiments.common import softrate_factory
    from repro.sim.topology import run_tcp_uplink
    from repro.traces.workloads import link_traces

    duration = 0.3 if _SMOKE else 1.0
    uplinks = link_traces("walking", 1, 5, 10.0)
    downlinks = link_traces("walking", 1, 55, 10.0)
    results = {}
    for backend in (None, "surrogate"):
        results[backend] = run_tcp_uplink(
            uplinks, downlinks, softrate_factory, n_clients=1,
            duration=duration, seed=3,
            phy_backend=backend).aggregate_mbps
    emit("surrogate vs trace-driven TCP throughput",
         f"trace columns: {results[None]:.2f} Mbps\n"
         f"surrogate:     {results['surrogate']:.2f} Mbps")
    assert results["surrogate"] > 0.25 * results[None]
    assert results["surrogate"] < 4.0 * results[None]

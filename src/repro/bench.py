"""Committed performance baselines: measure, record, and gate.

``repro bench`` measures the two throughput numbers the toolkit's
scale story rests on and writes them to repo-root JSON files:

* ``BENCH_phy.json`` — raw PHY frames/sec three ways (scalar full
  decode, batched full decode, surrogate synthesis) plus the derived
  speedup ratios.
* ``BENCH_campaigns.json`` — campaign engine throughput: video-smoke
  scenarios/hour, plus the orchestration-efficiency ratio (campaign
  wall time vs the same cells run bare), the supervision series (the
  same pooled campaign with and without the per-scenario watchdog,
  gated as ``supervision_efficiency`` — fault tolerance must stay
  near-free on the happy path), plus the MAC-engine series:
  station-seconds simulated per wall second for the event-driven
  oracle and the slot-synchronous engine on the same saturated
  50-station cell, and their ratio (``slot_vs_event_speedup``), and
  the video series: fountain symbols accepted per wall second by the
  rateless-over-PPR pipeline on a tiny video workload
  (``video_symbols_per_sec``, gated — the one absolute rate in the
  gate, kept honest by the re-measure retry below).

``repro bench --check`` re-measures using each committed file's *own*
embedded config (the golden-fixture pattern: the baseline carries the
recipe that produced it) and fails when any **gate metric** drops by
more than ``--tolerance`` (default 10%).  Gate metrics are
deliberately ratios — batched/scalar speedup, surrogate/scalar
speedup, orchestration efficiency — because ratios compare within one
machine and survive CI hardware churn, where absolute frames/sec
would not.  The absolute numbers are recorded for humans, not gated.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = ["PHY_BENCH_FILE", "CAMPAIGN_BENCH_FILE", "DEFAULT_TOLERANCE",
           "measure_phy", "measure_campaigns", "write_benchmarks",
           "check_benchmarks", "compare_gate"]

PHY_BENCH_FILE = "BENCH_phy.json"
CAMPAIGN_BENCH_FILE = "BENCH_campaigns.json"

#: Allowed one-sided drop in a gate metric before --check fails.
DEFAULT_TOLERANCE = 0.10

_PHY_SCHEMA = "repro-bench-phy/1"
_CAMPAIGN_SCHEMA = "repro-bench-campaigns/6"

#: Measurement recipe embedded in BENCH_phy.json.
DEFAULT_PHY_CONFIG = {
    "rate_index": 3,            # QPSK 3/4, the fig07 reference rate
    "payload_bits": 800,
    "n_frames": 16,             # full-decode stack size
    "snr_db": [4.0, 12.0],      # the rate's waterfall region
    "surrogate_frames": 4000,
    "repeats": 3,               # best-of wall times
    "seed": 2009,
}

#: Measurement recipe embedded in BENCH_campaigns.json.  The
#: ``engine_*`` keys pin the MAC-engine comparison cell: 50 saturated
#: stations with the traces' precomputed frame fates
#: (``phy_backend=None``), which isolates the MAC engines themselves
#: — the quantity ``slot_vs_event_speedup`` claims to measure.  Both
#: engines' cost per transmission is flat in simulated time (the
#: event engine's history index keeps only what a frame in flight can
#: overlap), so the 0.5 s horizon is long enough to time, not a
#: regime the ratio depends on.
DEFAULT_CAMPAIGN_CONFIG = {
    # A stock matrix whose bare cells take over half a second, so the
    # runner's fixed per-campaign overhead (~11 ms) is a small share
    # of the pass the orchestration ratio compares it with.
    "campaign": "video-smoke",
    "jobs": 1,
    "repeats": 3,               # best-of wall times
    "engine_protocol": "softrate",
    "engine_channel": "fading",
    "engine_n_clients": 50,
    "engine_duration": 0.5,
    "engine_trace_pool": 8,
    # Supervision series: the same pooled campaign with and without
    # the per-scenario watchdog (timeouts + retry bookkeeping).
    "supervised_jobs": 2,
    "supervised_timeout_s": 120.0,
    "supervised_retries": 2,
    # Video series: the rateless half of the ``video`` experiment on
    # a tiny generated workload — fountain symbols accepted by the
    # decoder per wall second, the encode/salvage/row-reduce path.
    "video_duration": 0.8,
    "video_bitrate_bps": 1.2e5,
    "video_snr_db": 8.0,
    "video_seed": 1,
}


def _best_of(repeats: int, fn: Callable) -> float:
    """Best wall-clock seconds of ``repeats`` runs of ``fn``.

    Taking the minimum shields the committed ratios from one-off
    scheduler noise, same as the pytest benchmarks do.
    """
    best = float("inf")
    for _ in range(max(int(repeats), 1)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_phy(config: Optional[dict] = None) -> Dict[str, float]:
    """Measure PHY frames/sec: scalar vs batched vs surrogate.

    "Scalar" decodes the stack one frame at a time through
    ``Transceiver.receive``, the batch path at one frame; "batched"
    decodes it in one ``receive_batch`` call (bit-identical outputs,
    asserted elsewhere).  So ``batched_speedup`` is what stacking
    frames buys.  The surrogate synthesizes outcomes for the same
    rate/SNR region.  Returns the three absolute rates plus the two
    speedup ratios that get gated.
    """
    from repro.channel.awgn import apply_channel
    from repro.phy.backend import get_backend
    from repro.phy.snr import db_to_linear
    from repro.phy.transceiver import Transceiver

    cfg = dict(DEFAULT_PHY_CONFIG, **(config or {}))
    n_frames = int(cfg["n_frames"])
    rate_index = int(cfg["rate_index"])
    lo, hi = (float(s) for s in cfg["snr_db"])
    rng = np.random.default_rng(int(cfg["seed"]))

    phy = Transceiver()
    payload = rng.integers(0, 2, int(cfg["payload_bits"])) \
        .astype(np.uint8)
    tx = phy.transmit(payload, rate_index=rate_index)
    snrs = np.linspace(lo, hi, n_frames)
    gains = np.ones((n_frames, tx.layout.n_symbols), complex)
    rx = np.empty((n_frames, tx.layout.n_symbols,
                   phy.mode.n_subcarriers), complex)
    for i in range(n_frames):
        rx[i], _ = apply_channel(tx.symbols, gains[i],
                                 float(db_to_linear(-snrs[i])), rng)

    # Warm lazy imports and caches outside the timed regions.
    phy.receive(rx[0], gains[0], tx.layout, tx_frame=tx)
    phy.receive_batch(rx[:1], gains[:1], tx.layout, tx=tx)

    repeats = int(cfg["repeats"])
    scalar_s = _best_of(repeats, lambda: [
        phy.receive(rx[i], gains[i], tx.layout, tx_frame=tx)
        for i in range(n_frames)])
    batched_s = _best_of(repeats, lambda: phy.receive_batch(
        rx, gains, tx.layout, tx=tx))

    surrogate = get_backend("surrogate")
    n_sur = int(cfg["surrogate_frames"])
    sur_snrs = np.linspace(lo, hi, n_sur)
    sur_rng = np.random.default_rng(int(cfg["seed"]) + 1)

    def run_surrogate() -> None:
        for snr in sur_snrs:
            surrogate.frame_outcome(rate_index, np.array([snr]),
                                    int(cfg["payload_bits"]), sur_rng,
                                    need_hints=False)

    run_surrogate()                         # warm calibration tables
    surrogate_s = _best_of(repeats, run_surrogate)

    scalar_fps = n_frames / scalar_s
    batched_fps = n_frames / batched_s
    surrogate_fps = n_sur / surrogate_s
    return {
        "full_scalar_fps": scalar_fps,
        "full_batched_fps": batched_fps,
        "surrogate_fps": surrogate_fps,
        "batched_speedup": batched_fps / scalar_fps,
        "surrogate_speedup": surrogate_fps / scalar_fps,
    }


def measure_campaigns(config: Optional[dict] = None
                      ) -> Dict[str, float]:
    """Measure campaign-engine throughput on a stock smoke matrix.

    Runs the configured campaign start-to-finish in a throwaway cache
    directory and reports scenarios/hour plus *orchestration
    efficiency*: the summed wall time of the same cells executed bare
    (no runner, no checkpoints) divided by the campaign wall time.  An
    efficiency near 1.0 means checkpointing/dispatch overhead is
    negligible; this ratio, not the machine-bound scenarios/hour, is
    what the regression gate watches.

    Also measures the *supervision series* (``supervised_*`` config
    keys): the same campaign over a worker pool with and without the
    per-scenario watchdog (``timeout_s``/retries).  The gated ratio
    ``supervision_efficiency`` — unwatched pool wall time over
    supervised wall time — pins that fault tolerance stays near-free
    when nothing faults.

    Also measures the MAC-engine series (see the ``engine_*`` config
    keys): wall time for the same saturated cell on the event-driven
    oracle vs the slot-synchronous engine, reported as
    station-seconds-simulated per wall second plus their gated ratio
    ``slot_vs_event_speedup``.

    Also measures the video series (``video_*`` config keys): the
    rateless half of the ``video`` experiment on a tiny generated
    workload, reported as fountain symbols accepted by the decoder
    per wall second (``video_symbols_per_sec``, gated) — fountain
    encode, surrogate PHY round trip, chunk salvage and incremental
    GF(2) row reduction all on the hot path.
    """
    import tempfile

    from repro.campaigns.runner import CampaignRunner
    from repro.campaigns.stock import get_campaign
    from repro.experiments.api import execute_task

    cfg = dict(DEFAULT_CAMPAIGN_CONFIG, **(config or {}))
    matrix = get_campaign(str(cfg["campaign"]))
    scenarios = matrix.expand()

    def bare_pass() -> None:
        for scenario in scenarios:
            execute_task(scenario.experiment, scenario.module,
                         scenario.params)

    # Untimed warm-up: fills the in-process trace pool and lazy
    # imports, so the bare and campaign measurements below see the
    # same warm caches (otherwise whichever runs first pays the
    # one-time costs and the efficiency ratio is meaningless).
    bare_pass()
    repeats = int(cfg.get("repeats", cfg.get("reference_repeats", 1)))

    def campaign_pass() -> float:
        # Fresh cache per repeat: resuming a completed campaign would
        # time checkpoint reads, not scenario execution.
        with tempfile.TemporaryDirectory() as cache:
            runner = CampaignRunner(jobs=int(cfg["jobs"]),
                                    cache_dir=cache)
            start = time.perf_counter()
            status = runner.run(matrix)
            elapsed = time.perf_counter() - start
        if status.completed != len(scenarios):
            raise RuntimeError(
                f"benchmark campaign incomplete: {status.completed}/"
                f"{len(scenarios)} scenarios")
        return elapsed

    # Pair the bare and orchestrated passes within each repeat and
    # gate on the median paired ratio — scheduler load drifts across
    # the run, and a ratio of two minima taken in different windows
    # flaps where the within-window ratio does not.
    orch_pairs = []
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        bare_pass()
        orch_pairs.append((time.perf_counter() - start,
                           campaign_pass()))
    bare_s = min(b for b, _ in orch_pairs)
    campaign_s = min(c for _, c in orch_pairs)
    orch_ratios = sorted(b / c for b, c in orch_pairs)
    orchestration_ratio = orch_ratios[len(orch_ratios) // 2]

    # Supervision series: identical pooled runs, watchdog off vs on.
    def pooled_run(timeout_s: Optional[float]) -> float:
        import tempfile as _tempfile
        with _tempfile.TemporaryDirectory() as cache:
            runner = CampaignRunner(
                jobs=int(cfg.get("supervised_jobs", 2)),
                cache_dir=cache, timeout_s=timeout_s,
                max_retries=int(cfg.get("supervised_retries", 2)))
            start = time.perf_counter()
            result = runner.run(matrix)
            elapsed = time.perf_counter() - start
        if result.completed != len(scenarios):
            raise RuntimeError(
                f"benchmark campaign incomplete: {result.completed}/"
                f"{len(scenarios)} scenarios")
        return elapsed

    # Pair the plain-pool and supervised runs within each repeat and
    # gate on the median paired ratio: pool wall times jitter with
    # scheduler load, and the ratio of two minima taken in different
    # windows flaps where the ratio within one window does not.
    pool_pairs = [
        (pooled_run(None),
         pooled_run(float(cfg.get("supervised_timeout_s", 120.0))))
        for _ in range(max(repeats, 1))]
    pool_s = min(p for p, _ in pool_pairs)
    supervised_s = min(s for _, s in pool_pairs)
    pool_ratios = sorted(p / s for p, s in pool_pairs)
    supervision_ratio = pool_ratios[len(pool_ratios) // 2]

    # MAC-engine series: the same saturated cell on the event-driven
    # oracle and the slot-synchronous engine.  The digests must match
    # — a speedup over an engine computing something different would
    # be meaningless.
    from repro.experiments.cell import run_cell

    n_stations = int(cfg["engine_n_clients"])
    horizon = float(cfg["engine_duration"])
    digests: Dict[str, float] = {}

    def engine_pass(mac_engine: str) -> None:
        out = run_cell(protocol=str(cfg["engine_protocol"]),
                       channel=str(cfg["engine_channel"]),
                       n_clients=n_stations, duration=horizon,
                       trace_pool=int(cfg["engine_trace_pool"]),
                       phy_backend=None, workload="mac",
                       mac_engine=mac_engine)
        digests[mac_engine] = out["frame_log_digest"]

    engine_pass("event")            # warm the trace pool + imports
    engine_pass("slot")
    if digests["event"] != digests["slot"]:
        raise RuntimeError(
            "MAC-engine benchmark invalid: frame-log digests differ "
            f"between engines ({digests['event']:.0f} vs "
            f"{digests['slot']:.0f})")
    event_s = _best_of(repeats, lambda: engine_pass("event"))
    slot_s = _best_of(repeats, lambda: engine_pass("slot"))
    station_seconds = n_stations * horizon

    # Video series: the rateless-over-PPR pipeline end to end on the
    # surrogate backend.  Symbols/sec covers fountain encode, the
    # PHY round trip, chunk salvage and the incremental GF(2) row
    # reduction — the whole per-symbol cost of the video workload.
    from repro.experiments.video import run_video

    video_symbols = {"n": 0.0}

    def video_pass() -> None:
        out = run_video(
            scheme="rateless", workload="generated",
            video_duration=float(cfg.get("video_duration", 0.8)),
            video_bitrate_bps=float(cfg.get("video_bitrate_bps",
                                            1.2e5)),
            mean_snr_db=float(cfg.get("video_snr_db", 8.0)),
            seed=int(cfg.get("video_seed", 1)))
        video_symbols["n"] = out["rateless/symbols_received"]

    video_pass()                        # warm trace caches + imports
    video_s = _best_of(repeats, video_pass)

    return {
        "video_wall_s": video_s,
        "video_symbols_per_sec": video_symbols["n"] / video_s,
        "scenarios_per_hour": 3600.0 * len(scenarios) / campaign_s,
        "campaign_wall_s": campaign_s,
        "bare_cells_wall_s": bare_s,
        "orchestration_efficiency": orchestration_ratio,
        "pool_wall_s": pool_s,
        "supervised_wall_s": supervised_s,
        "supervision_efficiency": supervision_ratio,
        "event_station_seconds_per_sec": station_seconds / event_s,
        "slot_station_seconds_per_sec": station_seconds / slot_s,
        "slot_vs_event_speedup": event_s / slot_s,
    }


_SUITES = {
    "phy": (PHY_BENCH_FILE, _PHY_SCHEMA, DEFAULT_PHY_CONFIG,
            measure_phy, ("batched_speedup", "surrogate_speedup")),
    "campaigns": (CAMPAIGN_BENCH_FILE, _CAMPAIGN_SCHEMA,
                  DEFAULT_CAMPAIGN_CONFIG, measure_campaigns,
                  ("orchestration_efficiency",
                   "supervision_efficiency",
                   "slot_vs_event_speedup",
                   "video_symbols_per_sec")),
}


def write_benchmarks(output_dir: str = ".",
                     only: Optional[str] = None,
                     echo: Callable[[str], None] = print) -> List[str]:
    """Measure and (re)write the committed baseline files.

    Returns the paths written.  ``only`` restricts to one suite
    (``"phy"`` or ``"campaigns"``).
    """
    paths = []
    for name, (filename, schema, config, measure, gate) in \
            _SUITES.items():
        if only is not None and name != only:
            continue
        echo(f"bench {name}: measuring...")
        metrics = measure(config)
        payload = {"schema": schema, "config": config,
                   "gate": sorted(gate), "metrics": metrics}
        path = os.path.join(output_dir, filename)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        for key, value in sorted(metrics.items()):
            echo(f"  {key}: {value:.4g}")
        echo(f"bench {name}: wrote {path}")
        paths.append(path)
    return paths


def compare_gate(baseline: dict, metrics: Dict[str, float],
                 tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """One-sided gate comparison; returns failure messages.

    Only *drops* fail: a gate metric may improve without limit, but
    falling more than ``tolerance`` below the committed baseline is a
    regression.
    """
    failures = []
    for key in baseline.get("gate", ()):
        old = float(baseline["metrics"][key])
        new = float(metrics[key])
        floor = old * (1.0 - tolerance)
        if new < floor:
            failures.append(
                f"{key}: {new:.4g} < {floor:.4g} "
                f"(baseline {old:.4g}, tolerance {tolerance:.0%})")
    return failures


def check_benchmarks(output_dir: str = ".",
                     only: Optional[str] = None,
                     tolerance: float = DEFAULT_TOLERANCE,
                     echo: Callable[[str], None] = print) -> int:
    """Re-measure with each committed baseline's embedded config and
    gate the ratios.  Returns a process exit code (0 = pass).
    """
    status = 0
    for name, (filename, schema, _default, measure, _gate) in \
            _SUITES.items():
        if only is not None and name != only:
            continue
        path = os.path.join(output_dir, filename)
        if not os.path.exists(path):
            echo(f"bench {name}: MISSING baseline {path} "
                 f"(run `repro bench` to create it)")
            status = 1
            continue
        with open(path) as fh:
            baseline = json.load(fh)
        if baseline.get("schema") != schema:
            echo(f"bench {name}: unknown schema "
                 f"{baseline.get('schema')!r} in {path}")
            status = 1
            continue
        echo(f"bench {name}: re-measuring with committed config...")
        metrics = measure(baseline.get("config"))
        failures = compare_gate(baseline, metrics, tolerance)
        if failures:
            # One retry before failing: wall-clock benches on shared
            # CI runners see transient noise beyond the tolerance; a
            # real regression fails both measurements.
            echo(f"bench {name}: below floor, re-measuring once to "
                 f"rule out machine noise...")
            retry = measure(baseline.get("config"))
            metrics = {key: max(metrics[key], retry[key])
                       for key in metrics}
            failures = compare_gate(baseline, metrics, tolerance)
        for key in baseline.get("gate", ()):
            echo(f"  {key}: baseline "
                 f"{float(baseline['metrics'][key]):.4g} -> measured "
                 f"{float(metrics[key]):.4g}")
        if failures:
            for failure in failures:
                echo(f"bench {name}: FAIL {failure}")
            status = 1
        else:
            echo(f"bench {name}: ok")
    return status

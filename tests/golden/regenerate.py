#!/usr/bin/env python
"""Regenerate the golden PHY, MAC, mesh, video and trace fixtures.

The PHY goldens (``phy_ber_points.json``) pin fig07/fig08-style BER
points at fixed seeds: small, fully deterministic Monte Carlo runs
whose per-frame BER estimates, ground truths, and SNR estimates are
committed as JSON.  The MAC goldens (``mac_throughput.json``) pin
per-protocol throughput points of a small fixed contention scenario
under both PHY backends — delivered frame counts, aggregate Mbps, and
an exact frame-log digest.  The mesh goldens (``mesh_chain.json``)
do the same for a fixed 2-hop relay chain.  The regression test
(``tests/test_golden_regression.py``) re-runs the same configurations
and asserts the numbers still match within a tight tolerance, so a
PHY *or MAC* refactor cannot silently shift the paper's curves.  The
fading-trace pin (``fading_traces.json``, replayed by
``tests/traces/test_generate.py``) is exact instead: it holds sha256
hashes of every ``LinkTrace`` array and of the generator's RNG state.

Run from the repository root (only needed when a change is *supposed*
to alter PHY numerics — say so in the commit message):

    PYTHONPATH=src python tests/golden/regenerate.py

The configuration of each golden lives inside the fixture file itself;
the test replays whatever config it finds, so regenerating with a new
config here never desynchronises the two.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "phy_ber_points.json")
MAC_GOLDEN_PATH = os.path.join(GOLDEN_DIR, "mac_throughput.json")

#: The pinned configurations.  Small enough to run in seconds, broad
#: enough to cover every modulation, both puncturing rates, padded
#: tails, and (fig08) fading channels with per-frame noise estimates.
CONFIGS = {
    "fig07": {
        "seed": 7,
        "payload_bits": 368,
        "frames_per_point": 2,
        "snr_grid_db": [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0],
        "rate_indices": [0, 1, 2, 3, 4, 5],
    },
    "fig08": {
        "seed": 8,
        "payload_bits": 368,
        "n_frames": 8,
        "rate_index": 3,
    },
}


def compute_fig07(config):
    from repro.experiments.fig07_static import run_fig7

    data = run_fig7(seed=config["seed"],
                    payload_bits=config["payload_bits"],
                    frames_per_point=config["frames_per_point"],
                    snr_grid_db=np.asarray(config["snr_grid_db"]),
                    rate_indices=list(config["rate_indices"]))
    return {
        "estimates": data.estimates.tolist(),
        "truths": data.truths.tolist(),
        "snr_estimates": data.snr_estimates.tolist(),
        "error_counts": data.error_counts.astype(int).tolist(),
        "rate_indices": data.rate_indices.astype(int).tolist(),
    }


def compute_fig08(config):
    from repro.experiments.fig08_mobile import run_fig8

    data = run_fig8(seed=config["seed"],
                    payload_bits=config["payload_bits"],
                    n_frames=config["n_frames"],
                    rate_index=config["rate_index"])
    out = {}
    for label in sorted(data.estimates):
        out[label] = {
            "estimates": data.estimates[label].tolist(),
            "truths": data.truths[label].tolist(),
            "snrs": data.snrs[label].tolist(),
        }
    return out


COMPUTERS = {"fig07": compute_fig07, "fig08": compute_fig08}

#: The pinned MAC-level contention scenario: two clients flood the AP
#: with small frames for 20 ms over a static short-range channel —
#: the cheapest configuration that exercises contention, backoff and
#: rate adaptation under *both* PHY backends (the full backend decodes
#: every frame bit-exactly, so the run must stay tiny).
MAC_CONFIG = {
    "seed": 3,
    "trace_seed": 42,
    "payload_bits": 368,
    "duration": 0.02,
    "trace_duration": 0.12,
    "n_clients": 2,
    "mean_snr_db": 14.0,
    "protocols": ["softrate", "rraa", "samplerate"],
    "backends": ["surrogate", "full"],
    "engines": ["event", "slot"],
}


def compute_mac_point(config, backend, protocol, engine="event"):
    """One (backend, protocol, engine) point of the MAC golden."""
    from repro.analysis.metrics import frame_log_digest
    from repro.experiments.common import protocol_factory
    from repro.sim.slotmac import run_slot_contention
    from repro.sim.topology import run_mac_contention
    from repro.traces.workloads import link_traces

    traces = link_traces(
        "static", config["n_clients"], config["trace_seed"],
        config["trace_duration"], mean_snr_db=config["mean_snr_db"],
        payload_bits=config["payload_bits"])
    run_contention = run_mac_contention if engine == "event" \
        else run_slot_contention
    result = run_contention(
        traces, protocol_factory(protocol),
        n_clients=config["n_clients"], duration=config["duration"],
        payload_bits=config["payload_bits"], seed=config["seed"],
        phy_backend=backend)
    return {
        "per_client_frames": list(result.per_client_frames),
        "aggregate_mbps": result.aggregate_mbps,
        "n_attempts": sum(len(log)
                          for log in result.frame_logs.values()),
        "frame_log_digest": frame_log_digest(result.frame_logs),
    }


def compute_mac(config):
    points = {}
    for backend in config["backends"]:
        for protocol in config["protocols"]:
            for engine in config.get("engines", ["event"]):
                print(f"  mac: {backend}/{protocol}/{engine} ...",
                      flush=True)
                points[f"{backend}/{protocol}/{engine}"] = \
                    compute_mac_point(config, backend, protocol,
                                      engine)
    return points


#: The pinned mesh scenario: a static client pushing small frames over
#: a fixed 2-hop relay chain (client -> AP1 -> AP2 sink) for 20 ms.
#: Every hop runs its own rate adapter, so this pins the geometry ->
#: SNR -> per-hop SoftPHY feedback path end to end under both PHY
#: backends.
MESH_CONFIG = {
    "seed": 5,
    "payload_bits": 368,
    "duration": 0.02,
    "n_relays": 2,
    "spacing_m": 9.0,
    "protocols": ["softrate", "rraa"],
    "backends": ["surrogate", "full"],
}


def compute_mesh_point(config, backend, protocol):
    """One (backend, protocol) point of the mesh relay-chain golden."""
    from repro.analysis.metrics import frame_log_digest
    from repro.experiments.common import protocol_factory
    from repro.sim.mesh import run_mesh_scenario

    result = run_mesh_scenario(
        protocol_factory(protocol), duration=config["duration"],
        n_relays=config["n_relays"], spacing_m=config["spacing_m"],
        payload_bits=config["payload_bits"], seed=config["seed"],
        phy_backend=backend)
    return {
        "originated": result.originated,
        "delivered": len(result.delivered),
        "hop_counts": sorted(hops for _, hops in result.delivered),
        "n_attempts": sum(len(log)
                          for log in result.frame_logs.values()),
        "goodput_mbps": result.goodput_mbps,
        "frame_log_digest": frame_log_digest(result.frame_logs),
    }


def compute_mesh(config):
    points = {}
    for backend in config["backends"]:
        for protocol in config["protocols"]:
            print(f"  mesh: {backend}/{protocol} ...", flush=True)
            points[f"{backend}/{protocol}"] = \
                compute_mesh_point(config, backend, protocol)
    return points


MESH_GOLDEN_PATH = os.path.join(GOLDEN_DIR, "mesh_chain.json")

#: The pinned video QoE scenario: a tiny generated GoP workload
#: streamed under both schemes over the fig16-style fading link —
#: the rateless-over-PPR vs plain-ARQ comparison the ``video``
#: experiment ships, under both PHY backends.  The per-frame decode-
#: time digest is exact, so any drift in the fountain codec, the
#: salvage rule, or the streaming loop shows up immediately.
VIDEO_CONFIG = {
    "seed": 1,
    "workload": "generated",
    "video_duration": 0.8,
    "video_bitrate_bps": 1.2e5,
    "mean_snr_db": 8.0,
    "backends": ["surrogate", "full"],
}


def compute_video_point(config, backend):
    """One backend's point of the video QoE golden."""
    from repro.experiments.video import run_video

    metrics = run_video(
        workload=config["workload"],
        video_duration=config["video_duration"],
        video_bitrate_bps=config["video_bitrate_bps"],
        mean_snr_db=config["mean_snr_db"], seed=config["seed"],
        phy_backend=backend)
    return {key: metrics[key] for key in sorted(metrics)}


def compute_video(config):
    points = {}
    for backend in config["backends"]:
        print(f"  video: {backend} ...", flush=True)
        points[backend] = compute_video_point(config, backend)
    return points


VIDEO_GOLDEN_PATH = os.path.join(GOLDEN_DIR, "video_qoe.json")


#: Every argument of a direct ``generate_fading_trace`` case.
#: ``rates`` names a table (``prototype`` is the six-rate default,
#: ``full`` all of ``RATE_TABLE``), ``mode`` a key of ``MODES``, and
#: ``mean_snr_db`` is a constant.
_DIRECT_DEFAULTS = {
    "seed": 11, "duration": 0.1, "mean_snr_db": 15.0, "doppler_hz": 40.0,
    "slot_duration": 5e-3, "payload_bits": 11200, "rates": "prototype",
    "mode": "simulation", "n_symbol_samples": 32,
    "snr_ceiling_db": 23.0, "snr_jitter_db": 1.5,
}


def _direct(**overrides):
    return {"kind": "direct", **_DIRECT_DEFAULTS, **overrides}


#: The pinned fading-trace cases: the three channels of
#: :func:`repro.traces.workloads.link_traces` at two seeds each, one
#: full-length 10 s walking trace, and direct
#: :func:`generate_fading_trace` calls that each move one knob off its
#: default.  A channel case's ``kind`` names its channel through
#: :data:`_CHANNEL_KINDS`.
TRACE_CASES = {
    "walking/2009": {"kind": "walking_traces", "n_links": 2,
                     "duration": 0.5, "seed": 2009},
    "walking/31": {"kind": "walking_traces", "n_links": 2,
                   "duration": 0.5, "seed": 31},
    "walking/10s": {"kind": "walking_traces", "n_links": 1,
                    "duration": 10.0, "seed": 2009},
    "simulation/2009": {"kind": "simulation_traces", "doppler_hz": 400.0,
                        "n_links": 2, "duration": 0.5,
                        "mean_snr_db": 18.0, "seed": 2009},
    "simulation/77": {"kind": "simulation_traces", "doppler_hz": 4000.0,
                      "n_links": 2, "duration": 0.5, "mean_snr_db": 12.0,
                      "seed": 77},
    "static/2009": {"kind": "static_short_range_traces", "n_links": 2,
                    "duration": 0.5, "mean_snr_db": 16.0, "seed": 2009},
    "static/42": {"kind": "static_short_range_traces", "n_links": 2,
                  "duration": 0.5, "mean_snr_db": 14.0, "seed": 42},
    "direct/defaults": _direct(),
    "direct/one-slot": _direct(duration=5e-3),
    "direct/no-jitter": _direct(snr_jitter_db=0.0),
    "direct/one-sample": _direct(n_symbol_samples=1),
    "direct/seven-samples": _direct(n_symbol_samples=7),
    "direct/short-payload": _direct(payload_bits=368),
    "direct/full-rate-table": _direct(rates="full", mean_snr_db=24.0),
    "direct/long-range": _direct(mode="long_range", doppler_hz=0.5),
    "direct/short-range": _direct(mode="short_range"),
    "direct/simulation-mode": _direct(mode="simulation",
                                      doppler_hz=4000.0),
    "direct/1ms-slots": _direct(slot_duration=1e-3, duration=0.3),
    "direct/deep-fades": _direct(mean_snr_db=4.0, snr_ceiling_db=30.0,
                                 duration=0.0123),
    # Seeds whose preamble fades include a |h|^2 that libm's pow and
    # a plain square round differently, down to the SNR columns.
    "direct/seed-62": _direct(seed=62, duration=0.5),
    "direct/seed-466": _direct(seed=466, duration=0.5, n_symbol_samples=7),
}


#: The channel each ``link_traces`` case kind generates.
_CHANNEL_KINDS = {"walking_traces": "walking",
                  "simulation_traces": "fading",
                  "static_short_range_traces": "static"}

#: The ``LinkTrace`` arrays the trace pin hashes.
TRACE_ARRAYS = ("snr_db", "true_snr_db", "detected", "ber_true",
                "ber_est", "delivered", "loss_prob")


def _array_hash(array):
    """sha256 of an array's dtype, shape and bytes."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(array.dtype.str.encode())
    digest.update(repr(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def _rng_hash(rng):
    """sha256 of a generator's bit-generator state."""
    state = json.dumps(rng.bit_generator.state, sort_keys=True)
    return hashlib.sha256(state.encode()).hexdigest()


def compute_trace_case(config):
    """Hashes of every trace one case generates, in generation order.

    Each entry hashes every ``LinkTrace`` array and the RNG state the
    generator left behind; channel cases record that state by wrapping
    the generator where ``repro.traces.workloads`` looks it up.
    """
    from repro.phy.rates import MODES, RATE_TABLE
    from repro.traces import workloads

    generator = workloads.generate_fading_trace
    states = []

    def recording(rng, *args, **kwargs):
        trace = generator(rng, *args, **kwargs)
        states.append(_rng_hash(rng))
        return trace

    params = {k: v for k, v in config.items() if k != "kind"}
    if config["kind"] == "direct":
        rng = np.random.default_rng(params.pop("seed"))
        mean = params.pop("mean_snr_db")
        table = params.pop("rates")
        traces = [recording(
            rng, mean_snr_db=lambda t: mean,
            rates=RATE_TABLE if table == "full"
            else RATE_TABLE.prototype_subset(),
            mode=MODES[params.pop("mode")], **params)]
    else:
        workloads.generate_fading_trace = recording
        try:
            traces = workloads.link_traces(
                _CHANNEL_KINDS[config["kind"]], params.pop("n_links"),
                params.pop("seed"), params.pop("duration"), **params)
        finally:
            workloads.generate_fading_trace = generator
    return [{"arrays": {name: _array_hash(getattr(trace, name))
                        for name in TRACE_ARRAYS},
             "rate_names": list(trace.rate_names),
             "slot_duration": trace.slot_duration,
             "rng_state": state}
            for trace, state in zip(traces, states)]


TRACE_GOLDEN_PATH = os.path.join(GOLDEN_DIR, "fading_traces.json")


def write_trace_golden() -> None:
    """Write ``fading_traces.json`` from :data:`TRACE_CASES`."""
    cases = {}
    for name, config in TRACE_CASES.items():
        print(f"  traces: {name} ...", flush=True)
        cases[name] = {"config": config,
                       "traces": compute_trace_case(config)}
    with open(TRACE_GOLDEN_PATH, "w") as fh:
        json.dump({"cases": cases}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {TRACE_GOLDEN_PATH}")


def main() -> int:
    goldens = {}
    for name, config in CONFIGS.items():
        print(f"computing {name} golden ...", flush=True)
        goldens[name] = {"config": config,
                         "arrays": COMPUTERS[name](config)}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    print("computing mac golden ...", flush=True)
    mac = {"config": MAC_CONFIG, "points": compute_mac(MAC_CONFIG)}
    with open(MAC_GOLDEN_PATH, "w") as fh:
        json.dump(mac, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {MAC_GOLDEN_PATH}")
    print("computing mesh golden ...", flush=True)
    mesh = {"config": MESH_CONFIG, "points": compute_mesh(MESH_CONFIG)}
    with open(MESH_GOLDEN_PATH, "w") as fh:
        json.dump(mesh, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {MESH_GOLDEN_PATH}")
    print("computing video golden ...", flush=True)
    video = {"config": VIDEO_CONFIG,
             "points": compute_video(VIDEO_CONFIG)}
    with open(VIDEO_GOLDEN_PATH, "w") as fh:
        json.dump(video, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {VIDEO_GOLDEN_PATH}")
    print("computing fading-trace pin ...", flush=True)
    write_trace_golden()
    return 0


if __name__ == "__main__":
    sys.exit(main())

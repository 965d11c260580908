"""Golden-parity regression: refactors cannot shift paper curves.

``tests/golden/phy_ber_points.json`` pins per-frame BER estimates,
ground-truth BERs, and SNR estimates of small fig07/fig08-style runs
at fixed seeds; ``tests/golden/mac_throughput.json`` pins MAC-level
per-protocol throughput points of a small fixed contention scenario
under both PHY backends.  These tests replay the configuration stored
*inside* each fixture and assert the numbers match within a tight
tolerance — exact determinism modulo floating-point library variation
across platforms.

If a change is *supposed* to alter PHY numerics, regenerate with

    PYTHONPATH=src python tests/golden/regenerate.py

and call the curve shift out in the commit message.
"""

import json
import os

import numpy as np
import pytest

_GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "golden", "phy_ber_points.json")
_MAC_GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "golden", "mac_throughput.json")
_MESH_GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "golden", "mesh_chain.json")
_VIDEO_GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "golden", "video_qoe.json")

#: Tight but not bit-exact: exp/log implementations may differ in the
#: last ulp across platforms/BLAS builds, and BER estimates span ~60
#: decades, so tiny values are compared absolutely.
_RTOL = 1e-6
_ATOL = 1e-12


@pytest.fixture(scope="module")
def goldens():
    with open(_GOLDEN_PATH) as fh:
        return json.load(fh)


def _assert_close(name, got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape, \
        f"{name}: shape {got.shape} != golden {want.shape}"
    if not np.allclose(got, want, rtol=_RTOL, atol=_ATOL):
        bad = ~np.isclose(got, want, rtol=_RTOL, atol=_ATOL)
        idx = int(np.argmax(bad))
        raise AssertionError(
            f"{name}: {int(bad.sum())}/{bad.size} points shifted; "
            f"first at index {idx}: got {got.flat[idx]!r}, golden "
            f"{want.flat[idx]!r}.  If the change is intentional, "
            f"regenerate with tests/golden/regenerate.py")


def test_fig07_ber_points_match_golden(goldens):
    from repro.experiments.fig07_static import run_fig7

    config = goldens["fig07"]["config"]
    arrays = goldens["fig07"]["arrays"]
    data = run_fig7(seed=config["seed"],
                    payload_bits=config["payload_bits"],
                    frames_per_point=config["frames_per_point"],
                    snr_grid_db=np.asarray(config["snr_grid_db"]),
                    rate_indices=list(config["rate_indices"]))
    _assert_close("fig07.estimates", data.estimates,
                  arrays["estimates"])
    _assert_close("fig07.truths", data.truths, arrays["truths"])
    _assert_close("fig07.snr_estimates", data.snr_estimates,
                  arrays["snr_estimates"])
    assert np.array_equal(data.error_counts,
                          np.asarray(arrays["error_counts"]))
    assert np.array_equal(data.rate_indices,
                          np.asarray(arrays["rate_indices"]))


def test_fig07_golden_independent_of_batch_size(goldens, monkeypatch):
    """The sweeps' stack size cannot shift the goldens either."""
    from repro.experiments.fig07_static import run_fig7
    from repro.phy import batch
    from repro.phy.transceiver import Transceiver

    config = goldens["fig07"]["config"]
    arrays = goldens["fig07"]["arrays"]
    monkeypatch.setattr(batch, "FRAMES_PER_DECODE", 1)
    sizes, receive_batch = [], Transceiver.receive_batch

    def spy(phy, rx_symbols, *args, **kwargs):
        sizes.append(len(rx_symbols))
        return receive_batch(phy, rx_symbols, *args, **kwargs)

    monkeypatch.setattr(Transceiver, "receive_batch", spy)
    data = run_fig7(seed=config["seed"],
                    payload_bits=config["payload_bits"],
                    frames_per_point=config["frames_per_point"],
                    snr_grid_db=np.asarray(config["snr_grid_db"]),
                    rate_indices=list(config["rate_indices"]))
    assert set(sizes) == {1}
    _assert_close("fig07.estimates@batch1", data.estimates,
                  arrays["estimates"])


@pytest.fixture(scope="module")
def mac_golden():
    with open(_MAC_GOLDEN_PATH) as fh:
        return json.load(fh)


def _mac_point_ids():
    with open(_MAC_GOLDEN_PATH) as fh:
        return sorted(json.load(fh)["points"])


@pytest.mark.parametrize("point", _mac_point_ids())
def test_mac_throughput_point_matches_golden(mac_golden, point):
    """MAC-level golden: a contention scenario's throughput, frame
    counts and exact frame-log digest are pinned per (backend,
    protocol, engine) — a MAC, rate-adaptation or backend refactor
    cannot silently shift the paper's contention results, on either
    the event-driven or the slot-synchronous engine."""
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "golden"))
    try:
        from regenerate import compute_mac_point
    finally:
        sys.path.pop(0)

    parts = point.split("/")
    backend, protocol = parts[0], parts[1]
    engine = parts[2] if len(parts) > 2 else "event"
    want = mac_golden["points"][point]
    got = compute_mac_point(mac_golden["config"], backend, protocol,
                            engine)
    assert got["per_client_frames"] == want["per_client_frames"], \
        f"{point}: delivered frame counts shifted"
    assert got["n_attempts"] == want["n_attempts"], \
        f"{point}: transmission attempt count shifted"
    # The exact frame-log digest (float timestamps via repr) is only
    # pinned for the table-driven surrogate; under the full BCJR
    # pipeline a last-ulp libm/BLAS difference across platforms could
    # legitimately shift it (the same reason _RTOL exists above).
    if backend == "surrogate":
        assert got["frame_log_digest"] == want["frame_log_digest"], \
            f"{point}: frame logs shifted (regenerate if intentional)"
    assert got["aggregate_mbps"] == \
        pytest.approx(want["aggregate_mbps"], rel=_RTOL)


@pytest.fixture(scope="module")
def mesh_golden():
    with open(_MESH_GOLDEN_PATH) as fh:
        return json.load(fh)


def _mesh_point_ids():
    with open(_MESH_GOLDEN_PATH) as fh:
        return sorted(json.load(fh)["points"])


def _golden_module():
    import importlib
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "golden"))
    try:
        return importlib.import_module("regenerate")
    finally:
        sys.path.pop(0)


@pytest.mark.parametrize("point", _mesh_point_ids())
def test_mesh_chain_point_matches_golden(mesh_golden, point):
    """Mesh-level golden: a fixed 2-hop relay chain's frame counts,
    hop counts and exact frame-log digest are pinned per (backend,
    protocol) — a geometry, channel or forwarding refactor cannot
    silently shift multi-hop results."""
    compute_mesh_point = _golden_module().compute_mesh_point

    backend, protocol = point.split("/")
    want = mesh_golden["points"][point]
    got = compute_mesh_point(mesh_golden["config"], backend, protocol)
    assert got["originated"] == want["originated"], \
        f"{point}: originated packet count shifted"
    assert got["delivered"] == want["delivered"], \
        f"{point}: end-to-end delivery count shifted"
    assert got["hop_counts"] == want["hop_counts"], \
        f"{point}: delivered hop counts shifted"
    assert got["n_attempts"] == want["n_attempts"], \
        f"{point}: transmission attempt count shifted"
    # Same policy as the MAC golden: the exact digest is pinned only
    # for the table-driven surrogate backend (see comment above).
    if backend == "surrogate":
        assert got["frame_log_digest"] == want["frame_log_digest"], \
            f"{point}: frame logs shifted (regenerate if intentional)"
    assert got["goodput_mbps"] == \
        pytest.approx(want["goodput_mbps"], rel=_RTOL)


@pytest.fixture(scope="module")
def video_golden():
    with open(_VIDEO_GOLDEN_PATH) as fh:
        return json.load(fh)


def _video_point_ids():
    with open(_VIDEO_GOLDEN_PATH) as fh:
        return sorted(json.load(fh)["points"])


@pytest.mark.parametrize("backend", _video_point_ids())
def test_video_qoe_point_matches_golden(video_golden, backend):
    """Video-level golden: the rateless-vs-ARQ QoE point of a tiny
    pinned workload — decodable-frame rates, rebuffer times, packet
    counts and exact decode-time digests per backend — so a fountain-
    codec, salvage-rule or streaming-loop refactor cannot silently
    shift the video comparison."""
    compute_video_point = _golden_module().compute_video_point

    want = video_golden["points"][backend]
    got = compute_video_point(video_golden["config"], backend)
    assert sorted(got) == sorted(want), \
        f"video/{backend}: metric set changed"
    for key in ("arq/packets", "rateless/packets",
                "rateless/poisoned_frames"):
        assert got[key] == want[key], f"video/{backend}: {key} shifted"
    # Decode-time digests are exact on the surrogate; under the full
    # BCJR pipeline a last-ulp libm difference could legitimately move
    # a marginal frame (same policy as the MAC/mesh goldens).
    if backend == "surrogate":
        for key in ("arq/digest", "rateless/digest"):
            assert got[key] == want[key], \
                f"video/{backend}: {key} shifted (regenerate if " \
                f"intentional)"
    for key in want:
        if key.endswith("digest"):
            continue
        assert got[key] == pytest.approx(want[key], rel=_RTOL,
                                         abs=_ATOL), \
            f"video/{backend}: {key} shifted"


def test_fig08_ber_points_match_golden(goldens):
    from repro.experiments.fig08_mobile import run_fig8

    config = goldens["fig08"]["config"]
    arrays = goldens["fig08"]["arrays"]
    data = run_fig8(seed=config["seed"],
                    payload_bits=config["payload_bits"],
                    n_frames=config["n_frames"],
                    rate_index=config["rate_index"])
    assert sorted(data.estimates) == sorted(arrays)
    for label in sorted(arrays):
        _assert_close(f"fig08.{label}.estimates",
                      data.estimates[label],
                      arrays[label]["estimates"])
        _assert_close(f"fig08.{label}.truths", data.truths[label],
                      arrays[label]["truths"])
        _assert_close(f"fig08.{label}.snrs", data.snrs[label],
                      arrays[label]["snrs"])

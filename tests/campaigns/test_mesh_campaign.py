"""Determinism wall for the mesh campaign family.

The mesh experiment runs a different simulator stack (geometry-driven
channel, per-hop adapters, roaming scans) than the single-cell
experiments the campaign engine was built around, so it gets its own
serial == pooled digest check: every scheduled scan, handoff and
per-link fading draw must be a pure function of the scenario params.
"""

import math

import pytest

from repro.campaigns import CampaignRunner, ResultStore
from repro.campaigns.matrix import Axis, CampaignMatrix
from repro.campaigns.stock import get_campaign

#: Four tiny mesh cells: both a static and a roaming-with-shadowing
#: column so handoff scheduling is inside the determinism wall.
MATRIX = CampaignMatrix(
    name="mesh-det", experiment="mesh",
    axes=(Axis("protocol", ("softrate", "rraa")),
          Axis("speed_mps", (0.0, 30.0))),
    base={"n_relays": 2, "duration": 0.03,
          "shadowing_sigma_db": 4.0, "phy_backend": "surrogate"},
    seed=41)


def _metrics_by_id(cache_dir):
    store = ResultStore(MATRIX, cache_dir=str(cache_dir))
    return {sid: record["metrics"]
            for sid, record in store.load_records().items()}


def _norm(metrics):
    return {k: None if isinstance(v, float) and math.isnan(v) else v
            for k, v in metrics.items()}


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    cache = tmp_path_factory.mktemp("mesh-serial")
    runner = CampaignRunner(jobs=1, cache_dir=str(cache))
    assert runner.run(MATRIX).done
    return cache


def test_pool_matches_serial(serial_run, tmp_path):
    runner = CampaignRunner(jobs=2, cache_dir=str(tmp_path))
    assert runner.run(MATRIX).done
    serial = _metrics_by_id(serial_run)
    pooled = _metrics_by_id(tmp_path)
    assert set(serial) == set(pooled)
    for sid in serial:
        assert _norm(serial[sid]) == _norm(pooled[sid]), \
            f"scenario {sid} diverged"


def test_digests_vary_across_scenarios(serial_run):
    """Distinct cells really simulate distinct worlds."""
    digests = [m["frame_log_digest"]
               for m in _metrics_by_id(serial_run).values()]
    assert len(set(digests)) == len(digests)


def test_stock_mesh_matrices_expand():
    assert len(get_campaign("mesh-smoke").expand()) == 8
    matrix = get_campaign("mesh-matrix")
    scenarios = matrix.expand()
    assert len(scenarios) == 4 * 3 * 3 * 3 * 3
    params = scenarios[0].params
    assert params["protocol"] in ("softrate", "samplerate", "rraa",
                                  "snr-untrained")
    assert {"n_relays", "shadowing_sigma_db",
            "speed_mps"} <= set(params)

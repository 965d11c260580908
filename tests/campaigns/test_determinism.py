"""The campaign determinism wall.

Same campaign seed => identical per-scenario results — including the
exact frame-log digest, i.e. every MAC transmission at every
timestamp — no matter how the campaign is executed: serially, over a
process pool, or split across any number of shard invocations.  This
is the property that makes checkpoints trustworthy (a resumed run
can't diverge from the uninterrupted one) and shards composable.
"""

import pytest

from repro.campaigns import CampaignRunner, ResultStore
from repro.campaigns.matrix import Axis, CampaignMatrix

#: A real-cell matrix small enough for four full executions: 6 tiny
#: contention sims on the surrogate backend, sharing one trace pool.
MATRIX = CampaignMatrix(
    name="det-wall", experiment="cell",
    axes=(Axis("protocol", ("softrate", "rraa")),
          Axis("mean_snr_db", (12.0, 22.0))),
    base={"channel": "static", "duration": 0.04, "n_clients": 2,
          "trace_pool": 1, "phy_backend": "surrogate"},
    seed=77)


def _metrics_by_id(cache_dir):
    store = ResultStore(MATRIX, cache_dir=str(cache_dir))
    return {sid: record["metrics"]
            for sid, record in store.load_records().items()}


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    cache = tmp_path_factory.mktemp("serial")
    runner = CampaignRunner(jobs=1, cache_dir=str(cache))
    assert runner.run(MATRIX).done
    return cache


def _norm(metrics):
    """NaN-tolerant comparison form (NaN == NaN when comparing)."""
    import math
    return {k: None if isinstance(v, float) and math.isnan(v) else v
            for k, v in metrics.items()}


def _assert_identical(metrics_a, metrics_b):
    assert set(metrics_a) == set(metrics_b)
    for sid in metrics_a:
        assert _norm(metrics_a[sid]) == _norm(metrics_b[sid]), \
            f"scenario {sid} diverged"


def test_pool_matches_serial(serial_run, tmp_path):
    runner = CampaignRunner(jobs=2, cache_dir=str(tmp_path))
    assert runner.run(MATRIX).done
    _assert_identical(_metrics_by_id(serial_run),
                      _metrics_by_id(tmp_path))


@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_matches_serial(serial_run, tmp_path, shards):
    for index in range(shards):
        CampaignRunner(jobs=1, cache_dir=str(tmp_path),
                       shard=(index, shards)).run(MATRIX)
    _assert_identical(_metrics_by_id(serial_run),
                      _metrics_by_id(tmp_path))


def test_frame_logs_pinned_exactly(serial_run, tmp_path):
    """The digest metric really is the frame log: rerunning one
    scenario in-process reproduces the checkpointed digest."""
    from repro.experiments.api import execute_task

    store = ResultStore(MATRIX, cache_dir=str(serial_run))
    scenario = MATRIX.expand()[0]
    record = store.load_records()[scenario.scenario_id]
    fresh = execute_task(scenario.experiment, scenario.module,
                         scenario.params)
    assert fresh["frame_log_digest"] == \
        record["metrics"]["frame_log_digest"]
    assert fresh["mbps"] == record["metrics"]["mbps"]


def test_reports_byte_identical_across_execution_modes(
        serial_run, tmp_path):
    runner = CampaignRunner(jobs=2, cache_dir=str(tmp_path))
    runner.run(MATRIX)
    a = CampaignRunner(cache_dir=str(serial_run)).report(
        MATRIX, write=False)
    b = runner.report(MATRIX, write=False)
    import json
    assert json.dumps(a, sort_keys=True) == \
        json.dumps(b, sort_keys=True)

"""Campaign runner semantics: resume, sharding, limits, reports.

These tests use the microsecond-scale ``camp-fast`` experiment so
runner logic is exercised without simulation cost; the determinism
wall over the real ``cell`` experiment lives in
``test_determinism.py``.
"""

import json
import os

import pytest

from repro.campaigns import (CampaignRunner, ResultStore,
                             get_campaign)
from repro.campaigns.matrix import Axis, CampaignMatrix
from repro.campaigns.runner import (CampaignStatus, parse_shard,
                                    state_exit_code)


def _matrix(replicates=2):
    return CampaignMatrix(
        name="rt", experiment="camp-fast",
        axes=(Axis("x", (1, 2, 3)), Axis("y", (0.0, 0.5))),
        replicates=replicates, seed=11)


class TestParseShard:
    def test_parses(self):
        assert parse_shard("0/1") == (0, 1)
        assert parse_shard("2/8") == (2, 8)
        assert parse_shard("0") == (0, 1)

    def test_rejects_bad_specs(self):
        for bad in ("x/2", "2/x", "-1/2", "2/2", "0/0", "3"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_rejects_malformed_separators(self):
        for bad in ("", "/", "1/", "/2", "1/2/3", " "):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_tolerates_whitespace_around_numbers(self):
        assert parse_shard("1 / 2") == (1, 2)   # int() strips spaces


class TestCampaignStatus:
    def test_pending_and_done_arithmetic(self, tmp_path):
        status = CampaignStatus(name="s", digest="d", total=8,
                                completed=3, directory=str(tmp_path))
        assert status.pending == 5
        assert not status.done and not status.failed
        full = CampaignStatus(name="s", digest="d", total=8,
                              completed=8, directory=str(tmp_path))
        assert full.pending == 0 and full.done and not full.failed

    def test_quarantined_counts_as_failed_until_completed(
            self, tmp_path):
        stuck = CampaignStatus(name="s", digest="d", total=8,
                               completed=6, directory=str(tmp_path),
                               quarantined=2)
        assert stuck.pending == 2 and stuck.failed and not stuck.done

    @pytest.mark.parametrize("fields, state, code", [
        (dict(completed=0, started=False), "not-started", 3),
        (dict(completed=8), "complete", 0),
        (dict(completed=8, quarantined=1), "complete", 0),
        (dict(completed=6, quarantined=2), "quarantined", 4),
        (dict(completed=6), "partial", 3),
        (dict(completed=0), "partial", 3),
    ])
    def test_state_and_exit_code(self, tmp_path, fields, state, code):
        status = CampaignStatus(name="s", digest="d", total=8,
                                directory=str(tmp_path), **fields)
        assert status.state == state
        assert state_exit_code(status.state) == code

    def test_states_outside_the_table_exit_1(self):
        assert state_exit_code("error") == 1
        assert state_exit_code("definitely-not-a-state") == 1


class TestRunnerValidation:
    def test_rejects_bad_supervision_parameters(self):
        with pytest.raises(ValueError, match="timeout_s"):
            CampaignRunner(timeout_s=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            CampaignRunner(max_retries=-1)
        with pytest.raises(ValueError, match="retry_backoff_s"):
            CampaignRunner(retry_backoff_s=-0.1)

    def test_timeout_alone_forces_supervised_pool(self):
        assert not CampaignRunner()._pooled
        assert CampaignRunner(jobs=2)._pooled
        assert CampaignRunner(timeout_s=10.0)._pooled


class TestRunAndResume:
    def test_full_run_checkpoints_everything(self, tmp_path):
        runner = CampaignRunner(cache_dir=str(tmp_path))
        status = runner.run(_matrix())
        assert status.done
        assert status.completed == status.total == 12
        store = ResultStore(_matrix(), cache_dir=str(tmp_path))
        assert len(store.load_records()) == 12

    def test_limit_then_resume(self, tmp_path):
        runner = CampaignRunner(cache_dir=str(tmp_path))
        partial = runner.run(_matrix(), limit=5)
        assert partial.completed == 5
        assert not partial.done
        resumed = runner.run(_matrix())
        assert resumed.done

    def test_resume_skips_completed_scenarios(self, tmp_path):
        lines = []
        runner = CampaignRunner(cache_dir=str(tmp_path),
                                progress=lines.append)
        runner.run(_matrix())
        lines.clear()
        status = runner.run(_matrix())
        assert status.done
        assert any("0 to run" in line for line in lines)

    def test_status_without_running(self, tmp_path):
        status = CampaignRunner(
            cache_dir=str(tmp_path)).status(_matrix())
        assert status.total == 12
        assert status.completed == 0
        assert status.pending == 12

    def test_status_ignores_stale_records(self, tmp_path):
        """Scenario ids can go stale (experiment defaults or the
        calibration fingerprint change) without the matrix digest
        moving; status must count only records matching the current
        expansion."""
        from repro.campaigns.checkpoint import make_record
        runner = CampaignRunner(cache_dir=str(tmp_path))
        runner.run(_matrix(), limit=3)
        store = ResultStore(_matrix(), cache_dir=str(tmp_path))
        stale = _matrix().expand()[5]
        stale = type(stale)(index=stale.index,
                            scenario_id="feedfacefeedface",
                            experiment=stale.experiment,
                            module=stale.module, params=stale.params,
                            seed=stale.seed)
        with store.writer("stale") as out:
            out.append(make_record(stale, {"value": 1.0}, 0.1))
        status = runner.status(_matrix())
        assert status.completed == 3
        resumed = runner.run(_matrix())
        assert resumed.completed == resumed.total == 12


class TestSharding:
    def test_shards_partition_the_matrix(self, tmp_path):
        matrix = _matrix()
        for index in range(3):
            CampaignRunner(cache_dir=str(tmp_path),
                           shard=(index, 3)).run(matrix)
        store = ResultStore(matrix, cache_dir=str(tmp_path))
        records = store.load_records()
        assert len(records) == 12
        indices = sorted(r["index"] for r in records.values())
        assert indices == list(range(12))

    def test_one_shard_owns_only_its_indices(self, tmp_path):
        matrix = _matrix()
        CampaignRunner(cache_dir=str(tmp_path),
                       shard=(1, 3)).run(matrix)
        store = ResultStore(matrix, cache_dir=str(tmp_path))
        indices = {r["index"] for r in store.load_records().values()}
        assert indices == {i for i in range(12) if i % 3 == 1}

    def test_invalid_shard_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignRunner(cache_dir=str(tmp_path), shard=(3, 3))


class TestReport:
    def test_rows_follow_canonical_order(self, tmp_path):
        runner = CampaignRunner(cache_dir=str(tmp_path))
        runner.run(_matrix())
        summary = runner.report(_matrix())
        assert summary["completed"] == 12
        assert [r["index"] for r in summary["rows"]] == list(range(12))
        assert summary["varied"] == ["replicate", "x", "y"]
        for row in summary["rows"]:
            assert {"x", "y", "replicate", "value",
                    "seed_echo"} <= set(row)

    def test_partial_report_covers_completed_only(self, tmp_path):
        runner = CampaignRunner(cache_dir=str(tmp_path))
        runner.run(_matrix(), limit=4)
        summary = runner.report(_matrix())
        assert summary["completed"] == 4
        assert summary["total_scenarios"] == 12

    def test_group_by_unknown_parameter_rejected(self, tmp_path):
        runner = CampaignRunner(cache_dir=str(tmp_path))
        runner.run(_matrix(), limit=2)
        with pytest.raises(ValueError, match="protocol"):
            runner.report(_matrix(), group_by=["protocol"])

    def test_grouped_means(self, tmp_path):
        runner = CampaignRunner(cache_dir=str(tmp_path))
        runner.run(_matrix())
        summary = runner.report(_matrix(), group_by=["x"])
        groups = summary["groups"]
        assert [g["x"] for g in groups] == [1, 2, 3]
        assert all(g["n"] == 4 for g in groups)

    def test_digest_metrics_kept_out_of_means(self, tmp_path):
        """Identity hashes stay in per-scenario rows but never enter
        aggregates or grouped means."""
        matrix = get_campaign("smoke-tiny")
        runner = CampaignRunner(cache_dir=str(tmp_path))
        runner.run(matrix)
        summary = runner.report(matrix, group_by=["protocol"])
        assert "frame_log_digest" not in summary["metrics"]
        assert "frame_log_digest" not in summary["aggregates"]
        assert all("frame_log_digest" not in g
                   for g in summary["groups"])
        assert all("frame_log_digest" in r for r in summary["rows"])

    def test_summary_written_to_store(self, tmp_path):
        runner = CampaignRunner(cache_dir=str(tmp_path))
        runner.run(_matrix())
        runner.report(_matrix())
        store = ResultStore(_matrix(), cache_dir=str(tmp_path))
        with open(store.summary_path) as fh:
            assert json.load(fh)["completed"] == 12

    def test_results_expand_and_read_the_store_once(self, tmp_path,
                                                    monkeypatch):
        """``results`` answers its status and its summary from one
        matrix expansion and one store read, and both match the
        separate ``status`` and ``report`` calls."""
        runner = CampaignRunner(cache_dir=str(tmp_path))
        runner.run(_matrix(), limit=5)
        want_status = runner.status(_matrix())
        want_summary = runner.report(_matrix())
        calls = {"load_records": 0, "expand": 0}

        def spy(cls, name):
            real = getattr(cls, name)

            def counted(self, *args, **kwargs):
                calls[name] += 1
                return real(self, *args, **kwargs)
            monkeypatch.setattr(cls, name, counted)
        spy(ResultStore, "load_records")
        spy(CampaignMatrix, "expand")
        payload = runner.results(_matrix())
        assert calls == {"load_records": 1, "expand": 1}
        assert payload == {"state": want_status.state, "completed": 5,
                           "total": 12, "quarantined": 0,
                           "summary": want_summary}

    def test_results_of_a_campaign_never_run(self, tmp_path):
        payload = CampaignRunner(
            cache_dir=str(tmp_path)).results(_matrix())
        assert payload == {"state": "not-started", "completed": 0,
                           "total": 12, "quarantined": 0}
        assert not os.listdir(str(tmp_path))

    def test_seed_fans_affect_metrics(self, tmp_path):
        """Replicates differ only in derived seed — and still produce
        different metrics, proving the seed actually lands."""
        runner = CampaignRunner(cache_dir=str(tmp_path))
        runner.run(_matrix())
        summary = runner.report(_matrix())
        by_cell = {}
        for row in summary["rows"]:
            by_cell.setdefault((row["x"], row["y"]),
                               []).append(row["seed_echo"])
        for echoes in by_cell.values():
            assert len(set(echoes)) == len(echoes)


class TestStockSmokeCampaign:
    def test_smoke_tiny_runs_and_reports(self, tmp_path):
        matrix = get_campaign("smoke-tiny")
        runner = CampaignRunner(cache_dir=str(tmp_path))
        status = runner.run(matrix)
        assert status.done and status.total == 8
        summary = runner.report(matrix, group_by=["protocol"])
        assert {g["protocol"] for g in summary["groups"]} == \
            {"softrate", "rraa"}
        assert all(g["mbps"] is not None for g in summary["groups"])

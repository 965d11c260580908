"""Tests for the command-line interface."""

import json
import os

import numpy as np
import pytest

from repro.cli import main


class TestRates:
    def test_prints_table(self, capsys):
        assert main(["rates"]) == 0
        out = capsys.readouterr().out
        assert "QPSK" in out and "18 Mbps" in out
        assert "long_range" in out


class TestTraceRoundtrip:
    def test_generate_and_inspect(self, tmp_path, capsys):
        path = str(tmp_path / "link.npz")
        assert main(["trace", path, "--duration", "1.0",
                     "--snr", "14"]) == 0
        out = capsys.readouterr().out
        assert "200 slots" in out
        assert main(["inspect", path]) == 0
        out = capsys.readouterr().out
        assert "BPSK 1/2" in out
        assert "delivered" in out

    def test_inspect_rejects_a_nan_loss_probability(self, tmp_path,
                                                    capsys):
        path = str(tmp_path / "link.npz")
        assert main(["trace", path, "--duration", "0.1"]) == 0
        with np.load(path) as data:
            arrays = {name: data[name].copy() for name in data.files}
        arrays["loss_prob"][2, 5] = np.nan
        np.savez_compressed(path, **arrays)
        capsys.readouterr()
        assert main(["inspect", path]) == 2
        captured = capsys.readouterr()
        assert "loss_prob" in captured.err
        assert "delivered" not in captured.out

    def test_walking_flag(self, tmp_path, capsys):
        path = str(tmp_path / "walk.npz")
        assert main(["trace", path, "--duration", "1.0",
                     "--walking"]) == 0
        from repro.traces.format import LinkTrace
        trace = LinkTrace.load(path)
        assert trace.n_slots == 200


class TestThresholds:
    def test_arq(self, capsys):
        assert main(["thresholds"]) == 0
        out = capsys.readouterr().out
        assert "QPSK 3/4" in out

    def test_harq_differs(self, capsys):
        main(["thresholds", "--recovery", "arq"])
        arq = capsys.readouterr().out
        main(["thresholds", "--recovery", "harq"])
        harq = capsys.readouterr().out
        assert arq != harq


class TestSimulate:
    def test_short_softrate_run(self, capsys):
        assert main(["simulate", "--duration", "1.0",
                     "--protocol", "softrate"]) == 0
        out = capsys.readouterr().out
        assert "softrate [tcp]:" in out
        assert "Mbps" in out

    def test_charm_protocol_reachable(self, capsys):
        assert main(["simulate", "--duration", "0.5",
                     "--protocol", "charm"]) == 0
        out = capsys.readouterr().out
        assert "charm [tcp]:" in out

    def test_snr_untrained_protocol_reachable(self, capsys):
        assert main(["simulate", "--duration", "0.5",
                     "--protocol", "snr-untrained"]) == 0
        out = capsys.readouterr().out
        assert "snr-untrained [tcp]:" in out

    def test_mac_workload_on_both_engines(self, capsys):
        outputs = {}
        for engine in ("event", "slot"):
            assert main(["simulate", "--workload", "mac",
                         "--engine", engine, "--clients", "3",
                         "--duration", "0.05",
                         "--protocol", "softrate"]) == 0
            out = capsys.readouterr().out
            assert f"softrate [mac/{engine}]:" in out
            outputs[engine] = out.split(":", 1)[1]
        # Same scenario, same numbers, whichever engine ran it.
        assert outputs["event"] == outputs["slot"]

    def test_slot_engine_requires_mac_workload(self, capsys):
        assert main(["simulate", "--engine", "slot",
                     "--duration", "0.05"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "workload" in err


class TestProtocolChoices:
    def test_cli_mirror_matches_common(self):
        from repro.cli import _PROTOCOL_CHOICES
        from repro.experiments.common import PROTOCOL_NAMES
        assert _PROTOCOL_CHOICES == PROTOCOL_NAMES


class TestList:
    def test_enumerates_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("cell", "fig01", "fig13", "tab01", "tab02"):
            assert name in out
        # 13 built-ins; test suites may have registered extras.
        import re
        count = int(re.search(r"(\d+) experiments registered",
                              out).group(1))
        assert count >= 13


class TestRun:
    def test_run_with_override_and_output(self, tmp_path, capsys):
        out_path = str(tmp_path / "result.json")
        assert main(["run", "fig01", "--set", "duration=0.5",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--output", out_path]) == 0
        out = capsys.readouterr().out
        assert "fade_depth_db" in out
        import json
        data = json.loads(open(out_path).read())
        assert data["experiment"] == "fig01"
        assert data["params"]["duration"] == 0.5

    def test_run_uses_cache_on_second_invocation(self, tmp_path,
                                                 capsys):
        args = ["run", "fig01", "--set", "duration=0.5",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "(cache)" in capsys.readouterr().out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "fig99", "--no-cache"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_parameter_fails_cleanly(self, capsys):
        assert main(["run", "fig01", "--set", "bogus=1",
                     "--no-cache"]) == 2
        assert "bogus" in capsys.readouterr().err


class TestSweep:
    def test_sweep_prints_row_per_value(self, tmp_path, capsys):
        assert main(["sweep", "fig01", "--param", "seed",
                     "--values", "1,2",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "seed=1" in out and "seed=2" in out
        assert "fade_depth_db" in out


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestListDeterminism:
    def test_output_sorted_by_experiment_id(self, capsys):
        """`repro list` must be deterministic: rows sorted by id."""
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        names = [line.split()[0] for line in out.splitlines()
                 if line.startswith(("cell", "fig", "tab"))]
        assert len(names) >= 13
        assert names == sorted(names)

    def test_two_invocations_identical(self, capsys):
        assert main(["list"]) == 0
        first = capsys.readouterr().out
        assert main(["list"]) == 0
        assert capsys.readouterr().out == first


class TestPhyBackendCli:
    def test_run_with_surrogate_backend(self, capsys):
        assert main(["run", "fig07", "--set", "payload_bits=256",
                     "--set", "frames_per_point=1",
                     "--phy-backend", "surrogate", "--no-cache"]) == 0
        assert "estimator_error_decades" in capsys.readouterr().out

    def test_unknown_backend_fails_cleanly(self, capsys):
        assert main(["run", "fig07", "--phy-backend", "warp",
                     "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "warp" in err and "surrogate" in err

    def test_backend_flag_on_an_experiment_without_it(self, capsys):
        """``--phy-backend`` is shorthand for ``--set phy_backend=``,
        so an experiment that does not declare it rejects it."""
        assert main(["run", "fig01", "--set", "duration=0.2",
                     "--phy-backend", "surrogate", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines()[-1].startswith("error:")
        assert "phy_backend" in err and "Traceback" not in err

    def test_explicit_set_beats_the_backend_flag(self, tmp_path,
                                                 capsys):
        out = str(tmp_path / "out.json")
        assert main(["run", "fig07", "--set", "payload_bits=256",
                     "--set", "frames_per_point=1",
                     "--set", "phy_backend=full",
                     "--phy-backend", "surrogate", "--no-cache",
                     "--output", out]) == 0
        with open(out) as fh:
            assert json.load(fh)["params"]["phy_backend"] == "full"

    def test_surrogate_run_keeps_its_store(self, tmp_path, capsys):
        """The store a ``--phy-backend surrogate`` run writes is the one
        earlier versions wrote through the Runner's backend option."""
        assert main(["run", "fig07", "--set", "payload_bits=256",
                     "--set", "frames_per_point=1",
                     "--phy-backend", "surrogate",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "[754e25a8864f]" in capsys.readouterr().out
        assert os.listdir(tmp_path / "campaigns") == \
            ["run-fig07-754e25a8864f"]

    def test_simulate_with_surrogate_backend(self, capsys):
        assert main(["simulate", "--duration", "0.3",
                     "--phy-backend", "surrogate"]) == 0
        assert "Mbps" in capsys.readouterr().out

    def test_simulate_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--phy-backend", "warp"])


class TestCalibrateCommand:
    def test_writes_loadable_table(self, tmp_path, capsys):
        path = str(tmp_path / "cal.json")
        assert main(["calibrate", "--output", path,
                     "--frames-per-point", "1",
                     "--payload-bits", "104",
                     "--snr-min", "0", "--snr-max", "24",
                     "--snr-step", "8"]) == 0
        out = capsys.readouterr().out
        assert f"wrote {path}" in out
        from repro.phy.calibrate import CalibrationTable
        table = CalibrationTable.load(path)
        assert table.n_rates == 6
        assert table.snr_grid_db.size == 4

    def test_rejects_nonpositive_snr_step(self, tmp_path, capsys):
        for step in ("0", "-1"):
            assert main(["calibrate", "--output",
                         str(tmp_path / "c.json"),
                         "--snr-step", step]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "snr-step" in err


class TestCampaign:
    def test_list_enumerates_stock_campaigns(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("smoke-tiny", "paper-matrix", "contention-scale"):
            assert name in out
        assert "campaigns registered" in out

    def test_unknown_campaign_fails_cleanly(self, capsys):
        assert main(["campaign", "run", "nope"]) == 2
        assert "unknown campaign" in capsys.readouterr().err
        assert main(["campaign", "status", "nope"]) == 2
        assert main(["campaign", "report", "nope"]) == 2
        assert main(["campaign", "verify", "nope"]) == 2
        assert main(["campaign", "chaos", "nope"]) == 2

    def test_bad_shard_spec_fails_cleanly(self, tmp_path, capsys):
        assert main(["campaign", "run", "smoke-tiny",
                     "--cache-dir", str(tmp_path),
                     "--shard", "5/2"]) == 2
        assert "shard" in capsys.readouterr().err

    def test_run_status_report_roundtrip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        out_path = str(tmp_path / "summary.json")
        # A limited run leaves scenarios pending: partial exit code 3.
        assert main(["campaign", "run", "smoke-tiny",
                     "--cache-dir", cache, "--limit", "3"]) == 3
        out = capsys.readouterr().out
        assert "3/8 scenarios checkpointed" in out
        assert main(["campaign", "status", "smoke-tiny",
                     "--cache-dir", cache]) == 0
        assert "3/8 complete (5 pending)" in capsys.readouterr().out
        assert main(["campaign", "run", "smoke-tiny",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "smoke-tiny",
                     "--cache-dir", cache,
                     "--group-by", "protocol",
                     "--output", out_path]) == 0
        out = capsys.readouterr().out
        assert "8/8 scenarios summarized" in out
        assert "softrate" in out and "rraa" in out
        import json
        summary = json.loads(open(out_path).read())
        assert summary["completed"] == 8

    def test_report_bad_group_by_fails_cleanly(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["campaign", "run", "smoke-tiny",
                     "--cache-dir", cache, "--limit", "1"]) == 3
        capsys.readouterr()
        assert main(["campaign", "report", "smoke-tiny",
                     "--cache-dir", cache,
                     "--group-by", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err


def _register_fragile_campaign():
    """A 3-scenario campaign whose x=2 scenario always fails."""
    from repro.campaigns import register_campaign
    from repro.campaigns.matrix import Axis, CampaignMatrix
    from repro.experiments.api import register_experiment

    def run_fragile(x=0, seed=1, replicate=0):
        if x == 2:
            raise RuntimeError("poison x=2")
        return {"value": float(x)}

    try:
        register_experiment(
            "cli-fragile",
            description="CLI test experiment with one poison scenario",
            params={"x": 0, "seed": 1, "replicate": 0})(run_fragile)
    except ValueError:
        pass                                # already registered
    return register_campaign(CampaignMatrix(
        name="cli-fragile-camp", experiment="cli-fragile",
        axes=(Axis("x", (1, 2, 3)),), seed=5))


class TestCampaignResilienceCLI:
    def test_quarantined_run_exits_4_and_verify_reports_it(
            self, tmp_path, capsys):
        _register_fragile_campaign()
        cache = str(tmp_path / "cache")
        assert main(["campaign", "run", "cli-fragile-camp",
                     "--cache-dir", cache, "--retries", "0"]) == 4
        captured = capsys.readouterr()
        assert "QUARANTINED" in captured.out
        assert "quarantine.jsonl" in captured.err
        assert main(["campaign", "status", "cli-fragile-camp",
                     "--cache-dir", cache]) == 0
        assert "1 quarantined" in capsys.readouterr().out
        assert main(["campaign", "verify", "cli-fragile-camp",
                     "--cache-dir", cache]) == 1
        out = capsys.readouterr().out
        assert "2/3 valid records" in out
        assert "[active] ExperimentExecutionError" in out
        assert "poison x=2" in out

    def test_verify_reads_the_store_once(self, tmp_path, capsys,
                                         monkeypatch):
        """verify counts quarantined scenarios from its own scan, as
        ``campaign status`` counts them."""
        from repro.campaigns import ResultStore
        from repro.campaigns.matrix import CampaignMatrix

        _register_fragile_campaign()
        cache = str(tmp_path / "cache")
        main(["campaign", "run", "cli-fragile-camp", "--cache-dir",
              cache, "--retries", "0"])
        capsys.readouterr()
        calls = {"scan": 0, "expand": 0}

        def spy(cls, name):
            real = getattr(cls, name)

            def counted(self, *args, **kwargs):
                calls[name] += 1
                return real(self, *args, **kwargs)
            monkeypatch.setattr(cls, name, counted)
        spy(ResultStore, "scan")
        spy(CampaignMatrix, "expand")
        assert main(["campaign", "verify", "cli-fragile-camp",
                     "--cache-dir", cache]) == 1
        assert calls == {"scan": 1, "expand": 1}
        assert "quarantine: 1 active entry(s)" in \
            capsys.readouterr().out

    def test_verify_clean_store_exits_0(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["campaign", "run", "smoke-tiny",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["campaign", "verify", "smoke-tiny",
                     "--cache-dir", cache]) == 0
        assert "8/8 valid records" in capsys.readouterr().out

    def test_verify_flags_corrupt_record(self, tmp_path, capsys):
        from repro.campaigns import ResultStore, get_campaign
        from repro.campaigns.faults import FaultPlan, FaultSpec

        cache = str(tmp_path / "cache")
        assert main(["campaign", "run", "smoke-tiny",
                     "--cache-dir", cache]) == 0
        store = ResultStore(get_campaign("smoke-tiny"),
                            cache_dir=cache)
        plan = FaultPlan((FaultSpec("corrupt-record",
                                    scenario_index=0, seed=1),))
        plan.apply_store_faults(store.directory)
        capsys.readouterr()
        from repro.campaigns import CheckpointCorruptionWarning
        with pytest.warns(CheckpointCorruptionWarning):
            assert main(["campaign", "verify", "smoke-tiny",
                         "--cache-dir", cache]) == 1
        out = capsys.readouterr().out
        assert "7/8 valid records" in out
        assert "1 corrupt line(s)" in out and "[crc]" in out

    def test_verify_after_truncate_file_keeps_7_of_8(self, tmp_path,
                                                     capsys):
        """Cutting a completed run's record log costs its last record
        only, and a torn final line is what a kill leaves, not
        corruption: verify exits 0."""
        from repro.campaigns import ResultStore, get_campaign
        from repro.campaigns.faults import FaultPlan, FaultSpec

        cache = str(tmp_path / "cache")
        assert main(["campaign", "run", "smoke-tiny",
                     "--cache-dir", cache]) == 0
        store = ResultStore(get_campaign("smoke-tiny"),
                            cache_dir=cache)
        plan = FaultPlan((FaultSpec("truncate-file", seed=1),))
        plan.apply_store_faults(store.directory)
        capsys.readouterr()
        assert main(["campaign", "verify", "smoke-tiny",
                     "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "7/8 valid records" in out and "1 torn tail(s)" in out
        assert "corrupt" not in out

    def test_chaos_rejects_unknown_fault_kind(self, capsys):
        assert main(["campaign", "chaos", "smoke-tiny",
                     "--faults", "meteor"]) == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_chaos_smoke_single_fault(self, tmp_path, capsys):
        assert main(["campaign", "chaos", "smoke-tiny",
                     "--faults", "truncate-file", "--jobs", "1",
                     "--cache-root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "truncate-file: PASS" in out
        assert "chaos wall PASSED" in out


class TestCampaignServiceCLI:
    """serve/submit/results verbs + the not-started status fix."""

    def test_status_not_started_is_clean(self, tmp_path, capsys):
        import os
        cache = str(tmp_path / "cache")
        assert main(["campaign", "status", "smoke-tiny",
                     "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "not started" in out and "0/8" in out
        assert "campaign submit" in out
        # reporting on nothing must not create anything
        assert not os.path.exists(cache)

    def test_run_writes_one_log_line_per_record(self, tmp_path,
                                                capsys):
        import os

        from repro.campaigns import ResultStore, get_campaign

        cache = str(tmp_path / "cache")
        assert main(["campaign", "run", "smoke-tiny",
                     "--cache-dir", cache]) == 0
        store = ResultStore(get_campaign("smoke-tiny"),
                            cache_dir=cache)
        assert sorted(os.listdir(store.directory)) == [
            "manifest.json", "results-0of1.jsonl"]
        with open(os.path.join(store.directory,
                               "results-0of1.jsonl")) as fh:
            assert len(fh.read().splitlines()) == 8
        capsys.readouterr()
        # report and verify read the record log
        assert main(["campaign", "report", "smoke-tiny",
                     "--cache-dir", cache]) == 0
        assert "8/8 scenarios summarized" in capsys.readouterr().out
        assert main(["campaign", "verify", "smoke-tiny",
                     "--cache-dir", cache]) == 0
        assert "8/8 valid records" in capsys.readouterr().out

    def test_submit_without_server_exits_1(self, tmp_path, capsys):
        assert main(["campaign", "submit", "smoke-tiny",
                     "--cache-dir", str(tmp_path)]) == 1
        assert "no campaign service" in capsys.readouterr().err

    def test_results_without_server_reads_local_store(self, tmp_path,
                                                      capsys):
        cache = str(tmp_path / "cache")
        # nothing run anywhere: not-started counts as partial (3)
        assert main(["campaign", "results", "smoke-tiny",
                     "--cache-dir", cache]) == 3
        assert "(not-started)" in capsys.readouterr().out
        assert main(["campaign", "results", "nope",
                     "--cache-dir", cache]) == 2
        assert "unknown campaign" in capsys.readouterr().err
        assert main(["campaign", "run", "smoke-tiny",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["campaign", "results", "smoke-tiny",
                     "--cache-dir", cache]) == 0
        assert "8/8 scenarios (complete)" in capsys.readouterr().out

    @staticmethod
    def _serve(cache):
        """A quiet in-process server for CLI round-trip tests."""
        import os
        import threading
        import time
        from contextlib import contextmanager

        from repro.campaigns.service import CampaignService, request

        @contextmanager
        def running():
            service = CampaignService(cache_dir=cache, port=0,
                                      jobs=1, retry_backoff_s=0.001)
            thread = threading.Thread(target=service.serve,
                                      daemon=True)
            thread.start()
            deadline = time.time() + 30.0
            while not os.path.exists(service.endpoint_path):
                assert thread.is_alive() and time.time() < deadline
                time.sleep(0.01)
            try:
                yield service
            finally:
                try:
                    request(cache, {"op": "shutdown"})
                except Exception:
                    pass
                thread.join(timeout=60.0)

        return running()

    def test_submit_exit_code_contract(self, tmp_path, capsys):
        _register_fragile_campaign()
        cache = str(tmp_path / "cache")
        with self._serve(cache):
            assert main(["campaign", "submit", "nope",
                         "--cache-dir", cache]) == 2
            assert "unknown campaign" in capsys.readouterr().err

            assert main(["campaign", "submit", "smoke-tiny",
                         "--cache-dir", cache, "--limit", "3",
                         "--poll", "0.02"]) == 3
            out = capsys.readouterr().out
            assert "queued" in out and "partial (3/8" in out

            assert main(["campaign", "submit", "smoke-tiny",
                         "--cache-dir", cache, "--poll", "0.02"]) == 0
            assert "complete (8/8" in capsys.readouterr().out

            assert main(["campaign", "submit", "cli-fragile-camp",
                         "--cache-dir", cache, "--retries", "0",
                         "--poll", "0.02"]) == 4
            captured = capsys.readouterr()
            assert "quarantined" in captured.out
            assert "campaign verify" in captured.err

            assert main(["campaign", "results", "smoke-tiny",
                         "--cache-dir", cache]) == 0
            assert "8/8 scenarios (complete)" \
                in capsys.readouterr().out

    def test_submit_no_wait_returns_immediately(self, tmp_path,
                                                capsys):
        from repro.campaigns.service import wait_for_submission

        cache = str(tmp_path / "cache")
        with self._serve(cache):
            assert main(["campaign", "submit", "smoke-tiny",
                         "--cache-dir", cache, "--no-wait"]) == 0
            out = capsys.readouterr().out
            assert "queued" in out and "complete" not in out
            # the server still finishes it in the background
            final = wait_for_submission(cache, "sub-00001",
                                        poll_s=0.05, timeout=120.0)
            assert final["state"] == "complete"

    def test_serve_once_drains_queue_and_exits(self, tmp_path,
                                               capsys):
        import threading

        cache = str(tmp_path / "cache")
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(
                main(["campaign", "serve", "--cache-dir", cache,
                      "--once"])))
        thread.start()
        import os
        import time
        endpoint = os.path.join(cache, "service", "endpoint.json")
        deadline = time.time() + 30.0
        while not os.path.exists(endpoint):
            assert thread.is_alive() and time.time() < deadline
            time.sleep(0.01)
        code = main(["campaign", "submit", "smoke-tiny",
                     "--cache-dir", cache, "--poll", "0.02"])
        thread.join(timeout=120.0)
        assert not thread.is_alive() and codes == [0]
        assert code == 0
        out = capsys.readouterr().out
        assert "listening" in out and "service stopped" in out

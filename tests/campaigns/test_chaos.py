"""Chaos wall: every fault class recovers to byte-identical output.

Each test injects one fault class through :class:`FaultPlan`, runs the
campaign (supervised where the fault kills or wedges workers), resumes
fault-free, and asserts the resumed summary is byte-for-byte identical
to a never-faulted reference run.  Process faults (crash/hang) use a
real worker pool with short watchdog deadlines, so these are the
slowest tests in the campaign suite — keep the matrix tiny.
"""

import pytest

from repro.campaigns import (CampaignError, CampaignRunner,
                             CheckpointCorruptionWarning, FaultPlan,
                             FaultSpec, ResultStore, chaos_wall)
from repro.campaigns.matrix import Axis, CampaignMatrix

MATRIX = CampaignMatrix(
    name="chaos-mini", experiment="camp-fast",
    axes=(Axis("x", (1, 2, 3)), Axis("y", (0.5, 1.5))), seed=42)

FAST = dict(retry_backoff_s=0.001)
SUPERVISED = dict(jobs=2, timeout_s=5.0, retry_backoff_s=0.001)


def _summary(cache_dir):
    store = ResultStore(MATRIX, cache_dir=str(cache_dir))
    with open(store.summary_path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Fault-free reference summary bytes."""
    cache = tmp_path_factory.mktemp("reference")
    runner = CampaignRunner(cache_dir=str(cache))
    assert runner.run(MATRIX).done
    runner.report(MATRIX)
    return _summary(cache)


def _run_fault_then_resume(cache, plan, reference, **kw):
    """Shared skeleton: faulted run, fault-free resume, byte compare."""
    faulted = CampaignRunner(cache_dir=str(cache), fault_plan=plan,
                             **kw)
    first = faulted.run(MATRIX)
    resumed = CampaignRunner(cache_dir=str(cache), **kw)
    final = resumed.run(MATRIX)
    assert final.done and final.quarantined == 0
    resumed.report(MATRIX)
    assert _summary(cache) == reference
    return first


class TestExecutionFaults:
    def test_persistent_raise_quarantines_then_recovers(
            self, tmp_path, reference):
        plan = FaultPlan((FaultSpec("raise", scenario_index=3,
                                    times=0),))
        first = _run_fault_then_resume(tmp_path, plan, reference,
                                       max_retries=1, **FAST)
        assert first.quarantined == 1 and first.failed
        entries = ResultStore(
            MATRIX, cache_dir=str(tmp_path)).load_quarantine()
        assert [e["index"] for e in entries] == [3]
        assert entries[0]["attempts"] == 2
        assert "FaultInjectedError" in entries[0]["traceback"]

    def test_transient_raise_retries_to_success(self, tmp_path,
                                                reference):
        plan = FaultPlan((FaultSpec("raise", scenario_index=0,
                                    times=1),))
        runner = CampaignRunner(cache_dir=str(tmp_path),
                                fault_plan=plan, **FAST)
        status = runner.run(MATRIX)
        assert status.done and status.quarantined == 0
        runner.report(MATRIX)
        assert _summary(tmp_path) == reference

    def test_slow_fault_cannot_change_summary(self, tmp_path,
                                              reference):
        plan = FaultPlan((FaultSpec("slow", scenario_index=2,
                                    times=1, delay_s=0.05),))
        runner = CampaignRunner(cache_dir=str(tmp_path),
                                fault_plan=plan, **FAST)
        assert runner.run(MATRIX).done
        runner.report(MATRIX)
        assert _summary(tmp_path) == reference


class TestProcessFaults:
    def test_crash_is_retried_under_supervision(self, tmp_path,
                                                reference):
        plan = FaultPlan((FaultSpec("crash", scenario_index=1,
                                    times=1),))
        runner = CampaignRunner(cache_dir=str(tmp_path),
                                fault_plan=plan, **SUPERVISED)
        status = runner.run(MATRIX)
        assert status.done and status.quarantined == 0
        runner.report(MATRIX)
        assert _summary(tmp_path) == reference

    def test_persistent_crash_quarantines_then_recovers(
            self, tmp_path, reference):
        plan = FaultPlan((FaultSpec("crash", scenario_index=4,
                                    times=0),))
        first = _run_fault_then_resume(tmp_path, plan, reference,
                                       max_retries=1, **SUPERVISED)
        assert first.quarantined == 1
        entries = ResultStore(
            MATRIX, cache_dir=str(tmp_path)).load_quarantine()
        assert [e["index"] for e in entries] == [4]
        assert entries[0]["kind"] == "crash"

    def test_hang_hits_watchdog_then_succeeds_on_retry(
            self, tmp_path, reference):
        plan = FaultPlan((FaultSpec("hang", scenario_index=5,
                                    times=1, delay_s=60.0),))
        runner = CampaignRunner(cache_dir=str(tmp_path),
                                fault_plan=plan, jobs=2,
                                timeout_s=1.0,
                                retry_backoff_s=0.001)
        status = runner.run(MATRIX)
        assert status.done and status.quarantined == 0
        runner.report(MATRIX)
        assert _summary(tmp_path) == reference

    def test_process_faults_rejected_without_supervision(self):
        plan = FaultPlan((FaultSpec("crash", scenario_index=0),))
        with pytest.raises(CampaignError, match="supervised"):
            CampaignRunner(fault_plan=plan)


class TestStoreFaultRecovery:
    def test_corrupt_record_is_recomputed(self, tmp_path, reference):
        plan = FaultPlan((FaultSpec("corrupt-record",
                                    scenario_index=2, seed=5),))
        with pytest.warns(CheckpointCorruptionWarning,
                          match=r"\[crc\]"):
            _run_fault_then_resume(tmp_path, plan, reference, **FAST)

    def test_truncated_file_is_recomputed(self, tmp_path, reference):
        plan = FaultPlan((FaultSpec("truncate-file", seed=5),))
        _run_fault_then_resume(tmp_path, plan, reference, **FAST)


class TestDeterminism:
    def test_quarantine_listing_is_deterministic(self, tmp_path):
        plan = FaultPlan((FaultSpec("raise", scenario_index=1,
                                    times=0),
                          FaultSpec("raise", scenario_index=4,
                                    times=0)))
        listings = []
        for sub in ("a", "b"):
            cache = tmp_path / sub
            CampaignRunner(cache_dir=str(cache), fault_plan=plan,
                           max_retries=1, **FAST).run(MATRIX)
            listings.append(ResultStore(
                MATRIX, cache_dir=str(cache)).load_quarantine())
        assert listings[0] == listings[1]
        assert [e["index"] for e in listings[0]] == [1, 4]

    def test_chaos_wall_passes_on_fault_subset(self, tmp_path):
        report = chaos_wall(MATRIX,
                            kinds=("raise", "truncate-file"),
                            jobs=1, timeout_s=30.0,
                            retry_backoff_s=0.001,
                            cache_root=str(tmp_path))
        assert report["passed"]
        by_kind = {r["kind"]: r for r in report["results"]}
        assert set(by_kind) == {"raise", "truncate-file"}
        assert all(r["identical"] and r["resumed_complete"]
                   for r in report["results"])
        # seeded raise plans are quarantine-forcing (times=0)
        assert by_kind["raise"]["quarantined_during_fault"]

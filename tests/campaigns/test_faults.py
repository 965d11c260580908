"""Unit tests for the deterministic fault-injection harness."""

import json
import os

import pytest

from repro.campaigns.checkpoint import RecordWriter, make_record
from repro.campaigns.colstore import ResultStore, chunk_paths
from repro.campaigns.faults import (EXECUTION_KINDS, FAULT_KINDS,
                                    PROCESS_KINDS, STORE_KINDS,
                                    FaultInjectedError, FaultPlan,
                                    FaultSpec)
from repro.campaigns.matrix import Axis, CampaignMatrix


def _matrix():
    return CampaignMatrix(name="faults", experiment="camp-fast",
                          axes=(Axis("x", (1, 2, 3)),), seed=3)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("segfault", scenario_index=0)

    def test_execution_kinds_need_target(self):
        for kind in sorted(EXECUTION_KINDS):
            with pytest.raises(ValueError, match="scenario_index"):
                FaultSpec(kind)
        FaultSpec("truncate-file")           # file fault needs none

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError, match="times"):
            FaultSpec("raise", scenario_index=0, times=-1)

    def test_fires_semantics(self):
        once = FaultSpec("raise", scenario_index=0, times=1)
        assert once.fires(0) and not once.fires(1)
        always = FaultSpec("raise", scenario_index=0, times=0)
        assert all(always.fires(a) for a in range(5))

    def test_raise_fault_raises(self):
        spec = FaultSpec("raise", scenario_index=2, times=1)
        with pytest.raises(FaultInjectedError, match="#2"):
            spec.fire(0)
        spec.fire(1)                         # spent: no-op

    def test_slow_fault_sleeps_then_returns(self):
        FaultSpec("slow", scenario_index=0, delay_s=0.0).fire(0)

    def test_kind_partition_is_complete(self):
        assert EXECUTION_KINDS | STORE_KINDS == set(FAULT_KINDS)
        assert not EXECUTION_KINDS & STORE_KINDS
        assert PROCESS_KINDS <= EXECUTION_KINDS


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(100, seed=9)
        b = FaultPlan.seeded(100, seed=9)
        assert a == b
        assert a != FaultPlan.seeded(100, seed=10)

    def test_seeded_targets_in_range(self):
        plan = FaultPlan.seeded(7, seed=1)
        for spec in plan.faults:
            if spec.kind in EXECUTION_KINDS:
                assert 0 <= spec.scenario_index < 7

    def test_seeded_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            FaultPlan.seeded(0)
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.seeded(5, kinds=("meteor",))

    def test_transient_kinds(self):
        plan = FaultPlan.seeded(5, seed=0)
        by_kind = {s.kind: s for s in plan.faults}
        assert by_kind["slow"].times == 1
        assert by_kind["hang"].times == 1
        assert by_kind["raise"].times == 0   # quarantine-forcing

    def test_execution_fault_lookup(self):
        plan = FaultPlan((FaultSpec("raise", scenario_index=4),))
        assert plan.execution_fault(4).kind == "raise"
        assert plan.execution_fault(0) is None

    def test_requires_supervision(self):
        assert FaultPlan((FaultSpec("crash", 1),)).requires_supervision
        assert FaultPlan((FaultSpec("hang", 1),)).requires_supervision
        assert not FaultPlan(
            (FaultSpec("raise", 1),)).requires_supervision
        assert not FaultPlan(
            (FaultSpec("truncate-file"),)).requires_supervision


def _store_with_records(tmp_path, sealed=False):
    """A store holding every scenario's record: as a legacy JSONL
    record file, or (``sealed``) in a chunk written by the store."""
    matrix = _matrix()
    store = ResultStore(matrix, cache_dir=str(tmp_path))
    store.ensure()
    scenarios = matrix.expand()
    with (store.writer("0of1") if sealed else RecordWriter(
            os.path.join(store.directory, "results-0of1.jsonl"))) \
            as out:
        for s in scenarios:
            out.append(make_record(s, {"value": 1.0 + s.index}, 0.1))
    return matrix, store, scenarios


class TestStoreFaults:
    def test_corrupt_record_keeps_json_valid_but_breaks_crc(
            self, tmp_path):
        matrix, store, scenarios = _store_with_records(tmp_path)
        plan = FaultPlan((FaultSpec("corrupt-record",
                                    scenario_index=1, seed=7),))
        notes = plan.apply_store_faults(store.directory)
        assert "flipped byte" in notes[0]
        path = os.path.join(store.directory, "results-0of1.jsonl")
        with open(path) as fh:
            lines = [ln for ln in fh if ln.strip()]
        for line in lines:
            json.loads(line)                 # all still valid JSON
        records, issues = store.scan()
        assert [i.kind for i in issues] == ["crc"]
        assert scenarios[1].scenario_id not in records
        assert len(records) == 2

    def test_corrupt_record_in_a_chunk_breaks_one_row_crc(
            self, tmp_path):
        """A sealed row gets the same digit flip a line does: the
        chunk stays readable and only that row fails its CRC."""
        matrix, store, scenarios = _store_with_records(tmp_path,
                                                       sealed=True)
        plan = FaultPlan((FaultSpec("corrupt-record",
                                    scenario_index=1, seed=7),))
        notes = plan.apply_store_faults(store.directory)
        assert "flipped a digit" in notes[0]
        records, issues = store.scan()
        assert [(i.line_no, i.kind) for i in issues] == [(2, "crc")]
        assert scenarios[1].scenario_id not in records
        assert len(records) == 2

    def test_truncated_chunk_is_chunk_damage(self, tmp_path):
        matrix, store, _ = _store_with_records(tmp_path, sealed=True)
        plan = FaultPlan((FaultSpec("truncate-file", seed=3),))
        assert "cut chunk" in plan.apply_store_faults(
            store.directory)[0]
        records, issues = store.scan()
        assert records == {}
        assert [(os.path.basename(i.path), i.kind) for i in issues] \
            == [(os.path.basename(chunk_paths(store.directory)[0]),
                 "chunk")]

    def test_corrupt_record_missing_target_is_noop(self, tmp_path):
        matrix, store, _ = _store_with_records(tmp_path)
        plan = FaultPlan((FaultSpec("corrupt-record",
                                    scenario_index=99),))
        notes = plan.apply_store_faults(store.directory)
        assert "nothing corrupted" in notes[0]
        _, issues = store.scan()
        assert issues == []

    def test_truncate_file_leaves_torn_tail(self, tmp_path):
        matrix, store, scenarios = _store_with_records(tmp_path)
        plan = FaultPlan((FaultSpec("truncate-file", seed=3),))
        notes = plan.apply_store_faults(store.directory)
        assert "torn tail" in notes[0]
        records, issues = store.scan()
        assert len(records) == 2             # one record lost
        assert [i.kind for i in issues] == ["torn"]

    def test_truncate_empty_store_is_noop(self, tmp_path):
        store = ResultStore(_matrix(), cache_dir=str(tmp_path))
        store.ensure()
        plan = FaultPlan((FaultSpec("truncate-file"),))
        assert "nothing truncated" in \
            plan.apply_store_faults(store.directory)[0]

    def test_store_faults_deterministic(self, tmp_path):
        plan = FaultPlan((FaultSpec("corrupt-record",
                                    scenario_index=0, seed=11),))
        damage = []
        for sub in ("a", "b"):
            matrix, store, _ = _store_with_records(tmp_path / sub)
            plan.apply_store_faults(store.directory)
            path = os.path.join(store.directory,
                                "results-0of1.jsonl")
            with open(path, "rb") as fh:
                damage.append(fh.read())
        assert damage[0] == damage[1]

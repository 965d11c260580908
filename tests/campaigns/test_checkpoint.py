"""Checkpoint store: durability, torn writes, dedupe, integrity.

Each label's JSONL record log is the whole store.  Line-damage tests
write a log with :class:`RecordWriter` and then edit its lines, as a
kill, bit rot or a hand edit would.
"""

import json
import math
import os
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaigns.checkpoint import (CheckpointCorruptionWarning,
                                        RecordWriter, ResultStore,
                                        make_record, record_crc)
from repro.campaigns.matrix import Axis, CampaignMatrix
from repro.experiments.api import _canonical_json


def _matrix():
    return CampaignMatrix(name="ck", experiment="camp-fast",
                          axes=(Axis("x", (1, 2, 3)),), seed=1)


class TestStoreBasics:
    def test_manifest_written_once(self, tmp_path):
        store = ResultStore(_matrix(), cache_dir=str(tmp_path))
        store.ensure()
        with open(store.manifest_path) as fh:
            manifest = json.load(fh)
        assert manifest["name"] == "ck"
        assert manifest["total_scenarios"] == 3
        assert manifest["digest"] == _matrix().digest()
        before = os.path.getmtime(store.manifest_path)
        store.ensure()
        assert os.path.getmtime(store.manifest_path) == before

    def test_directory_keyed_by_digest(self, tmp_path):
        a = ResultStore(_matrix(), cache_dir=str(tmp_path))
        edited = CampaignMatrix(name="ck", experiment="camp-fast",
                                axes=(Axis("x", (1, 2, 4)),), seed=1)
        b = ResultStore(edited, cache_dir=str(tmp_path))
        assert a.directory != b.directory

    def test_empty_store_reads_cleanly(self, tmp_path):
        store = ResultStore(_matrix(), cache_dir=str(tmp_path))
        assert store.load_records() == {}
        assert store.completed_ids() == set()


class TestRecords:
    def test_roundtrip_with_nan_metrics(self, tmp_path):
        store = ResultStore(_matrix(), cache_dir=str(tmp_path))
        scenario = _matrix().expand()[0]
        with store.writer("0of1") as out:
            out.append(make_record(
                scenario, {"mbps": 1.5, "conv": float("nan")}, 0.2))
        record = store.load_records()[scenario.scenario_id]
        assert record["metrics"]["mbps"] == 1.5
        assert math.isnan(record["metrics"]["conv"])
        assert record["index"] == scenario.index
        assert record["seed"] == scenario.seed

    def test_torn_trailing_line_skipped(self, tmp_path):
        store = ResultStore(_matrix(), cache_dir=str(tmp_path))
        scenarios = _matrix().expand()
        with store.writer("0of1") as out:
            out.append(make_record(scenarios[0], {"m": 1.0}, 0.1))
        path = os.path.join(store.directory, "results-0of1.jsonl")
        with open(path, "a") as fh:
            fh.write('{"scenario_id": "deadbeef", "metr')   # killed
        assert store.completed_ids() == {scenarios[0].scenario_id}

    def test_append_after_torn_line_preserves_new_record(self,
                                                         tmp_path):
        """Resuming over a torn trailing line must not let the
        fragment swallow the first record the resumed run appends."""
        store = ResultStore(_matrix(), cache_dir=str(tmp_path))
        scenarios = _matrix().expand()
        with store.writer("0of1") as out:
            out.append(make_record(scenarios[0], {"m": 1.0}, 0.1))
        path = os.path.join(store.directory, "results-0of1.jsonl")
        with open(path, "a") as fh:
            fh.write('{"scenario_id": "dead')       # killed mid-write
        with store.writer("0of1") as out:           # resume
            out.append(make_record(scenarios[1], {"m": 2.0}, 0.1))
        assert store.completed_ids() == {scenarios[0].scenario_id,
                                         scenarios[1].scenario_id}

    def test_reopen_keeps_a_complete_unterminated_line(self,
                                                       tmp_path):
        """A final line that parses but lost its newline is a record
        the reader accepts, so reopening must keep it, not cut it."""
        store, scenarios, path = _write_three(tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data.rstrip(b"\n"))
        assert len(store.load_records()) == 3
        with RecordWriter(path) as out:
            out.append(make_record(scenarios[0], {"m": 0.0}, 0.1))
        records, issues = store.scan()
        assert issues == [] and len(records) == 3
        assert len(open(path).readlines()) == 4

    def test_killed_writer_keeps_every_appended_record(self,
                                                       tmp_path):
        """Each append is fsynced before it returns, so a writer that
        never closes (a SIGKILL) has already made its records
        durable."""
        store = ResultStore(_matrix(), cache_dir=str(tmp_path))
        scenarios = _matrix().expand()
        writer = store.writer("0of1")
        writer.__enter__()
        for s in scenarios:
            writer.append(make_record(s, {"m": float(s.index)}, 0.1))
        records, issues = store.scan()
        writer.__exit__(None, None, None)
        assert issues == []
        assert set(records) == {s.scenario_id for s in scenarios}

    def test_duplicate_ids_deduped_across_files(self, tmp_path):
        store = ResultStore(_matrix(), cache_dir=str(tmp_path))
        scenario = _matrix().expand()[0]
        for label in ("0of2", "1of2"):
            with store.writer(label) as out:
                out.append(make_record(scenario, {"m": 2.0}, 0.1))
        assert len(store.load_records()) == 1

    def test_append_survives_reopen(self, tmp_path):
        store = ResultStore(_matrix(), cache_dir=str(tmp_path))
        scenarios = _matrix().expand()
        with store.writer("0of1") as out:
            out.append(make_record(scenarios[0], {"m": 1.0}, 0.1))
        with store.writer("0of1") as out:
            out.append(make_record(scenarios[1], {"m": 2.0}, 0.1))
        assert len(store.load_records()) == 2

    def test_reopen_truncates_torn_tail(self, tmp_path):
        """A torn trailing fragment is removed (not newline-sealed) on
        the next writer open, so it never becomes permanent interior
        garbage that warns on every later read."""
        store = ResultStore(_matrix(), cache_dir=str(tmp_path))
        scenarios = _matrix().expand()
        with store.writer("0of1") as out:
            out.append(make_record(scenarios[0], {"m": 1.0}, 0.1))
        path = os.path.join(store.directory, "results-0of1.jsonl")
        with open(path, "a") as fh:
            fh.write('{"scenario_id": "dead')
        with store.writer("0of1") as out:
            out.append(make_record(scenarios[1], {"m": 2.0}, 0.1))
        _, issues = store.scan()
        assert issues == []
        with open(path) as fh:
            assert "dead" not in fh.read()


_METRICS = st.dictionaries(
    st.sampled_from(["mbps", "loss", "conv_s", "fair"]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    min_size=1, max_size=4)
_PARAMS = st.fixed_dictionaries({
    "x": st.integers(-1000, 1000),
    "label": st.sampled_from(["a", "b", "longer-label"]),
    "nested": st.lists(st.integers(0, 9), max_size=3),
})
_SEEDS = st.one_of(st.none(), st.integers(0, 2**63 - 1))


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(rows=st.lists(st.tuples(_METRICS, _SEEDS, _PARAMS),
                         min_size=1, max_size=8))
    def test_any_record_stream_reads_back_identically(
            self, rows, tmp_path_factory):
        """Records written through the store's writer scan back
        canonical-JSON identical, CRCs intact: NaN and ±inf metrics,
        per-record metric sets, absent seeds and nested params."""
        store = ResultStore(_matrix(), cache_dir=str(
            tmp_path_factory.mktemp("roundtrip")))
        records = [make_record(SimpleNamespace(
            scenario_id=f"rt-{i:04d}", index=i, seed=seed,
            params=params), metrics, elapsed_s=0.01 * (i + 1))
            for i, (metrics, seed, params) in enumerate(rows)]
        with store.writer("0of1") as out:
            for record in records:
                out.append(record)
        loaded, issues = store.scan()
        assert issues == []
        assert sorted(_canonical_json(r) for r in loaded.values()) \
            == sorted(_canonical_json(r) for r in records)
        assert all(record_crc(r) == r["crc"] for r in loaded.values())


def _write_three(tmp_path):
    """A record log holding all three scenarios."""
    store = ResultStore(_matrix(), cache_dir=str(tmp_path))
    store.ensure()
    scenarios = _matrix().expand()
    path = os.path.join(store.directory, "results-0of1.jsonl")
    with RecordWriter(path) as out:
        for s in scenarios:
            out.append(make_record(s, {"m": float(s.index)}, 0.1))
    return store, scenarios, path


def _rewrite_line(path, line_no, new_text):
    with open(path) as fh:
        lines = fh.readlines()
    lines[line_no - 1] = new_text
    with open(path, "w") as fh:
        fh.writelines(lines)


class TestIntegrity:
    """Satellite: corrupt interior lines skip-and-warn, never crash."""

    def test_interior_garbage_line_skipped_with_warning(self,
                                                        tmp_path):
        store, scenarios, path = _write_three(tmp_path)
        _rewrite_line(path, 2, "@@not json at all@@\n")
        with pytest.warns(CheckpointCorruptionWarning,
                          match=r"\[json\]"):
            records = store.load_records()
        assert set(records) == {scenarios[0].scenario_id,
                                scenarios[2].scenario_id}

    def test_non_dict_line_skipped_as_schema(self, tmp_path):
        store, scenarios, path = _write_three(tmp_path)
        _rewrite_line(path, 1, "[1, 2, 3]\n")
        with pytest.warns(CheckpointCorruptionWarning,
                          match=r"\[schema\]"):
            records = store.load_records()
        assert len(records) == 2

    def test_missing_key_and_bad_metrics_are_schema_issues(
            self, tmp_path):
        store, scenarios, path = _write_three(tmp_path)
        record = make_record(scenarios[0], {"m": 0.0}, 0.1)
        del record["metrics"]
        _rewrite_line(path, 1, json.dumps(record) + "\n")
        bad = make_record(scenarios[1], {"m": 1.0}, 0.1)
        bad["metrics"] = "oops"
        _rewrite_line(path, 2, json.dumps(bad) + "\n")
        with pytest.warns(CheckpointCorruptionWarning,
                          match="2 corrupt"):
            _, issues = store.scan()
        assert [i.kind for i in issues] == ["schema", "schema"]
        with pytest.warns(CheckpointCorruptionWarning,
                          match="2 corrupt"):
            records = store.load_records()
        assert len(records) == 1

    def test_crc_tamper_detected(self, tmp_path):
        store, scenarios, path = _write_three(tmp_path)
        with open(path) as fh:
            lines = fh.readlines()
        tampered = json.loads(lines[1])
        tampered["metrics"]["m"] += 1.0        # silent bit-flip
        _rewrite_line(path, 2, json.dumps(tampered) + "\n")
        with pytest.warns(CheckpointCorruptionWarning,
                          match=r"\[crc\]"):
            records = store.load_records()
        assert scenarios[1].scenario_id not in records

    @pytest.mark.parametrize("field,value", [
        ("scenario_id", ["a", "b"]), ("index", "3"), ("index", True),
        ("index", 2 ** 64), ("seed", 1.5), ("params", [1]),
        ("elapsed_s", "fast"), ("elapsed_s", 10 ** 400)],
        ids=["list-id", "str-index", "bool-index", "huge-index",
             "float-seed", "list-params", "str-elapsed",
             "huge-elapsed"])
    def test_wrong_field_type_without_crc_is_schema_issue(
            self, tmp_path, field, value):
        """Well-formed JSON with a wrongly typed field is one schema
        issue, never a crash (a list id is unhashable, for one)."""
        store, scenarios, path = _write_three(tmp_path)
        legacy = json.loads(open(path).readline())
        del legacy["crc"]
        legacy[field] = value
        _rewrite_line(path, 1, json.dumps(legacy) + "\n")
        with pytest.warns(CheckpointCorruptionWarning,
                          match=r"\[schema\]"):
            records, issues = store.scan()
        assert [(i.line_no, i.kind) for i in issues] == [(1, "schema")]
        assert set(records) == {s.scenario_id for s in scenarios[1:]}

    def test_legacy_record_without_crc_accepted(self, tmp_path):
        store, scenarios, path = _write_three(tmp_path)
        legacy = json.loads(open(path).readline())
        del legacy["crc"]
        _rewrite_line(path, 1, json.dumps(legacy) + "\n")
        records, issues = store.scan()
        assert issues == []
        assert len(records) == 3

    def test_record_crc_is_stable_under_key_order(self, tmp_path):
        record = make_record(_matrix().expand()[0], {"m": 1.0}, 0.1)
        shuffled = dict(reversed(list(record.items())))
        assert record_crc(record) == record_crc(shuffled)


class TestQuarantine:
    def test_roundtrip_dedupe_and_sort(self, tmp_path):
        store = ResultStore(_matrix(), cache_dir=str(tmp_path))
        store.ensure()
        assert store.load_quarantine() == []
        store.append_quarantine({"scenario_id": "b", "index": 2,
                                 "kind": "raise", "attempts": 1})
        store.append_quarantine({"scenario_id": "a", "index": 0,
                                 "kind": "raise", "attempts": 1})
        store.append_quarantine({"scenario_id": "b", "index": 2,
                                 "kind": "crash", "attempts": 3})
        entries = store.load_quarantine()
        assert [e["index"] for e in entries] == [0, 2]
        assert entries[1]["kind"] == "crash"    # keep-last wins
        assert {e["scenario_id"] for e in entries} == {"a", "b"}

    def test_clear_quarantine(self, tmp_path):
        store = ResultStore(_matrix(), cache_dir=str(tmp_path))
        store.ensure()
        store.append_quarantine({"scenario_id": "a", "index": 0})
        store.clear_quarantine()
        assert store.load_quarantine() == []
        store.clear_quarantine()                # idempotent

    def test_quarantine_tolerates_torn_tail(self, tmp_path):
        store = ResultStore(_matrix(), cache_dir=str(tmp_path))
        store.ensure()
        store.append_quarantine({"scenario_id": "a", "index": 1})
        with open(store.quarantine_path, "a") as fh:
            fh.write('{"scenario_id": "torn')
        assert [e["index"] for e in store.load_quarantine()] == [1]

    def test_append_after_torn_tail_keeps_the_new_entry(self,
                                                        tmp_path):
        """A killed writer's fragment must not swallow the next
        entry: the next append truncates it first."""
        store = ResultStore(_matrix(), cache_dir=str(tmp_path))
        store.append_quarantine({"scenario_id": "a", "index": 1})
        with open(store.quarantine_path, "a") as fh:
            fh.write('{"scenario_id": "torn')
        store.append_quarantine({"scenario_id": "b", "index": 2})
        assert {e["scenario_id"] for e in store.load_quarantine()} \
            == {"a", "b"}

    def test_wrongly_typed_entries_are_skipped(self, tmp_path):
        store = ResultStore(_matrix(), cache_dir=str(tmp_path))
        store.ensure()
        with open(store.quarantine_path, "w") as fh:
            for entry in ({"scenario_id": "a", "index": 3},
                          {"scenario_id": "b", "index": "7"},
                          {"scenario_id": ["c"], "index": 1},
                          {"scenario_id": "d", "index": True},
                          {"scenario_id": "e", "index": 0}):
                fh.write(json.dumps(entry) + "\n")
        assert [e["scenario_id"] for e in store.load_quarantine()] \
            == ["e", "a"]

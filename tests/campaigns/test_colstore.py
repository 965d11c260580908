"""Result store wall: round-trip properties, chunk recovery, WAL
tail durability, legacy JSONL directories.

The property tests pin that column chunks are a *lossless*
re-encoding of the JSONL checkpoint format: any record stream —
NaN/±inf metrics, per-record metric sets, absent seeds, nested
params — written as legacy JSONL lines or through the store's
chunk-sealing writer reads back canonical-JSON identical.  The
recovery tests pin the damage verdicts for sealed npz chunks, the
WAL-tail tests pin the kill windows the module docstring enumerates,
and the parity tests pin that directories holding only legacy JSONL
record files report and resume byte-identically.
"""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.campaigns.checkpoint import (CheckpointCorruptionWarning,
                                        RecordWriter, check_record,
                                        make_record, read_jsonl,
                                        record_crc)
from repro.campaigns.colstore import (ResultStore, chunk_paths,
                                      read_chunk, scan_chunks,
                                      write_chunk)
from repro.campaigns.matrix import Axis, CampaignMatrix
from repro.campaigns.runner import CampaignRunner
from repro.experiments.api import _canonical_json


def _matrix():
    return CampaignMatrix(name="col", experiment="camp-fast",
                          axes=(Axis("x", (1, 2, 3)),), seed=1)


def _record(i, metrics, seed=7, params=None):
    scenario = SimpleNamespace(
        scenario_id=f"col-{i:04d}", index=i, seed=seed,
        params=params if params is not None else {"x": i})
    return make_record(scenario, metrics, elapsed_s=0.01 * (i + 1))


def _write_legacy(store, label, records):
    """Write ``records`` as a legacy JSONL record file (the format of
    stores that predate column chunks)."""
    store.ensure()
    with RecordWriter(os.path.join(store.directory,
                                   f"results-{label}.jsonl")) as out:
        for record in records:
            out.append(record)


def _canonical_records(records):
    """Order-independent canonical-JSON view of a record collection."""
    if isinstance(records, dict):
        records = records.values()
    return sorted(_canonical_json(r) for r in records)


# -- property wall ----------------------------------------------------

_METRIC_VALUES = st.floats(allow_nan=True, allow_infinity=True,
                           width=64)
_METRICS = st.dictionaries(
    st.sampled_from(["mbps", "loss", "conv_s", "fair"]),
    _METRIC_VALUES, min_size=1, max_size=4)
_PARAMS = st.fixed_dictionaries({
    "x": st.integers(-1000, 1000),
    "label": st.sampled_from(["a", "b", "longer-label"]),
    "nested": st.lists(st.integers(0, 9), max_size=3),
})
_SEEDS = st.one_of(st.none(), st.integers(0, 2**63 - 1))


class TestRoundTripProperties:
    @settings(max_examples=30, deadline=None)
    @given(rows=st.lists(st.tuples(_METRICS, _SEEDS, _PARAMS),
                         min_size=1, max_size=8))
    def test_chunk_roundtrip_is_bit_exact(self, rows, tmp_path_factory):
        """seal -> load inverts exactly, including NaN vs missing
        metrics, ±inf, absent seeds, and nested params."""
        tmp = tmp_path_factory.mktemp("chunk")
        records = [_record(i, m, seed=s, params=p)
                   for i, (m, s, p) in enumerate(rows)]
        path = str(tmp / "columns-t-00000000.npz")
        write_chunk(path, records)
        loaded = read_chunk(path)
        assert _canonical_records(loaded) == _canonical_records(records)
        # CRC idempotence: the decoded rows re-canonicalize to the
        # same checksum, so a later scan accepts them.
        assert all(record_crc(r) == r["crc"] for r in loaded)

    @settings(max_examples=20, deadline=None)
    @given(rows=st.lists(st.tuples(_METRICS, _SEEDS, _PARAMS),
                         min_size=1, max_size=8),
           chunk_records=st.integers(1, 4))
    def test_backends_read_back_identically(self, rows, chunk_records,
                                            tmp_path_factory):
        """The same stream as legacy JSONL lines and through the
        chunk-sealing writer scans back canonical-JSON identical."""
        tmp = tmp_path_factory.mktemp("parity")
        records = [_record(i, m, seed=s, params=p)
                   for i, (m, s, p) in enumerate(rows)]
        jsonl = ResultStore(_matrix(), cache_dir=str(tmp / "j"))
        col = ResultStore(_matrix(), cache_dir=str(tmp / "c"),
                          chunk_records=chunk_records)
        _write_legacy(jsonl, "0of1", records)
        with col.writer("0of1") as out:
            for record in records:
                out.append(record)
        jsonl_records, jsonl_issues = jsonl.scan()
        col_records, col_issues = col.scan()
        assert jsonl_issues == [] and col_issues == []
        assert _canonical_records(col_records) \
            == _canonical_records(jsonl_records) \
            == _canonical_records(records)


class TestChunkBoundaries:
    @pytest.mark.parametrize("n,chunk_records", [
        (1, 1), (5, 1), (6, 3), (7, 3), (2, 64)])
    def test_seal_counts_and_empty_tail(self, tmp_path, n,
                                        chunk_records):
        store = ResultStore(_matrix(), cache_dir=str(tmp_path),
                            chunk_records=chunk_records)
        with store.writer("0of1") as out:
            for i in range(n):
                out.append(_record(i, {"m": float(i)}))
        chunks = chunk_paths(store.directory)
        assert len(chunks) == -(-n // chunk_records)    # ceil
        tail = os.path.join(store.directory, "results-0of1.jsonl")
        assert os.path.getsize(tail) == 0
        assert len(store.load_records()) == n

    def test_mid_stream_tail_holds_partial_chunk(self, tmp_path):
        store = ResultStore(_matrix(), cache_dir=str(tmp_path),
                            chunk_records=3)
        writer = store.writer("0of1")
        writer.__enter__()
        for i in range(5):
            writer.append(_record(i, {"m": float(i)}))
        # 3 sealed + 2 in the WAL tail, visible before any close.
        assert len(chunk_paths(store.directory)) == 1
        tail_records, _ = read_jsonl(writer.path, check_record)
        assert len(tail_records) == 2
        assert len(store.load_records()) == 5
        writer.__exit__(None, None, None)

    def test_chunk_records_validated(self, tmp_path):
        with pytest.raises(ValueError, match="chunk_records"):
            ResultStore(_matrix(), cache_dir=str(tmp_path),
                        chunk_records=0)
        with pytest.raises(ValueError, match="cannot seal"):
            write_chunk(str(tmp_path / "columns-x-00000000.npz"), [])


class TestWalTailDurability:
    """The three kill windows from the colstore docstring."""

    def test_kill_before_seal_keeps_tail_records(self, tmp_path):
        store = ResultStore(_matrix(), cache_dir=str(tmp_path),
                            chunk_records=64)
        writer = store.writer("0of1")
        writer.__enter__()
        for i in range(3):
            writer.append(_record(i, {"m": float(i)}))
        # Simulated SIGKILL: no __exit__, no seal — the fsynced tail
        # is the only copy, and the union scan reads it.
        del writer
        assert chunk_paths(store.directory) == []
        records, issues = store.scan()
        assert issues == [] and len(records) == 3

    def test_reopen_seals_leftover_tail(self, tmp_path):
        store = ResultStore(_matrix(), cache_dir=str(tmp_path),
                            chunk_records=64)
        writer = store.writer("0of1")
        writer.__enter__()
        writer.append(_record(0, {"m": 1.0}))
        del writer                                  # killed
        with store.writer("0of1") as out:           # resumed
            out.append(_record(1, {"m": 2.0}))
        # The orphan sealed into its own chunk on open; the new
        # record sealed on close; nothing left in the tail.
        assert len(chunk_paths(store.directory)) == 2
        records, issues = store.scan()
        assert issues == [] and len(records) == 2

    def test_kill_between_seal_and_truncate_dedupes(self, tmp_path):
        store = ResultStore(_matrix(), cache_dir=str(tmp_path),
                            chunk_records=2)
        records = [_record(i, {"m": float(i)}) for i in range(2)]
        store.ensure()
        write_chunk(os.path.join(store.directory,
                                 "columns-0of1-00000000.npz"), records)
        # The tail still holds the just-sealed records (the kill
        # landed after os.replace, before os.truncate).
        with open(os.path.join(store.directory,
                               "results-0of1.jsonl"), "w") as fh:
            for record in records:
                fh.write(_canonical_json(record) + "\n")
        loaded, issues = store.scan()
        assert issues == [] and len(loaded) == 2
        assert _canonical_records(loaded) == _canonical_records(records)

    def test_torn_tail_line_dropped_on_reopen(self, tmp_path):
        store = ResultStore(_matrix(), cache_dir=str(tmp_path),
                            chunk_records=64)
        with store.writer("0of1") as out:
            out.append(_record(0, {"m": 1.0}))
        tail = os.path.join(store.directory, "results-0of1.jsonl")
        with open(tail, "a") as fh:
            fh.write('{"scenario_id": "dead')       # killed mid-write
        with store.writer("0of1") as out:
            out.append(_record(1, {"m": 2.0}))
        records, issues = store.scan()
        assert issues == [] and len(records) == 2
        with open(tail) as fh:
            assert "dead" not in fh.read()


def _write_chunks(tmp_path, n=6, chunk_records=2):
    store = ResultStore(_matrix(), cache_dir=str(tmp_path),
                        chunk_records=chunk_records)
    with store.writer("0of1") as out:
        for i in range(n):
            out.append(_record(i, {"m": float(i)}))
    return store, chunk_paths(store.directory)


def _corrupt_whole(path):
    size = os.path.getsize(path)
    os.truncate(path, max(size // 2, 1))


class TestChunkDamage:
    """Torn/interior/CRC damage classification for sealed chunks,
    mirroring the JSONL line semantics in ``test_checkpoint.py``."""

    def test_damaged_final_chunk_warns(self, tmp_path):
        """Chunks appear only by fsync + rename, so no kill leaves an
        unreadable one: a damaged final chunk is corruption too."""
        store, chunks = _write_chunks(tmp_path)
        _corrupt_whole(chunks[-1])
        with pytest.warns(CheckpointCorruptionWarning,
                          match=r"\[chunk\]"):
            records = store.load_records()
        assert len(records) == 4
        with pytest.warns(CheckpointCorruptionWarning,
                          match=r"\[chunk\]"):
            _, issues = store.scan()
        assert [i.kind for i in issues] == ["chunk"]

    def test_interior_chunk_damage_warns(self, tmp_path):
        store, chunks = _write_chunks(tmp_path)
        _corrupt_whole(chunks[0])
        with pytest.warns(CheckpointCorruptionWarning,
                          match=r"\[chunk\]"):
            records = store.load_records()
        assert len(records) == 4

    def test_unknown_schema_is_schema_issue(self, tmp_path):
        store, chunks = _write_chunks(tmp_path, n=2, chunk_records=2)
        rows = read_chunk(chunks[0])
        with np.load(chunks[0]) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["schema"] = np.array(["repro-colstore/999"])
        np.savez(chunks[0], **arrays)
        with pytest.warns(CheckpointCorruptionWarning,
                          match=r"\[schema\]"):
            _, issues = store.scan()
        assert [i.kind for i in issues] == ["schema"]
        assert "repro-colstore/999" in issues[0].detail
        assert rows                                 # was readable

    def test_missing_columns_is_schema_issue(self, tmp_path):
        store, chunks = _write_chunks(tmp_path, n=2, chunk_records=2)
        np.savez(chunks[0], bogus=np.array([1]))
        with pytest.warns(CheckpointCorruptionWarning,
                          match=r"\[schema\]"):
            _, issues = store.scan()
        assert [i.kind for i in issues] == ["schema"]
        assert "missing columns" in issues[0].detail

    def test_row_crc_tamper_detected(self, tmp_path):
        records = [_record(i, {"m": float(i)}) for i in range(3)]
        records[1]["metrics"]["m"] += 1.0       # CRC now stale
        path = str(tmp_path / "columns-0of1-00000000.npz")
        write_chunk(path, records)
        loaded, issues = scan_chunks(str(tmp_path))
        assert [i.kind for i in issues] == ["crc"]
        assert issues[0].line_no == 2           # 1-based row number
        assert [r["index"] for r in loaded] == [0, 2]


class TestBackendParity:
    """Directories written before chunks existed hold only JSONL
    record files; they report and resume through the tail reader."""

    def _legacy_copy(self, matrix, source, target, keep=None):
        """Rewrite ``source``'s records as a legacy JSONL directory."""
        records = ResultStore(matrix, cache_dir=source).load_records()
        kept = [records[s.scenario_id] for s in matrix.expand()
                if keep is None or s.index in keep]
        _write_legacy(ResultStore(matrix, cache_dir=target), "0of1",
                      kept)

    def test_columnar_summary_is_byte_identical_to_jsonl(self,
                                                         tmp_path):
        """A complete legacy JSONL directory resumes with nothing
        recomputed and reports byte-identically to the store."""
        matrix = CampaignMatrix(
            name="parity", experiment="camp-fast",
            axes=(Axis("x", (1, 2, 3)), Axis("y", (0.5, 1.5))),
            seed=9)
        runner = CampaignRunner(cache_dir=str(tmp_path / "c"))
        assert runner.run(matrix).done
        self._legacy_copy(matrix, str(tmp_path / "c"),
                          str(tmp_path / "j"))
        progress = []
        legacy = CampaignRunner(cache_dir=str(tmp_path / "j"),
                                progress=progress.append)
        assert legacy.run(matrix).done
        assert "0 to run" in progress[0]
        payloads = []
        for sub, done in (("c", runner), ("j", legacy)):
            done.report(matrix)
            with open(ResultStore(matrix, cache_dir=str(tmp_path / sub))
                      .summary_path, "rb") as fh:
                payloads.append(fh.read())
        assert payloads[0] == payloads[1]
        assert json.loads(payloads[0])["completed"] == 6
        assert chunk_paths(ResultStore(
            matrix, cache_dir=str(tmp_path / "j")).directory) == []

    def test_jsonl_run_resumes_under_columnar_store(self, tmp_path):
        """A partial legacy JSONL directory resumes with only the
        missing scenarios run; the first writer seals its records."""
        matrix = _matrix()
        assert CampaignRunner(cache_dir=str(tmp_path / "c")).run(
            matrix).done
        self._legacy_copy(matrix, str(tmp_path / "c"),
                          str(tmp_path / "j"), keep={0, 1})
        progress = []
        resumed = CampaignRunner(cache_dir=str(tmp_path / "j"),
                                 progress=progress.append)
        status = resumed.run(matrix)
        assert status.done
        assert "1 to run" in progress[0], \
            f"resume recomputed checkpointed work: {progress[0]!r}"
        store = ResultStore(matrix, cache_dir=str(tmp_path / "j"))
        records, issues = store.scan()
        assert issues == [] and len(records) == 3
        assert len(chunk_paths(store.directory)) == 2
        assert os.path.getsize(os.path.join(
            store.directory, "results-0of1.jsonl")) == 0

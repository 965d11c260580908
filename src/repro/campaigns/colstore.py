"""The campaign result store: sealed npz column chunks behind a WAL tail.

Each campaign gets a directory under ``{cache_dir}/campaigns/`` keyed
by the matrix's content digest, holding:

* ``manifest.json`` — the matrix definition and scenario count.
* ``results-{label}.jsonl`` — each writer's write-ahead tail: one
  fsynced checkpoint line per completed scenario not yet sealed.
  One label (normally the shard spec, e.g. ``2of8``) has at most one
  live writer; distinct labels may append concurrently from
  different processes or machines sharing the cache directory.
* ``columns-{label}-{seq:08d}.npz`` — sealed column chunks: one numpy
  column per record field (ids, indices, seeds, params JSON, elapsed,
  CRCs) plus a dense ``(n_metrics, n_rows)`` value matrix with a
  presence mask distinguishing a missing metric from a NaN one.
  Reads decode chunks row by row into checkpoint records.
* ``quarantine.jsonl`` — scenarios the supervised runner gave up on
  after exhausting retries, with their captured tracebacks (see
  :mod:`repro.campaigns.runner`).
* ``summary.json`` — the tidy report (written by ``report``).

**Durability (the WAL tail).**  Every ``append`` first writes the
record as a tail line through
:class:`repro.campaigns.checkpoint.RecordWriter`; once
``chunk_records`` rows have accumulated, and when the writer closes,
they are sealed into an atomically-renamed chunk and the tail is
truncated.  A kill at any instant therefore loses at most the record
in flight:

* before a seal — the records live in the tail, which
  :meth:`ResultStore.scan` reads line by line;
* between seal and tail truncation — the records exist twice; the
  scan deduplicates by scenario id, which determinism makes safe;
* mid-seal — the ``os.replace`` never published the chunk, and the
  tail still holds everything.

The next writer on a label first seals the valid records its tail
holds, so the tail never accumulates across generations.  A directory
holding only JSONL record files (written before chunks existed) reads
through the same tail reader, and the first writer that resumes it
seals them: no migration step.  Rerunning a campaign recomputes
exactly the scenarios whose records never reached disk, and the
summary is byte-identical to an uninterrupted run's, because records
carry only deterministic content (timings are stored but excluded
from summaries).

**Integrity.**  Rows carry the record's ``crc``, recomputed from the
decoded columns on load, so a changed value inside a readable chunk
is caught per row (``crc``).  A chunk appears only after fsync plus
atomic rename, so no kill leaves an unreadable one: every chunk that
fails to load is damage (``chunk``).  :meth:`ResultStore.load_records`
skips damaged lines, rows and chunks with a
:class:`repro.campaigns.checkpoint.CheckpointCorruptionWarning` — the
torn trailing tail line a kill leaves is skipped silently — and the
affected scenarios are recomputed on the next run.  ``repro campaign
verify`` exposes the same scan on the CLI.
"""

from __future__ import annotations

import functools
import json
import os
import re
import warnings
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.campaigns.checkpoint import (CheckpointCorruptionWarning,
                                        CheckpointIssue, RecordWriter,
                                        check_record, read_jsonl,
                                        record_crc, require,
                                        write_json_atomic)
from repro.experiments.api import _canonical_json, _decode_metrics

__all__ = ["CHUNK_SCHEMA", "ColumnChunkWriter", "DEFAULT_CHUNK_RECORDS",
           "ResultStore", "chunk_paths", "read_chunk", "scan_chunks",
           "tail_paths", "write_chunk"]

#: Format marker embedded in every chunk file.
CHUNK_SCHEMA = "repro-colstore/1"

#: Rows buffered in the WAL tail before sealing a chunk.  Small
#: enough that a chunk seals every few seconds on real campaigns,
#: large enough that one npz file holds many rows.
DEFAULT_CHUNK_RECORDS = 64

#: Arrays every chunk must carry to be loadable.
_CHUNK_KEYS = ("schema", "scenario_id", "index", "seed",
               "seed_present", "params_json", "elapsed_s", "crc",
               "metric_names", "metric_values", "metric_present")

_CHUNK_RE = re.compile(
    r"^columns-(?P<label>.+)-(?P<seq>\d{8})\.npz$")

#: Fields a quarantine entry must hold for ``load_quarantine``.
_check_quarantine = functools.partial(require, scenario_id=str,
                                      index=int)


def tail_paths(directory: str) -> List[str]:
    """JSONL record files (WAL tails) under ``directory``, sorted."""
    if not os.path.isdir(directory):
        return []
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.startswith("results-") and name.endswith(".jsonl"))


def chunk_paths(directory: str) -> List[str]:
    """Sealed chunk files under ``directory``, sorted by
    ``(label, sequence)`` so reads are deterministic."""
    if not os.path.isdir(directory):
        return []
    found = []
    for name in os.listdir(directory):
        match = _CHUNK_RE.match(name)
        if match is not None:
            found.append((match.group("label"),
                          int(match.group("seq")),
                          os.path.join(directory, name)))
    return [path for _label, _seq, path in sorted(found)]


def _metrics_columns(records: List[Dict[str, Any]]
                     ) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """Build the ``(names, values, present)`` metric columns.

    ``values`` is float64 with one row per metric name (sorted union
    over the chunk) and NaN where absent; ``present`` is the boolean
    mask distinguishing a *missing* metric from a legitimately-NaN
    one — the distinction the bit-exact round trip depends on.
    """
    names = sorted({key for record in records
                    for key in record["metrics"]})
    values = np.full((len(names), len(records)), np.nan,
                     dtype=np.float64)
    present = np.zeros((len(names), len(records)), dtype=bool)
    positions = {name: i for i, name in enumerate(names)}
    for j, record in enumerate(records):
        decoded = _decode_metrics(record["metrics"])
        for key, value in decoded.items():
            i = positions[key]
            values[i, j] = value
            present[i, j] = True
    return names, values, present


def write_chunk(path: str, records: List[Dict[str, Any]]) -> None:
    """Seal ``records`` into one npz column chunk, atomically.

    Records are checkpoint records as built by
    :func:`repro.campaigns.checkpoint.make_record` (canonical or
    decoded metrics both accepted).  The file appears at ``path`` via
    tmp-file + rename, so readers never observe a half-written chunk.
    """
    if not records:
        raise ValueError("cannot seal an empty chunk")
    names, values, present = _metrics_columns(records)
    columns = {
        "schema": np.array([CHUNK_SCHEMA]),
        "scenario_id": np.array(
            [r["scenario_id"] for r in records]),
        "index": np.array([int(r["index"]) for r in records],
                          dtype=np.int64),
        "seed": np.array(
            [0 if r["seed"] is None else int(r["seed"])
             for r in records], dtype=np.int64),
        "seed_present": np.array(
            [r["seed"] is not None for r in records], dtype=bool),
        "params_json": np.array(
            [_canonical_json(r["params"]) for r in records]),
        "elapsed_s": np.array(
            [float(r["elapsed_s"]) for r in records],
            dtype=np.float64),
        "crc": np.array(
            [r.get("crc") or record_crc(r) for r in records]),
        "metric_names": np.array(names),
        "metric_values": values,
        "metric_present": present,
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **columns)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _chunk_rows(data) -> Iterator[Dict[str, Any]]:
    """Reconstruct checkpoint records from loaded chunk arrays.

    Metrics come back *decoded* (NaN/inf floats), matching what
    :func:`repro.campaigns.checkpoint.check_record` returns.
    """
    # An npz member is read and parsed again on every ``data[key]``.
    col = {key: data[key] for key in _CHUNK_KEYS}
    names = [str(n) for n in col["metric_names"]]
    values, present = col["metric_values"], col["metric_present"]
    for j in range(len(col["scenario_id"])):
        metrics = {names[i]: float(values[i, j])
                   for i in range(len(names)) if present[i, j]}
        yield {
            "scenario_id": str(col["scenario_id"][j]),
            "index": int(col["index"][j]),
            "seed": int(col["seed"][j]) if col["seed_present"][j]
            else None,
            "params": json.loads(str(col["params_json"][j])),
            "metrics": metrics,
            "elapsed_s": float(col["elapsed_s"][j]),
            "crc": str(col["crc"][j]),
        }


def read_chunk(path: str) -> List[Dict[str, Any]]:
    """Load every row of one chunk as checkpoint records, without
    damage classification (raises on an unreadable file)."""
    with np.load(path, allow_pickle=False) as data:
        return list(_chunk_rows(data))


def scan_chunks(directory: str
                ) -> Tuple[List[Dict[str, Any]],
                           List[CheckpointIssue]]:
    """Read every sealed chunk under ``directory``, classifying
    damage.

    Returns ``(records, issues)``.  An unreadable chunk produces one
    whole-file ``"chunk"`` issue and a schema-violating one a
    ``"schema"`` issue.  A readable chunk is then verified row by
    row: rows whose recomputed CRC mismatches the stored one become
    ``"crc"`` issues and are skipped.
    """
    records: List[Dict[str, Any]] = []
    issues: List[CheckpointIssue] = []
    for path in chunk_paths(directory):
        try:
            with np.load(path, allow_pickle=False) as data:
                missing = [k for k in _CHUNK_KEYS
                           if k not in data.files]
                if missing:
                    issues.append(CheckpointIssue(
                        path=path, line_no=0, kind="schema",
                        detail=f"chunk missing columns {missing}"))
                    continue
                schema = str(data["schema"][0])
                if schema != CHUNK_SCHEMA:
                    issues.append(CheckpointIssue(
                        path=path, line_no=0, kind="schema",
                        detail=f"unknown chunk schema {schema!r}"))
                    continue
                rows = list(_chunk_rows(data))
        except Exception as exc:
            issues.append(CheckpointIssue(
                path=path, line_no=0, kind="chunk",
                detail=f"unreadable chunk: {exc}"))
            continue
        for row_no, record in enumerate(rows):
            computed = record_crc(record)
            if record["crc"] != computed:
                issues.append(CheckpointIssue(
                    path=path, line_no=row_no + 1, kind="crc",
                    detail=(f"stored {record['crc']}, computed "
                            f"{computed}")))
                continue
            records.append(record)
    return records, issues


class ResultStore:
    """The on-disk state of one campaign (see the module docstring).

    ``chunk_records`` is the number of rows the writer seals per
    chunk.

    Example::

        store = ResultStore(matrix, cache_dir=".repro-cache")
        with store.writer("0of1") as out:
            out.append(make_record(scenario, metrics, elapsed))
        store.completed_ids()
    """

    def __init__(self, matrix, cache_dir: str = ".repro-cache",
                 chunk_records: int = DEFAULT_CHUNK_RECORDS):
        if chunk_records < 1:
            raise ValueError("chunk_records must be >= 1")
        self.matrix = matrix
        self.chunk_records = int(chunk_records)
        self.directory = os.path.join(
            cache_dir, "campaigns",
            f"{matrix.name}-{matrix.digest()}")

    @property
    def manifest_path(self) -> str:
        """Path of the matrix-definition manifest."""
        return os.path.join(self.directory, "manifest.json")

    @property
    def summary_path(self) -> str:
        """Path the tidy report is written to."""
        return os.path.join(self.directory, "summary.json")

    @property
    def quarantine_path(self) -> str:
        """Path of the poison-scenario quarantine JSONL."""
        return os.path.join(self.directory, "quarantine.jsonl")

    def ensure(self) -> None:
        """Create the campaign directory and manifest if missing."""
        os.makedirs(self.directory, exist_ok=True)
        if not os.path.exists(self.manifest_path):
            manifest = dict(self.matrix.to_manifest())
            manifest["digest"] = self.matrix.digest()
            manifest["total_scenarios"] = \
                self.matrix.total_scenarios()
            write_json_atomic(self.manifest_path, manifest)

    # -- writing ------------------------------------------------------

    def writer(self, label: str) -> "ColumnChunkWriter":
        """Open the chunk-sealing record writer for one label."""
        self.ensure()
        return ColumnChunkWriter(self.directory, label,
                                 chunk_records=self.chunk_records)

    # -- reading ------------------------------------------------------

    def scan(self) -> Tuple[Dict[str, Dict[str, Any]],
                            List[CheckpointIssue]]:
        """Read every record in the directory — tail lines *and*
        sealed chunks — classifying damage as it goes.

        Returns ``(records, issues)`` with records keyed by scenario
        id; duplicates across files keep the first parsed copy
        (byte-identical by determinism, so the choice cannot matter).
        Tail records come first: a record seen there is at least as
        fresh as a sealed copy of it.
        """
        records: List[Dict[str, Any]] = []
        issues: List[CheckpointIssue] = []
        for path in tail_paths(self.directory):
            items, damage = read_jsonl(path, check_record)
            records += [record for _line_no, record in items]
            issues += damage
        chunked, damage = scan_chunks(self.directory)
        by_id: Dict[str, Dict[str, Any]] = {}
        for record in records + chunked:
            by_id.setdefault(record["scenario_id"], record)
        return by_id, issues + damage

    def load_records(self) -> Dict[str, Dict[str, Any]]:
        """All loadable records, keyed by scenario id.

        A torn trailing tail line (from a killed writer) is silently
        dropped; every other damage (bad JSON, unreadable chunk,
        schema, CRC) is dropped with a
        :class:`CheckpointCorruptionWarning` — either way the affected
        scenario is recomputed on the next run instead of crashing
        the read.
        """
        records, issues = self.scan()
        damaged = [i for i in issues if i.kind != "torn"]
        if damaged:
            heads = "; ".join(
                f"{os.path.basename(i.path)}:{i.line_no} [{i.kind}]"
                for i in damaged[:3])
            warnings.warn(
                f"{self.matrix.name}: skipped {len(damaged)} corrupt "
                f"checkpoint record(s) ({heads}); the affected "
                f"scenarios will be recomputed",
                CheckpointCorruptionWarning, stacklevel=2)
        return records

    def completed_ids(self) -> set:
        """Scenario ids that already have a checkpointed record."""
        return set(self.load_records())

    # -- quarantine ---------------------------------------------------

    def append_quarantine(self, entry: Dict[str, Any]) -> None:
        """Durably append one poison-scenario entry to
        ``quarantine.jsonl``, so entries survive the same kills
        checkpoint records do."""
        self.ensure()
        with RecordWriter(self.quarantine_path) as out:
            out.append(entry)

    def load_quarantine(self) -> List[Dict[str, Any]]:
        """The quarantine entries, deduplicated and deterministically
        ordered.

        Later entries for the same scenario id win (a scenario can be
        re-quarantined by a later run with a fresher traceback), and
        the result is sorted by scenario index — so two runs that
        quarantine the same scenarios list them identically regardless
        of execution order.  Damaged lines, and entries without a
        string ``scenario_id`` and an integer ``index``, are skipped.
        """
        items, _issues = read_jsonl(self.quarantine_path,
                                    _check_quarantine)
        entries = {entry["scenario_id"]: entry for _, entry in items}
        return sorted(entries.values(), key=lambda e: e["index"])

    def quarantined_ids(self) -> set:
        """Scenario ids currently in quarantine."""
        return {e["scenario_id"] for e in self.load_quarantine()}

    def clear_quarantine(self) -> None:
        """Drop the quarantine (a rerun will retry those scenarios)."""
        try:
            os.remove(self.quarantine_path)
        except FileNotFoundError:
            pass


class ColumnChunkWriter(RecordWriter):
    """The store's record sink: a :class:`RecordWriter` on one
    label's WAL tail that also seals column chunks.

    Every ``append`` first lands in the tail (one flushed, fsynced
    JSONL line — durable immediately), then buffers; at
    ``chunk_records`` rows, and on close, the buffer seals into an
    atomic npz chunk and the tail truncates.  On open, the valid
    records a previous (killed) writer left in the tail are sealed
    into their own chunk first; its damaged lines hold nothing
    recoverable and go with the truncation.
    """

    def __init__(self, directory: str, label: str,
                 chunk_records: int = DEFAULT_CHUNK_RECORDS):
        super().__init__(os.path.join(directory,
                                      f"results-{label}.jsonl"))
        self.directory = directory
        self.label = label
        self.chunk_records = int(chunk_records)
        self._buffer: List[Dict[str, Any]] = []
        self._seq = self._next_seq()

    def _next_seq(self) -> int:
        """First unused chunk sequence number for this label."""
        highest = -1
        for path in chunk_paths(self.directory):
            match = _CHUNK_RE.match(os.path.basename(path))
            if match.group("label") == self.label:
                highest = max(highest, int(match.group("seq")))
        return highest + 1

    def __enter__(self) -> "ColumnChunkWriter":
        super().__enter__()
        # Records already sealed *and* still in the tail (a kill
        # between seal and truncate) get sealed twice; the scan
        # deduplicates by scenario id.
        self._buffer = [record for _line_no, record
                        in read_jsonl(self.path, check_record)[0]]
        self._seal()
        return self

    def __exit__(self, *exc) -> None:
        self._seal()
        super().__exit__(*exc)

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (tail line now, chunk later)."""
        super().append(record)
        self._buffer.append(record)
        if len(self._buffer) >= self.chunk_records:
            self._seal()

    def _seal(self) -> None:
        """Seal the buffer, if any, into the next chunk, then empty
        the tail (its records are now durable in the chunk)."""
        if self._buffer:
            write_chunk(os.path.join(
                self.directory,
                f"columns-{self.label}-{self._seq:08d}.npz"),
                self._buffer)
            self._seq += 1
            self._buffer = []
        os.truncate(self.path, 0)

"""The campaign result store: checkpoint records in fsynced JSONL logs.

A checkpoint *record* is one completed scenario: its id, index, seed,
canonical params and metrics, wall time, and a ``crc`` field — a
CRC-32 of its canonical JSON minus the field itself — so bit rot,
partial flushes and editor accidents are *detected*, not silently
aggregated.

Each campaign gets a directory under ``{cache_dir}/campaigns/`` keyed
by the matrix's content digest (:class:`ResultStore`), holding:

* ``manifest.json`` — the matrix definition and scenario count.
* ``results-{label}.jsonl`` — one record log per writer label, one
  fsynced line per completed scenario.  One label (normally the shard
  spec, e.g. ``2of8``) has at most one live writer; distinct labels
  may append concurrently from different processes or machines
  sharing the cache directory.
* ``quarantine.jsonl`` — scenarios the supervised runner gave up on
  after exhausting retries, with their captured tracebacks (see
  :mod:`repro.campaigns.runner`).
* ``summary.json`` — the tidy report (written by ``report``).

Every durable JSONL log in the campaign engine — the record logs,
``quarantine.jsonl`` and the service's ``queue.jsonl``
(:mod:`repro.campaigns.service`) — is written by one appender and read
by one line reader:

* :class:`RecordWriter` writes each object as one flushed, fsynced
  line, so a kill at any instant loses at most the line in flight.
  On open it truncates the torn trailing fragment a killed writer
  leaves, so the fragment can neither swallow the next line nor
  linger as interior damage.
* :func:`read_jsonl` parses line by line and checks every object's
  field types (:func:`require`) before a caller sees it, so a
  damaged or hand-edited line becomes one :class:`CheckpointIssue`
  instead of a crash.

:meth:`ResultStore.scan` reads every record log and deduplicates by
scenario id, which determinism makes safe.  A damaged line other than
a torn tail is skipped with a :class:`CheckpointCorruptionWarning`
and stays in its log, where ``repro campaign verify`` keeps naming
it; the affected scenario is recomputed on the next run.  Rerunning a
campaign recomputes exactly the scenarios whose records never reached
disk, and the summary is byte-identical to an uninterrupted run's,
because records carry only deterministic content (timings are stored
but excluded from summaries).
"""

from __future__ import annotations

import functools
import json
import os
import warnings
import zlib
from dataclasses import dataclass
from typing import IO, Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.api import (_canonical, _decode_metrics,
                                   _canonical_json)

__all__ = ["CheckpointCorruptionWarning", "CheckpointIssue",
           "LineRejected", "RecordWriter", "ResultStore",
           "check_record", "log_paths", "make_record", "read_jsonl",
           "record_crc", "require", "write_json_atomic"]

#: The matrix derives 63-bit seeds
#: (:func:`repro.campaigns.matrix.derive_scenario_seed`) and indices
#: count scenarios, so the runner never writes a value outside int64:
#: one there marks a damaged or hand-edited line.
_INT64 = range(-2 ** 63, 2 ** 63)


class CheckpointCorruptionWarning(UserWarning):
    """A damaged (non-torn) checkpoint record was skipped.

    The affected scenario is simply requeued — determinism makes
    recomputation safe — but corruption is worth a warning where a
    torn trailing line (the expected kill artifact) is not.
    """


def write_json_atomic(path: str, payload: Any) -> None:
    """Write ``payload`` as pretty sorted JSON via tmp-file + rename,
    so readers never observe a torn document."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def record_crc(record: Dict[str, Any]) -> str:
    """CRC-32 (8 hex chars) of a record's canonical JSON, excluding
    any ``crc`` field — the value :func:`make_record` embeds and
    :func:`check_record` verifies."""
    payload = {k: v for k, v in record.items() if k != "crc"}
    return format(zlib.crc32(_canonical_json(payload).encode()),
                  "08x")


def make_record(scenario, metrics: Dict[str, float],
                elapsed_s: float) -> Dict[str, Any]:
    """Build one checkpoint record (CRC included) for a completed
    scenario."""
    record = {
        "scenario_id": scenario.scenario_id,
        "index": scenario.index,
        "seed": scenario.seed,
        "params": _canonical(scenario.params),
        "metrics": _canonical(metrics),
        "elapsed_s": round(float(elapsed_s), 6),
    }
    record["crc"] = record_crc(record)
    return record


@dataclass(frozen=True)
class CheckpointIssue:
    """One damaged line found by a scan.

    ``kind`` is ``"torn"`` (unparseable *trailing* line — the normal
    artifact of a killed writer), ``"json"`` (unparseable interior
    line), ``"schema"`` (parseable, but missing fields or holding
    wrong field types), or ``"crc"`` (record whose checksum does not
    match its content).  ``line_no`` is 1-based.
    """

    path: str
    line_no: int
    kind: str
    detail: str = ""


class LineRejected(ValueError):
    """A parseable line that is not a valid object; ``kind`` is the
    :class:`CheckpointIssue` kind it becomes."""

    def __init__(self, detail: str, kind: str = "schema"):
        super().__init__(detail)
        self.kind = kind


def require(obj: Dict[str, Any], optional: bool = False,
            **fields: Any) -> Dict[str, Any]:
    """Return ``obj`` when every named field holds one of its types.

    Each keyword maps a field name to a type or tuple of types;
    ``bool`` never passes for ``int``.  Raises :class:`LineRejected`
    on a missing field (unless ``optional``) or a wrong type.
    """
    for name, kinds in fields.items():
        if name not in obj:
            if optional:
                continue
            raise LineRejected(f"missing field {name!r}")
        kinds = kinds if isinstance(kinds, tuple) else (kinds,)
        value = obj[name]
        if not isinstance(value, kinds) or \
                (isinstance(value, bool) and bool not in kinds):
            raise LineRejected(
                f"field {name!r} holds {type(value).__name__}")
    return obj


def check_record(obj: Dict[str, Any]) -> Dict[str, Any]:
    """Validate one parsed checkpoint record and decode its metrics.

    CRC and schema checks run on the *raw* parsed dict, before metric
    decoding rewrites nulls into NaN (which would break
    re-canonicalizing the bytes the writer hashed).  Records lacking
    a ``crc`` field (pre-integrity checkpoints) still load — they
    simply have nothing to verify against.
    """
    require(obj, scenario_id=str, index=int, seed=(int, type(None)),
            params=dict, metrics=dict, elapsed_s=(int, float))
    if obj["index"] not in _INT64 or \
            (obj["seed"] is not None and obj["seed"] not in _INT64):
        raise LineRejected("index or seed outside int64")
    if "crc" in obj and obj["crc"] != record_crc(obj):
        raise LineRejected(f"stored {obj['crc']}, computed "
                           f"{record_crc(obj)}", kind="crc")
    try:
        float(obj["elapsed_s"])
        obj["metrics"] = _decode_metrics(obj["metrics"])
    except (ValueError, TypeError, OverflowError) as exc:
        raise LineRejected(f"undecodable values: {exc}") from None
    return obj


def read_jsonl(path: str, check: Callable[[Dict[str, Any]], Any]
               ) -> Tuple[List[Tuple[int, Any]],
                          List[CheckpointIssue]]:
    """Read one JSONL log, classifying damage line by line.

    Returns ``(items, issues)``: ``(line_no, check(obj))`` for every
    line holding a JSON object that ``check`` accepts, and exactly
    one :class:`CheckpointIssue` for every other non-blank line.  An
    unparseable line is ``"torn"`` when it is the last one (a killed
    writer's fragment) and ``"json"`` otherwise; an object ``check``
    rejects takes the kind of the :class:`LineRejected` it raised.
    ``line_no`` is 1-based; a missing file reads as empty.
    """
    try:
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
    except FileNotFoundError:
        return [], []
    occupied = [i for i, line in enumerate(lines) if line.strip()]
    items: List[Tuple[int, Any]] = []
    issues: List[CheckpointIssue] = []
    for i in occupied:
        try:
            obj = json.loads(lines[i].decode())
        except (ValueError, RecursionError) as exc:
            kind = "torn" if i == occupied[-1] else "json"
            issues.append(CheckpointIssue(path, i + 1, kind, str(exc)))
            continue
        try:
            if not isinstance(obj, dict):
                raise LineRejected("not a JSON object")
            items.append((i + 1, check(obj)))
        except LineRejected as exc:
            issues.append(CheckpointIssue(path, i + 1, exc.kind,
                                          str(exc)))
    return items, issues


class RecordWriter:
    """Append-and-fsync JSONL writer (context manager).

    Objects become durable one line at a time: each ``append`` writes
    a full line, flushes and fsyncs, so a kill loses at most the line
    in flight.  Reopening after a kill first *truncates* any torn
    trailing line (the fragment holds an incomplete object that would
    be skipped anyway), so it can neither swallow the next line
    appended nor linger as a bogus interior line tripping corruption
    warnings forever after.  A trailing line that parses — complete
    but for its newline — is what :func:`read_jsonl` accepts, so it
    is kept and terminated instead.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[IO[str]] = None

    @staticmethod
    def _ends_mid_line(path: str) -> bool:
        try:
            with open(path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() == 0:
                    return False
                fh.seek(-1, os.SEEK_END)
                return fh.read(1) != b"\n"
        except OSError:
            return False

    @staticmethod
    def _drop_torn_tail(path: str) -> None:
        with open(path, "rb+") as fh:
            data = fh.read()
            keep = data.rfind(b"\n") + 1      # 0 when no newline
            try:
                json.loads(data[keep:].decode())
            except (ValueError, RecursionError):
                fh.truncate(keep)
            else:
                fh.write(b"\n")

    def __enter__(self) -> "RecordWriter":
        if self._ends_mid_line(self.path):
            self._drop_torn_tail(self.path)
        self._fh = open(self.path, "a")
        return self

    def __exit__(self, *exc) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def append(self, record: Dict[str, Any]) -> None:
        """Write one object as a flushed, fsynced JSONL line."""
        assert self._fh is not None, "writer used outside `with`"
        self._fh.write(_canonical_json(record))
        self._fh.write("\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())


#: Fields a quarantine entry must hold for ``load_quarantine``.
_check_quarantine = functools.partial(require, scenario_id=str,
                                      index=int)


def log_paths(directory: str) -> List[str]:
    """The record logs (``results-*.jsonl``) under ``directory``,
    sorted so reads are deterministic."""
    if not os.path.isdir(directory):
        return []
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.startswith("results-") and name.endswith(".jsonl"))


class ResultStore:
    """The on-disk state of one campaign (see the module docstring).

    Example::

        store = ResultStore(matrix, cache_dir=".repro-cache")
        with store.writer("0of1") as out:
            out.append(make_record(scenario, metrics, elapsed))
        store.completed_ids()
    """

    def __init__(self, matrix, cache_dir: str = ".repro-cache"):
        self.matrix = matrix
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

    def writer(self, label: str) -> RecordWriter:
        """Open one label's record log for appending."""
        self.ensure()
        return RecordWriter(os.path.join(self.directory,
                                         f"results-{label}.jsonl"))

    def scan(self) -> Tuple[Dict[str, Dict[str, Any]],
                            List[CheckpointIssue]]:
        """Read every record log in the directory, classifying damage
        as it goes.

        Returns ``(records, issues)`` with records keyed by scenario
        id; duplicates across logs keep the first parsed copy
        (byte-identical by determinism, so the choice cannot matter).
        Damage other than a torn trailing line raises a
        :class:`CheckpointCorruptionWarning`, attributed to the
        caller.
        """
        by_id: Dict[str, Dict[str, Any]] = {}
        issues: List[CheckpointIssue] = []
        for path in log_paths(self.directory):
            items, damage = read_jsonl(path, check_record)
            for _line_no, record in items:
                by_id.setdefault(record["scenario_id"], record)
            issues += damage
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
        return by_id, issues

    def load_records(self) -> Dict[str, Dict[str, Any]]:
        """All loadable records, keyed by scenario id.

        A torn trailing line (from a killed writer) is silently
        dropped; every other damage (bad JSON, schema, CRC) is dropped
        with a :class:`CheckpointCorruptionWarning` — either way the
        affected scenario is recomputed on the next run instead of
        crashing the read.
        """
        return self.scan()[0]

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

    def clear_quarantine(self) -> None:
        """Drop the quarantine (a rerun will retry those scenarios)."""
        try:
            os.remove(self.quarantine_path)
        except FileNotFoundError:
            pass

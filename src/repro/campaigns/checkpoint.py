"""Campaign checkpoint records and the durable JSONL log they live in.

A checkpoint *record* is one completed scenario: its id, index, seed,
canonical params and metrics, wall time, and a ``crc`` field — a
CRC-32 of its canonical JSON minus the field itself — so bit rot,
partial flushes and editor accidents are *detected*, not silently
aggregated.

Every durable JSONL log in the campaign engine — the result store's
write-ahead tail (:mod:`repro.campaigns.colstore`), its
``quarantine.jsonl`` and the service's ``queue.jsonl``
(:mod:`repro.campaigns.service`) — is written by one appender and read
by one line reader:

* :class:`RecordWriter` writes each object as one flushed, fsynced
  line.  On open it truncates the torn trailing fragment a killed
  writer leaves, so the fragment can neither swallow the next line
  nor linger as interior damage.
* :func:`read_jsonl` parses line by line and checks every object's
  field types (:func:`require`) before a caller sees it, so a
  damaged or hand-edited line becomes one :class:`CheckpointIssue`
  instead of a crash.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import IO, Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.api import (_canonical, _decode_metrics,
                                   _canonical_json)

__all__ = ["CheckpointCorruptionWarning", "CheckpointIssue",
           "LineRejected", "RecordWriter", "check_record",
           "make_record", "read_jsonl", "record_crc", "require",
           "write_json_atomic"]

#: Seeds and indices are stored in int64 chunk columns.
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
    """One damaged line or chunk found by a scan.

    ``kind`` is ``"torn"`` (unparseable *trailing* line — the normal
    artifact of a killed writer), ``"json"`` (unparseable interior
    line), ``"chunk"`` (unreadable column chunk), ``"schema"``
    (parseable, but missing fields or holding wrong field types), or
    ``"crc"`` (record whose checksum does not match its content).
    ``line_no`` is 1-based for JSONL lines and the 1-based row number
    for column-chunk rows (0 when the whole chunk is damaged).
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

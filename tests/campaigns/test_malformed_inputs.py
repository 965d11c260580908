"""Property wall: malformed bytes crossing a boundary are classified,
never crashed on.

Two boundaries take outside input.  One is the on-disk state a kill,
bit rot or a hand edit can leave: the JSONL record logs,
``quarantine.jsonl`` and the service's ``queue.jsonl``.  The other is
the service socket's JSON requests.  For arbitrary byte lines,
arbitrary JSON objects and objects with the right keys but arbitrary
field values, the readers (``scan``, ``load_quarantine``, ``replay``,
the runner's live ``status``, ``campaign verify``, the writer's
torn-tail repair on open) and ``CampaignService._dispatch`` must
return normally.  Damage is reported once per damaged line; the logs
skip it.
"""

import asyncio
import contextlib
import io
import json
import os
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaigns import (CampaignRunner, CheckpointCorruptionWarning,
                             ResultStore, get_campaign)
from repro.campaigns.checkpoint import (check_record, log_paths,
                                        make_record, read_jsonl)
from repro.campaigns.service import CampaignService, SubmissionQueue
from repro.cli import main

MATRIX = get_campaign("smoke-tiny")

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


def _shaped(keys):
    """Objects carrying ``keys`` (each maybe absent), with arbitrary
    values: the wrong-field-type cases."""
    return st.fixed_dictionaries(
        {}, optional={key: _JSON for key in keys})


def _line(obj):
    return json.dumps(obj).encode()


def _valid_record(i):
    scenario = MATRIX.expand()[i % MATRIX.total_scenarios()]
    return make_record(scenario, {"mbps": float(i)}, 0.1)


_RECORD_KEYS = ("scenario_id", "index", "seed", "params", "metrics",
                "elapsed_s", "crc")
_ANY_LINE = st.one_of(
    st.binary(max_size=40).map(lambda b: b.replace(b"\n", b"")),
    st.dictionaries(st.text(max_size=6), _JSON, max_size=4).map(_line),
    _JSON.map(_line))
_RECORD_LINE = _ANY_LINE | _shaped(_RECORD_KEYS).map(_line) \
    | st.integers(0, 7).map(lambda i: _line(_valid_record(i)))
_QUARANTINE_LINE = _ANY_LINE | _shaped(
    ("scenario_id", "index", "kind", "error")).map(_line)
_QUEUE_LINE = _ANY_LINE | _shaped(
    ("id", "campaign", "options", "state", "completed", "total",
     "quarantined", "error")).map(_line) | st.builds(
    lambda event, rest: _line(dict(rest, event=event)),
    st.sampled_from(["submit", "state"]),
    _shaped(("id", "campaign", "options", "state", "completed",
             "error")))


def _write_lines(path, lines):
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))


def _occupied(lines):
    return [i + 1 for i, line in enumerate(lines) if line.strip()]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mine=st.lists(_RECORD_LINE, max_size=6),
       other=st.lists(_RECORD_LINE, max_size=4),
       quarantine=st.lists(_QUARANTINE_LINE, max_size=4))
def test_store_readers_classify_every_damaged_line(
        tmp_path_factory, mine, other, quarantine):
    store = ResultStore(MATRIX,
                        cache_dir=str(tmp_path_factory.mktemp("c")))
    store.ensure()
    mine_path = os.path.join(store.directory, "results-0of1.jsonl")
    other_path = os.path.join(store.directory, "results-0of2.jsonl")
    _write_lines(mine_path, mine)
    _write_lines(other_path, other)
    _write_lines(store.quarantine_path, quarantine)

    # The line reader gives each non-blank line exactly one verdict.
    for path, lines in ((mine_path, mine), (other_path, other)):
        items, issues = read_jsonl(path, check_record)
        verdicts = sorted([n for n, _ in items]
                          + [i.line_no for i in issues])
        assert verdicts == _occupied(lines)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records, issues = store.scan()
    # Damage other than a torn tail line is reported, once.
    assert sum(issubclass(w.category, CheckpointCorruptionWarning)
               for w in caught) == any(i.kind != "torn" for i in issues)
    seen = [(i.path, i.line_no) for i in issues]
    assert len(seen) == len(set(seen))
    for path in (mine_path, other_path):
        expected = len(read_jsonl(path, check_record)[1])
        assert sum(i.path == path for i in issues) == expected
    assert all(isinstance(sid, str) for sid in records)

    entries = store.load_quarantine()
    assert all(isinstance(e["index"], int) for e in entries)
    cache_dir = os.path.dirname(os.path.dirname(store.directory))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        CampaignRunner(cache_dir=cache_dir).status(MATRIX)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["campaign", "verify", MATRIX.name,
                         "--cache-dir", cache_dir])
        assert code in (0, 1)

        # The next writer on the label repairs only a torn final
        # line: every record stays, no line becomes damage, and the
        # log ends on a line boundary for the next append.
        with store.writer("0of1"):
            pass
        reopened, after = store.scan()
    assert set(reopened) == set(records)
    assert {i.line_no for i in after if i.path == mine_path} <= \
        {i.line_no for i in issues if i.path == mine_path}
    with open(mine_path, "rb") as fh:
        data = fh.read()
    assert data == b"" or data.endswith(b"\n")
    assert log_paths(store.directory) == sorted(
        [mine_path, other_path])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.lists(_QUEUE_LINE, max_size=8))
def test_queue_replay_skips_every_damaged_line(tmp_path_factory,
                                               lines):
    path = str(tmp_path_factory.mktemp("q") / "queue.jsonl")
    _write_lines(path, lines)
    queue = SubmissionQueue(path)
    submissions = queue.replay()
    for sub in submissions.values():
        assert isinstance(sub.id, str) and isinstance(sub.options,
                                                      dict)
        assert all(isinstance(getattr(sub, key), int)
                   for key in ("completed", "total", "quarantined"))
    fresh = queue.next_id()
    assert fresh not in submissions


_REQUEST = st.one_of(
    st.dictionaries(st.text(max_size=6), _JSON, max_size=4),
    st.builds(
        lambda op, rest: dict(rest, op=op),
        st.sampled_from(["ping", "submit", "status", "results",
                         "shutdown", "frobnicate"]),
        st.fixed_dictionaries({}, optional={
            "campaign": st.sampled_from(["smoke-tiny", "nope"])
            | _JSON,
            "id": st.sampled_from(["sub-00001"]) | _JSON,
            "options": _JSON})))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(requests=st.lists(_REQUEST, min_size=1, max_size=4))
def test_dispatch_answers_every_request_object(tmp_path_factory,
                                               requests):
    service = CampaignService(
        cache_dir=str(tmp_path_factory.mktemp("svc")))
    service._pending = asyncio.Queue()
    service._stop = asyncio.Event()
    for payload in requests:
        response = service._dispatch(payload)
        assert isinstance(response.get("ok"), bool)
        json.dumps(response)            # the handler must encode it

"""Service-mode wall: protocol, durable queue, chaos, kill-resume.

The in-thread tests drive a real :class:`CampaignService` (asyncio
server on an ephemeral localhost port) through the documented JSON
protocol.  The chaos wall extends ``test_chaos.py`` to service mode:
every fault class is injected into a *served* submission, the
campaign is resubmitted fault-free, and the committed summary must
be byte-identical to the batch runner's fault-free reference.  The
subprocess test is the PR's acceptance gate: a served campaign
SIGKILLed mid-run, recovered by a fresh server, ends byte-identical
to ``repro campaign run``.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.campaigns import (CampaignRunner, CheckpointCorruptionWarning,
                             ResultStore, get_campaign,
                             register_campaign)
from repro.campaigns.checkpoint import RecordWriter, make_record
from repro.campaigns.colstore import write_chunk
from repro.campaigns.faults import FAULT_KINDS
from repro.campaigns.matrix import Axis, CampaignMatrix
from repro.campaigns.service import (CampaignService, ServiceError,
                                     Submission, SubmissionQueue,
                                     TERMINAL_STATES, read_endpoint,
                                     request, state_exit_code,
                                     wait_for_submission)

_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))

# Served submissions resolve campaigns from the stock registry, so
# the fast test campaigns register there (idempotent by digest).
MINI = register_campaign(CampaignMatrix(
    name="svc-mini", experiment="camp-fast",
    axes=(Axis("x", (1, 2, 3)),), seed=11,
    description="3-scenario matrix for service-mode tests"))
CHAOS = register_campaign(CampaignMatrix(
    name="svc-chaos", experiment="camp-fast",
    axes=(Axis("x", (1, 2, 3)), Axis("y", (0.5, 1.5))), seed=12,
    description="6-scenario matrix for the service chaos wall"))


@contextmanager
def serve_in_thread(cache_dir, **kw):
    """A live server on an ephemeral port, shut down on exit."""
    kw.setdefault("retry_backoff_s", 0.001)
    service = CampaignService(cache_dir=str(cache_dir), port=0, **kw)
    thread = threading.Thread(target=service.serve, daemon=True)
    thread.start()
    deadline = time.time() + 30.0
    while not os.path.exists(service.endpoint_path):
        assert thread.is_alive(), "server thread died during startup"
        assert time.time() < deadline, "server never bound"
        time.sleep(0.01)
    try:
        yield service
    finally:
        try:
            request(str(cache_dir), {"op": "shutdown"})
        except ServiceError:
            pass                        # already stopping or gone
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "server failed to stop"


def _summary_bytes(matrix, cache_dir):
    store = ResultStore(matrix, cache_dir=str(cache_dir))
    with open(store.summary_path, "rb") as fh:
        return fh.read()


class TestProtocol:
    def test_ping_status_results_and_errors(self, tmp_path):
        with serve_in_thread(tmp_path):
            pong = request(str(tmp_path), {"op": "ping"})
            assert pong["ok"] and pong["pid"] == os.getpid()
            assert read_endpoint(str(tmp_path)) is not None

            bad = request(str(tmp_path), {"op": "frobnicate"})
            assert not bad["ok"] and "unknown op" in bad["error"]

            missing = request(str(tmp_path), {"op": "status",
                                              "id": "sub-99999"})
            assert not missing["ok"]
            assert "no such submission" in missing["error"]

            unknown = request(str(tmp_path), {"op": "submit",
                                              "campaign": "nope"})
            assert not unknown["ok"] and unknown["unknown_campaign"]
            unknown = request(str(tmp_path), {"op": "results",
                                              "campaign": "nope"})
            assert not unknown["ok"] and unknown["unknown_campaign"]

            fresh = request(str(tmp_path), {"op": "results",
                                            "campaign": "svc-mini"})
            assert fresh["ok"] and fresh["state"] == "not-started"
            assert fresh["completed"] == 0 and fresh["total"] == 3

            bad_opts = request(str(tmp_path), {
                "op": "submit", "campaign": "svc-mini",
                "options": "fast please"})
            assert not bad_opts["ok"]
            assert "options" in bad_opts["error"]

    def test_unparseable_line_is_a_bad_request(self, tmp_path):
        import socket as socketlib
        with serve_in_thread(tmp_path):
            endpoint = read_endpoint(str(tmp_path))
            with socketlib.create_connection(endpoint,
                                             timeout=10) as conn:
                conn.sendall(b"this is not json\n")
                data = b""
                while not data.endswith(b"\n"):
                    data += conn.recv(65536)
            response = json.loads(data)
            assert not response["ok"]
            assert "bad request" in response["error"]

    def test_request_without_server_raises_unavailable(self, tmp_path):
        from repro.campaigns.service import ServiceUnavailable
        with pytest.raises(ServiceUnavailable, match="no campaign"):
            request(str(tmp_path), {"op": "ping"})
        assert read_endpoint(str(tmp_path)) is None

    def test_connection_closed_unanswered_is_unavailable(self,
                                                         tmp_path):
        # A server shutting down may accept a request and close it
        # unanswered; `campaign submit` must then fall back to the
        # local store instead of failing on a "malformed" reply.
        import socket as socketlib
        import threading

        from repro.campaigns.service import ServiceUnavailable
        listener = socketlib.create_server(("127.0.0.1", 0))
        state = tmp_path / "service"
        state.mkdir()
        (state / "endpoint.json").write_text(json.dumps(
            {"host": "127.0.0.1", "port": listener.getsockname()[1],
             "pid": os.getpid()}))

        def accept_and_close():
            conn, _ = listener.accept()
            conn.recv(65536)
            conn.close()

        thread = threading.Thread(target=accept_and_close)
        thread.start()
        try:
            with pytest.raises(ServiceUnavailable, match="without"):
                request(str(tmp_path), {"op": "status", "id": "x"})
        finally:
            thread.join(timeout=10.0)
            listener.close()
        assert not thread.is_alive()

    def test_exit_code_contract(self):
        assert [state_exit_code(s) for s in TERMINAL_STATES] \
            == [0, 3, 4, 1]
        assert state_exit_code("definitely-not-a-state") == 1


class TestSubmissionLifecycle:
    def test_submit_runs_to_complete_with_results(self, tmp_path):
        with serve_in_thread(tmp_path) as service:
            accepted = request(str(tmp_path), {
                "op": "submit", "campaign": "svc-mini"})
            assert accepted["ok"] and accepted["state"] == "queued"
            states = []
            final = wait_for_submission(
                str(tmp_path), accepted["id"], poll_s=0.02,
                timeout=120.0, emit=states.append)
            assert final["state"] == "complete"
            assert final["completed"] == 3 and final["total"] == 3

            results = request(str(tmp_path), {"op": "results",
                                              "campaign": "svc-mini"})
            assert results["ok"] and results["state"] == "complete"
            assert results["summary"]["completed"] == 3

            # status by campaign name resolves the latest submission
            by_name = request(str(tmp_path), {
                "op": "status", "campaign": "svc-mini"})
            assert by_name["ok"] and by_name["id"] == accepted["id"]

            # the durable log holds the full lifecycle
            events = [json.loads(line) for line in
                      open(service.queue_path)]
            kinds = [(e["event"], e.get("state")) for e in events]
            assert kinds == [("submit", None), ("state", "running"),
                             ("state", "complete")]

    def test_resubmission_resumes_from_checkpoints(self, tmp_path):
        with serve_in_thread(tmp_path) as service:
            first = request(str(tmp_path), {
                "op": "submit", "campaign": "svc-mini",
                "options": {"limit": 1}})
            partial = wait_for_submission(str(tmp_path), first["id"],
                                          poll_s=0.02, timeout=120.0)
            assert partial["state"] == "partial"
            assert partial["completed"] == 1

            lines = []
            service.emit = lines.append
            second = request(str(tmp_path), {
                "op": "submit", "campaign": "svc-mini"})
            final = wait_for_submission(str(tmp_path), second["id"],
                                        poll_s=0.02, timeout=120.0)
            assert final["state"] == "complete"
            assert any("2 to run" in line for line in lines), lines
        assert _summary_bytes(MINI, tmp_path)

    def test_error_submission_does_not_kill_the_service(self,
                                                        tmp_path):
        with serve_in_thread(tmp_path):
            broken = request(str(tmp_path), {
                "op": "submit", "campaign": "svc-mini",
                "options": {"jobs": "parquet"}})     # not a count
            final = wait_for_submission(str(tmp_path), broken["id"],
                                        poll_s=0.02, timeout=120.0)
            assert final["state"] == "error"
            assert "parquet" in final["error"]
            # the worker loop survived: the next submission runs
            ok = request(str(tmp_path), {"op": "submit",
                                         "campaign": "svc-mini"})
            final = wait_for_submission(str(tmp_path), ok["id"],
                                        poll_s=0.02, timeout=120.0)
            assert final["state"] == "complete"


class TestDurableQueue:
    def test_replay_rebuilds_lifecycle(self, tmp_path):
        queue = SubmissionQueue(str(tmp_path / "queue.jsonl"))
        assert queue.replay() == {}
        queue.append({"event": "submit", "id": "sub-00001",
                      "campaign": "svc-mini", "options": {"jobs": 2}})
        queue.append({"event": "state", "id": "sub-00001",
                      "state": "running"})
        queue.append({"event": "state", "id": "sub-00001",
                      "state": "complete", "completed": 3,
                      "total": 3})
        subs = queue.replay()
        assert list(subs) == ["sub-00001"]
        sub = subs["sub-00001"]
        assert sub.state == "complete" and sub.completed == 3
        assert sub.options == {"jobs": 2}

    def test_replay_skips_damaged_and_orphan_lines(self, tmp_path):
        path = str(tmp_path / "queue.jsonl")
        queue = SubmissionQueue(path)
        queue.append({"event": "submit", "id": "sub-00001",
                      "campaign": "svc-mini"})
        with open(path, "a") as fh:
            fh.write("@@garbage@@\n")
            fh.write('[1, 2]\n')
            fh.write(json.dumps({"event": "state", "id": "sub-00099",
                                 "state": "complete"}) + "\n")
            fh.write('{"event": "state", "id": "sub-00001", "sta')
        subs = queue.replay()
        assert list(subs) == ["sub-00001"]
        assert subs["sub-00001"].state == "queued"

    def test_append_after_torn_tail_keeps_the_new_event(self,
                                                        tmp_path):
        """A killed server's fragment must not swallow the next
        accepted submission: the next append truncates it first."""
        path = str(tmp_path / "queue.jsonl")
        queue = SubmissionQueue(path)
        queue.append({"event": "submit", "id": "sub-00001",
                      "campaign": "svc-mini", "options": {}})
        with open(path, "a") as fh:
            fh.write('{"event": "state", "id": "sub-00001", "sta')
        queue.append({"event": "submit", "id": "sub-00002",
                      "campaign": "svc-mini", "options": {}})
        queue.append({"event": "state", "id": "sub-00002",
                      "state": "complete", "completed": 3,
                      "total": 3})
        subs = SubmissionQueue(path).replay()
        assert list(subs) == ["sub-00001", "sub-00002"]
        assert subs["sub-00002"].state == "complete"

    @pytest.mark.parametrize("bad", [
        {"event": "submit", "id": "sub-00002", "campaign": "svc-mini",
         "options": 5},
        {"event": "submit", "id": ["sub-00002"],
         "campaign": "svc-mini", "options": {}},
        {"event": "state", "id": "sub-00001", "state": "complete",
         "completed": "abc"},
        {"event": "state", "id": ["sub-00001"], "state": "error"}])
    def test_replay_skips_wrongly_typed_events(self, tmp_path, bad):
        """Well-formed JSON with wrong field types is skipped like a
        damaged line instead of crashing the replay (and with it the
        server's startup)."""
        path = str(tmp_path / "queue.jsonl")
        queue = SubmissionQueue(path)
        queue.append({"event": "submit", "id": "sub-00001",
                      "campaign": "svc-mini", "options": {}})
        queue.append(bad)
        subs = queue.replay()
        assert list(subs) == ["sub-00001"]
        assert subs["sub-00001"].state == "queued"

    def test_lost_submit_line_never_reuses_a_live_id(self, tmp_path):
        """Ids are allocated past the highest id in the log, not from
        the count of replayed submissions."""
        path = os.path.join(str(tmp_path), "service", "queue.jsonl")
        queue = SubmissionQueue(path)
        queue.append({"event": "submit", "id": "sub-00001",
                      "campaign": "svc-mini", "options": {}})
        queue.append({"event": "submit", "id": "sub-00002",
                      "campaign": "svc-mini", "options": {}})
        queue.append({"event": "state", "id": "sub-00002",
                      "state": "complete", "completed": 3,
                      "total": 3})
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[0] = b"@@bit rot@@"           # sub-00001's submit lost
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
        with serve_in_thread(tmp_path):
            fresh = request(str(tmp_path), {"op": "submit",
                                            "campaign": "svc-mini"})
            assert fresh["ok"] and fresh["id"] == "sub-00003"
            old = request(str(tmp_path), {"op": "status",
                                          "id": "sub-00002"})
            assert old["state"] == "complete"
            wait_for_submission(str(tmp_path), fresh["id"],
                                poll_s=0.02, timeout=120.0)
        subs = SubmissionQueue(path).replay()
        assert subs["sub-00002"].state == "complete"
        assert subs["sub-00003"].state == "complete"

    def test_restart_requeues_unfinished_submission(self, tmp_path):
        # A previous server accepted work and died mid-run: the log
        # has no terminal state.  A fresh server must requeue and
        # finish it without a new submit.
        queue = SubmissionQueue(os.path.join(str(tmp_path), "service",
                                             "queue.jsonl"))
        queue.append({"event": "submit", "id": "sub-00001",
                      "campaign": "svc-mini", "options": {}})
        queue.append({"event": "state", "id": "sub-00001",
                      "state": "running"})
        lines = []
        with serve_in_thread(tmp_path, emit=lines.append):
            final = wait_for_submission(str(tmp_path), "sub-00001",
                                        poll_s=0.02, timeout=120.0)
            assert final["state"] == "complete"
        assert any("recovered unfinished submission sub-00001"
                   in line for line in lines)
        assert json.loads(
            _summary_bytes(MINI, tmp_path))["completed"] == 3

    def test_submission_payload_roundtrip(self):
        sub = Submission(id="sub-00001", campaign="svc-mini",
                         options={"jobs": 2}, state="partial",
                         completed=1, total=3)
        payload = sub.to_payload()
        assert payload["id"] == "sub-00001"
        assert payload["state"] == "partial"
        assert payload["options"] == {"jobs": 2}


class TestLiveStatus:
    def test_running_status_means_are_the_reports(self, tmp_path):
        """A running submission's live means come from the checked
        records of the current expansion, byte-equal to the report's:
        duplicated, CRC-damaged and stale records count once, never
        and never."""
        store = ResultStore(CHAOS, cache_dir=str(tmp_path))
        store.ensure()
        scenarios = CHAOS.expand()

        def record(i, mbps):
            return make_record(scenarios[i], {"mbps": mbps}, 0.1)

        def path(name):
            return os.path.join(store.directory, name)

        # Sealed, then killed before the tail was truncated: the next
        # writer on the label seals the same two records again.
        sealed = [record(0, 1.0), record(1, 2.0)]
        with RecordWriter(path("results-0of1.jsonl")) as out:
            for rec in sealed:
                out.append(rec)
        write_chunk(path("columns-0of1-00000000.npz"), sealed)
        with store.writer("0of1"):
            pass
        # A chunk row whose metric no longer matches its stored CRC.
        stale_crc = record(3, 3.0)
        stale_crc["metrics"]["mbps"] = 500.0
        write_chunk(path("columns-b-00000000.npz"),
                    [record(2, 4.0), stale_crc])
        # A record of a scenario outside the current expansion.
        outside = make_record(SimpleNamespace(
            scenario_id="0123456789abcdef", index=99, seed=5,
            params={"x": 9, "y": 0.5}), {"mbps": 1000.0}, 0.1)
        with RecordWriter(path("results-c.jsonl")) as out:
            out.append(record(4, 8.0))
            out.append(outside)

        service = CampaignService(cache_dir=str(tmp_path))
        service._submissions["sub-00001"] = Submission(
            id="sub-00001", campaign=CHAOS.name, state="running")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CheckpointCorruptionWarning)
            live = service._op_status({"id": "sub-00001"})
            summary = CampaignRunner(cache_dir=str(tmp_path)).report(
                CHAOS, write=False)
        assert live["ok"] and live["state"] == "running"
        assert live["completed"] == summary["completed"] == 4
        assert json.dumps(live["aggregates"]) \
            == json.dumps(summary["aggregates"]) \
            == json.dumps({"mbps": 3.75})


class TestEmptyStatusRegression:
    def test_status_on_never_started_store_is_clean(self, tmp_path):
        """Satellite fix: status on an empty store reports cleanly
        and creates nothing on disk."""
        runner = CampaignRunner(cache_dir=str(tmp_path / "cache"))
        status = runner.status(MINI)
        assert not status.started
        assert status.completed == 0 and status.total == 3
        assert not status.done and not status.failed
        assert not os.path.exists(str(tmp_path / "cache"))


SUPERVISED = dict(jobs=2, timeout_s=10.0, max_retries=1,
                  retry_backoff_s=0.001)


class TestServiceChaosWall:
    """Satellite: the batch chaos wall, through a live server."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("reference")
        runner = CampaignRunner(cache_dir=str(cache))
        assert runner.run(CHAOS).done
        runner.report(CHAOS)
        return _summary_bytes(CHAOS, cache)

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_fault_then_resubmit_is_byte_identical(self, tmp_path,
                                                   kind, reference):
        options = dict(SUPERVISED, fault=kind, fault_seed=3,
                       hang_s=60.0)
        if kind == "hang":
            options["timeout_s"] = 1.0      # watchdog must fire
        with serve_in_thread(tmp_path, **SUPERVISED):
            faulted = request(str(tmp_path), {
                "op": "submit", "campaign": "svc-chaos",
                "options": options})
            assert faulted["ok"], faulted
            first = wait_for_submission(str(tmp_path), faulted["id"],
                                        poll_s=0.02, timeout=300.0)
            assert first["state"] in TERMINAL_STATES
            assert first["state"] != "error", first

            resumed = request(str(tmp_path), {
                "op": "submit", "campaign": "svc-chaos",
                "options": dict(SUPERVISED)})
            final = wait_for_submission(str(tmp_path), resumed["id"],
                                        poll_s=0.02, timeout=300.0)
            assert final["state"] == "complete", final
            assert final["quarantined"] == 0
        assert _summary_bytes(CHAOS, tmp_path) == reference, \
            f"summary diverged after served {kind!r} fault"


def _spawn_server(cache_dir, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "serve",
         "--cache-dir", str(cache_dir), *extra],
        cwd=_ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)


def _wait_for_endpoint(cache_dir, proc):
    deadline = time.time() + 60.0
    path = os.path.join(str(cache_dir), "service", "endpoint.json")
    while time.time() < deadline:
        assert proc.poll() is None, "server process died"
        if os.path.exists(path):
            endpoint = read_endpoint(str(cache_dir))
            if endpoint is not None and \
                    endpoint[1] != 0 and _pid_of(cache_dir) == proc.pid:
                return
        time.sleep(0.02)
    raise AssertionError("server never advertised an endpoint")


def _pid_of(cache_dir):
    path = os.path.join(str(cache_dir), "service", "endpoint.json")
    try:
        with open(path) as fh:
            return json.load(fh).get("pid")
    except (OSError, ValueError):
        return None


class TestServedKillResume:
    def test_sigkill_mid_run_then_recovery_is_byte_identical(
            self, tmp_path):
        """The PR acceptance gate: serve + submit, SIGKILL the server
        mid-campaign, restart it (recovery requeues the unfinished
        submission), and the final summary is byte-identical to
        ``repro campaign run`` in a pristine cache."""
        matrix = get_campaign("smoke-tiny")
        served = tmp_path / "served"
        store = ResultStore(matrix, cache_dir=str(served))

        server = _spawn_server(served)
        try:
            _wait_for_endpoint(served, server)
            accepted = request(str(served), {
                "op": "submit", "campaign": "smoke-tiny"})
            assert accepted["ok"], accepted

            deadline = time.time() + 120.0
            while time.time() < deadline:
                if store.completed_ids():
                    server.send_signal(signal.SIGKILL)
                    server.wait(timeout=30)
                    break
                status = request(str(served), {
                    "op": "status", "id": accepted["id"]})
                if status.get("state") in TERMINAL_STATES:
                    break               # finished before the kill
                time.sleep(0.01)
            else:
                raise AssertionError("campaign made no progress")
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)

        # The killed server left a stale endpoint and a queue with no
        # terminal state; a fresh server recovers the submission.
        server = _spawn_server(served)
        try:
            _wait_for_endpoint(served, server)
            final = wait_for_submission(str(served), accepted["id"],
                                        poll_s=0.05, timeout=300.0)
            assert final["state"] == "complete", final
        finally:
            if server.poll() is None:
                server.send_signal(signal.SIGTERM)
                try:
                    server.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    server.kill()
                    server.wait(timeout=30)

        pristine = tmp_path / "pristine"
        reference = CampaignRunner(cache_dir=str(pristine))
        assert reference.run(matrix).done
        reference.report(matrix)
        assert _summary_bytes(matrix, served) \
            == _summary_bytes(matrix, pristine), \
            "served kill-and-recover summary diverged from batch run"
        assert json.loads(
            _summary_bytes(matrix, served))["completed"] == 8

"""Campaign service mode: a long-running submission front end.

``repro campaign serve`` turns the batch campaign engine into a
service: an asyncio TCP endpoint (newline-delimited JSON on
localhost) accepts campaign submissions, a durable event-sourced
queue feeds them one at a time to the existing supervised
:class:`repro.campaigns.runner.CampaignRunner` (in a worker thread,
which itself fans out over worker processes), and results land in
the same result store (:mod:`repro.campaigns.checkpoint`) batch runs
use.

**Durability.**  All service state lives under
``{cache_dir}/service/``:

* ``endpoint.json`` — host/port/pid of the live server, written
  after bind (clients discover the endpoint here; a dead server
  leaves a stale file, which clients detect as a refused
  connection).
* ``queue.jsonl`` — the submission log: one ``submit`` event per
  accepted submission and one ``state`` event per transition, each
  line fsynced by :class:`repro.campaigns.checkpoint.RecordWriter`.
  On restart the log is replayed; submissions without a terminal
  state are requeued, and because scenario execution is checkpointed
  by the store, a requeued submission resumes instead of
  recomputing.

A SIGKILL therefore loses at most the scenarios in flight — exactly
the batch runner's bound — and a resubmitted campaign produces a
summary byte-identical to ``repro campaign run``'s, which
``tests/campaigns/test_service.py`` proves per fault class.

**Protocol.**  One JSON object per line, one response per request::

    {"op": "ping"}
    {"op": "submit", "campaign": "smoke-tiny", "options": {...}}
    {"op": "status", "id": "sub-00001"}            # or "campaign"
    {"op": "results", "campaign": "smoke-tiny"}
    {"op": "shutdown"}

Responses carry ``{"ok": true, ...}`` or ``{"ok": false, "error":
...}``.  Submission states are ``queued``, ``running``, and the
terminal ``complete``/``partial``/``quarantined``/``error`` —
mapping onto the CLI's 0/3/4 exit-code contract (``error`` exits 1).
See ``docs/service.md``.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaigns.checkpoint import (LineRejected, RecordWriter,
                                        read_jsonl, require,
                                        write_json_atomic)
from repro.campaigns.runner import CampaignRunner, state_exit_code

__all__ = ["CampaignService", "ServiceError", "ServiceUnavailable",
           "Submission", "TERMINAL_STATES", "read_endpoint",
           "request", "state_exit_code", "wait_for_submission"]

#: Submission states that end a submission's lifecycle.
TERMINAL_STATES = ("complete", "partial", "quarantined", "error")


class ServiceError(RuntimeError):
    """A campaign-service failure (protocol or server side)."""


class ServiceUnavailable(ServiceError):
    """No live server behind the cache directory's endpoint file."""


@dataclass
class Submission:
    """One accepted campaign submission and its lifecycle state."""

    id: str
    campaign: str
    options: Dict[str, Any] = field(default_factory=dict)
    state: str = "queued"
    completed: int = 0
    total: int = 0
    quarantined: int = 0
    error: str = ""

    def to_payload(self) -> Dict[str, Any]:
        """The submission as a JSON-safe response payload."""
        return {"id": self.id, "campaign": self.campaign,
                "options": dict(self.options), "state": self.state,
                "completed": self.completed, "total": self.total,
                "quarantined": self.quarantined,
                "error": self.error}


def _check_event(event: Dict[str, Any]) -> Dict[str, Any]:
    """Validate the field types of one submission-log event."""
    if event.get("event") == "submit":
        require(event, id=str, campaign=str)
        return require(event, optional=True, options=dict)
    if event.get("event") == "state":
        require(event, id=str, state=str)
        return require(event, optional=True, completed=int, total=int,
                       quarantined=int, error=str)
    raise LineRejected("not a submit or state event")


class SubmissionQueue:
    """The durable, event-sourced submission log (``queue.jsonl``).

    Append-only: ``submit`` events add a submission, ``state`` events
    record transitions.  Each line is fsynced, so the accepted-work
    set survives any kill; replaying the log rebuilds every
    submission in acceptance order, and damaged lines (the torn tail
    a kill can leave, or a line with wrong field types) are skipped.
    """

    def __init__(self, path: str):
        self.path = path
        self._last_seq = 0      # highest sub-N seen or allocated

    def append(self, event: Dict[str, Any]) -> None:
        """Durably append one event line."""
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        with RecordWriter(self.path) as out:
            out.append(event)

    def replay(self) -> Dict[str, Submission]:
        """Rebuild submissions from the log, in acceptance order."""
        submissions: Dict[str, Submission] = {}
        items, _issues = read_jsonl(self.path, _check_event)
        for _line_no, event in items:
            number = re.fullmatch(r"sub-([0-9]{1,18})", event["id"])
            if number is not None:
                self._last_seq = max(self._last_seq,
                                     int(number.group(1)))
            if event["event"] == "submit":
                submissions[event["id"]] = Submission(
                    id=event["id"], campaign=event["campaign"],
                    options=dict(event.get("options", {})))
            elif event["id"] in submissions:
                sub = submissions[event["id"]]
                sub.state = event["state"]
                for key in ("completed", "total", "quarantined",
                            "error"):
                    if key in event:
                        setattr(sub, key, event[key])
        return submissions

    def next_id(self) -> str:
        """Allocate a submission id past every id in the log, so a
        lost ``submit`` line can never hand out a live id again."""
        self._last_seq += 1
        return f"sub-{self._last_seq:05d}"


class CampaignService:
    """The asyncio campaign server (see the module docstring).

    Args:
        cache_dir: the shared ``.repro-cache`` root; campaign
            checkpoints land exactly where the batch runner puts
            them, which is what makes serve/run interchangeable.
        host/port: bind address (port 0 = ephemeral; the bound port
            is published in ``endpoint.json``).
        jobs/timeout_s/max_retries/retry_backoff_s: default runner
            supervision settings; per-submission options override.
        once: exit after the first submission reaches a terminal
            state — the CI smoke-job mode.
        emit: optional progress-line callback.

    Example::

        CampaignService(cache_dir=".repro-cache", port=0).serve()
    """

    def __init__(self, cache_dir: str = ".repro-cache",
                 host: str = "127.0.0.1", port: int = 0,
                 jobs: int = 1, timeout_s: Optional[float] = None,
                 max_retries: int = 2,
                 retry_backoff_s: float = 0.05,
                 once: bool = False,
                 emit: Optional[Callable[[str], None]] = None):
        self.cache_dir = cache_dir
        self.host = host
        self.port = int(port)
        self.jobs = int(jobs)
        self.timeout_s = timeout_s
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.once = bool(once)
        self.emit = emit
        self.queue = SubmissionQueue(self.queue_path)
        self._submissions: Dict[str, Submission] = {}
        self._pending: "asyncio.Queue[Submission]" = None  # in _main
        self._stop: "asyncio.Event" = None                 # in _main

    # -- paths --------------------------------------------------------

    @property
    def state_dir(self) -> str:
        """Directory holding the service's own durable state."""
        return os.path.join(self.cache_dir, "service")

    @property
    def endpoint_path(self) -> str:
        """Path of the live-endpoint discovery file."""
        return os.path.join(self.state_dir, "endpoint.json")

    @property
    def queue_path(self) -> str:
        """Path of the durable submission log."""
        return os.path.join(self.state_dir, "queue.jsonl")

    def _say(self, line: str) -> None:
        if self.emit is not None:
            self.emit(line)

    # -- lifecycle ----------------------------------------------------

    def serve(self) -> None:
        """Run the server until shutdown (blocking)."""
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._pending = asyncio.Queue()
        self._stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, self._stop.set)
            except (NotImplementedError, RuntimeError):
                # Non-Unix loop or nested loop: fall back to the
                # default KeyboardInterrupt behaviour.
                break
        self._recover()
        server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port)
        bound = server.sockets[0].getsockname()
        os.makedirs(self.state_dir, exist_ok=True)
        write_json_atomic(self.endpoint_path,
                          {"host": bound[0], "port": bound[1],
                           "pid": os.getpid()})
        self._say(f"campaign service listening on "
                  f"{bound[0]}:{bound[1]} (pid {os.getpid()})")
        worker = asyncio.create_task(self._worker_loop())
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            await worker
            try:
                os.remove(self.endpoint_path)
            except FileNotFoundError:
                pass
        self._say("campaign service stopped")

    def _recover(self) -> None:
        """Replay the submission log; requeue unfinished work.

        Submissions the previous server never finished resume from
        their checkpoints — the log records *intent*, the store
        records *progress*, and determinism glues them together.
        """
        self._submissions = self.queue.replay()
        for sub in self._submissions.values():
            if sub.state not in TERMINAL_STATES:
                if sub.state != "queued":
                    sub.state = "queued"
                    self.queue.append({"event": "state",
                                       "id": sub.id,
                                       "state": "queued"})
                self._pending.put_nowait(sub)
                self._say(f"recovered unfinished submission "
                          f"{sub.id} ({sub.campaign})")

    async def _worker_loop(self) -> None:
        """Consume the queue one submission at a time.

        Runs each submission in a thread (the runner's process pool
        does the real fan-out) so the event loop stays responsive to
        status queries mid-run.  A shutdown request lets the
        in-flight submission finish — its checkpoints make even a
        harder stop safe, but there is no reason to waste the work.
        """
        while True:
            getter = asyncio.ensure_future(self._pending.get())
            stopper = asyncio.ensure_future(self._stop.wait())
            done, _ = await asyncio.wait(
                {getter, stopper},
                return_when=asyncio.FIRST_COMPLETED)
            if getter not in done:
                getter.cancel()
                break
            stopper.cancel()
            sub = getter.result()
            sub.state = "running"
            self.queue.append({"event": "state", "id": sub.id,
                               "state": "running"})
            self._say(f"{sub.id}: running {sub.campaign}")
            outcome = await asyncio.to_thread(self._execute, sub)
            sub.state = outcome["state"]
            sub.completed = outcome.get("completed", 0)
            sub.total = outcome.get("total", 0)
            sub.quarantined = outcome.get("quarantined", 0)
            sub.error = outcome.get("error", "")
            self.queue.append(dict(outcome, event="state",
                                   id=sub.id))
            self._say(f"{sub.id}: {sub.state} "
                      f"({sub.completed}/{sub.total} scenarios)")
            if self.once and self._pending.empty():
                self._stop.set()
                break

    def _runner(self, options: Dict[str, Any]):
        """Build the runner for one submission (options override the
        service defaults)."""
        from repro.campaigns.faults import FaultPlan

        plan = None
        fault = options.get("fault")
        if fault:
            plan = FaultPlan.seeded(
                int(options["total_scenarios"]),
                kinds=(str(fault),),
                seed=int(options.get("fault_seed", 0)),
                hang_s=float(options.get("hang_s", 300.0)))
        return CampaignRunner(
            jobs=int(options.get("jobs", self.jobs)),
            cache_dir=self.cache_dir,
            timeout_s=options.get("timeout_s", self.timeout_s),
            max_retries=int(options.get("max_retries",
                                        self.max_retries)),
            retry_backoff_s=float(options.get("retry_backoff_s",
                                              self.retry_backoff_s)),
            fault_plan=plan,
            progress=self._say)

    def _execute(self, sub: Submission) -> Dict[str, Any]:
        """Run one submission to a terminal state (worker thread).

        Never raises: any harness failure becomes the ``error``
        terminal state, so one broken submission cannot take the
        whole service down.
        """
        from repro.campaigns.stock import get_campaign

        try:
            matrix = get_campaign(sub.campaign)
            options = dict(sub.options)
            options.setdefault("total_scenarios",
                               matrix.total_scenarios())
            runner = self._runner(options)
            limit = options.get("limit")
            status = runner.run(
                matrix, limit=None if limit is None else int(limit))
            if status.done:
                runner.report(matrix)
            return {"state": status.state,
                    "completed": status.completed,
                    "total": status.total,
                    "quarantined": status.quarantined}
        except Exception as exc:
            return {"state": "error",
                    "error": f"{type(exc).__name__}: {exc}"}

    # -- request handling ---------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Serve one client connection (one JSON object per line)."""
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    payload = json.loads(line)
                    if not isinstance(payload, dict):
                        raise ValueError("request is not an object")
                    response = self._dispatch(payload)
                except ValueError as exc:
                    response = {"ok": False,
                                "error": f"bad request: {exc}"}
                writer.write(json.dumps(
                    response, sort_keys=True,
                    separators=(",", ":")).encode() + b"\n")
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _dispatch(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Route one request to its op handler."""
        op = payload.get("op")
        if op == "ping":
            return {"ok": True, "pid": os.getpid(),
                    "submissions": len(self._submissions)}
        if op == "submit":
            return self._op_submit(payload)
        if op == "status":
            return self._op_status(payload)
        if op == "results":
            return self._op_results(payload)
        if op == "shutdown":
            self._stop.set()
            return {"ok": True, "stopping": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _op_submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        from repro.campaigns.stock import (UnknownCampaignError,
                                           get_campaign)

        name = payload.get("campaign")
        try:
            get_campaign(str(name))
        except UnknownCampaignError as exc:
            return {"ok": False, "error": str(exc.args[0]),
                    "unknown_campaign": True}
        options = payload.get("options") or {}
        if not isinstance(options, dict):
            return {"ok": False, "error": "options must be an object"}
        sub = Submission(id=self.queue.next_id(),
                         campaign=str(name), options=dict(options))
        self._submissions[sub.id] = sub
        self.queue.append({"event": "submit", "id": sub.id,
                           "campaign": sub.campaign,
                           "options": sub.options})
        self._pending.put_nowait(sub)
        self._say(f"{sub.id}: accepted {sub.campaign}")
        return {"ok": True, **sub.to_payload()}

    def _find(self, payload: Dict[str, Any]) -> Optional[Submission]:
        """Resolve a submission by id, or the latest one for a
        campaign name."""
        if "id" in payload:
            return self._submissions.get(str(payload["id"]))
        name = payload.get("campaign")
        latest = None
        for sub in self._submissions.values():
            if sub.campaign == name:
                latest = sub
        return latest

    def _op_status(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        sub = self._find(payload)
        if sub is None:
            return {"ok": False, "error": "no such submission"}
        response = {"ok": True, **sub.to_payload()}
        if sub.state == "running":
            # Live progress and the report's own means over the
            # checked records completed so far, from one store read —
            # cheap enough to answer inline, and reading concurrently
            # with the writer is safe (records are immutable once
            # visible).
            try:
                from repro.campaigns.stock import get_campaign
                status = self._runner({}).status(
                    get_campaign(sub.campaign))
                response.update(completed=status.completed,
                                total=status.total,
                                aggregates=status.aggregates)
            except Exception:
                pass
        return response

    def _op_results(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        from repro.campaigns.stock import (UnknownCampaignError,
                                           get_campaign)

        name = str(payload.get("campaign"))
        try:
            matrix = get_campaign(name)
        except UnknownCampaignError as exc:
            return {"ok": False, "error": str(exc.args[0]),
                    "unknown_campaign": True}
        return {"ok": True, **self._runner({}).results(matrix)}


# --------------------------------------------------------------------
# Synchronous client helpers (used by the CLI and tests)
# --------------------------------------------------------------------

def read_endpoint(cache_dir: str) -> Optional[Tuple[str, int]]:
    """The advertised ``(host, port)`` of a server on ``cache_dir``,
    or ``None`` when no endpoint file exists."""
    path = os.path.join(cache_dir, "service", "endpoint.json")
    try:
        with open(path) as fh:
            data = json.load(fh)
        return str(data["host"]), int(data["port"])
    except (OSError, ValueError, KeyError):
        return None


def request(cache_dir: str, payload: Dict[str, Any],
            timeout: float = 30.0) -> Dict[str, Any]:
    """Send one request to the server behind ``cache_dir``.

    Raises :class:`ServiceUnavailable` when no endpoint is advertised,
    the advertised server is gone (stale file after a kill) or it
    closes the connection without answering, and
    :class:`ServiceError` on a malformed response.
    """
    endpoint = read_endpoint(cache_dir)
    if endpoint is None:
        raise ServiceUnavailable(
            f"no campaign service endpoint under {cache_dir!r} "
            f"(start one with `repro campaign serve`)")
    try:
        with socket.create_connection(endpoint,
                                      timeout=timeout) as conn:
            conn.sendall(json.dumps(
                payload, sort_keys=True,
                separators=(",", ":")).encode() + b"\n")
            data = b""
            while not data.endswith(b"\n"):
                piece = conn.recv(65536)
                if not piece:
                    break
                data += piece
    except (ConnectionError, socket.timeout, OSError) as exc:
        raise ServiceUnavailable(
            f"campaign service at {endpoint[0]}:{endpoint[1]} is "
            f"not answering ({exc})") from exc
    if not data:
        # Accepted, then closed unanswered: a server shutting down
        # (``serve --once`` after its last submission) does this.
        raise ServiceUnavailable(
            f"campaign service at {endpoint[0]}:{endpoint[1]} closed "
            f"the connection without answering")
    try:
        response = json.loads(data)
        if not isinstance(response, dict):
            raise ValueError("response is not an object")
    except ValueError as exc:
        raise ServiceError(
            f"malformed service response: {exc}") from exc
    return response


def wait_for_submission(cache_dir: str, submission_id: str,
                        poll_s: float = 0.2,
                        timeout: Optional[float] = None,
                        emit: Optional[Callable[[str], None]] = None
                        ) -> Dict[str, Any]:
    """Poll a submission until it reaches a terminal state.

    Returns the final status payload; raises :class:`ServiceError`
    on timeout and :class:`ServiceUnavailable` if the server
    disappears mid-wait.
    """
    deadline = None if timeout is None \
        else time.monotonic() + timeout
    last_state = None
    while True:
        status = request(cache_dir, {"op": "status",
                                     "id": submission_id})
        if not status.get("ok"):
            raise ServiceError(status.get("error",
                                          "status query failed"))
        state = status.get("state")
        if state != last_state and emit is not None:
            emit(f"{submission_id}: {state} "
                 f"({status.get('completed', 0)}/"
                 f"{status.get('total', 0)})")
        last_state = state
        if state in TERMINAL_STATES:
            return status
        if deadline is not None and time.monotonic() > deadline:
            raise ServiceError(
                f"timed out waiting for {submission_id} "
                f"(last state {state!r})")
        time.sleep(poll_s)

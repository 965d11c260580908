"""The sharded, resumable, *supervised* campaign runner.

Execution model: a matrix expands to its canonical scenario list; a
*shard* is the subset with ``index % shards == shard_index`` (so N
independent invocations — processes or machines sharing a cache
directory — cover the matrix exactly).  Within a shard, scenarios that
already have a checkpoint record are skipped; the rest run serially or
over a process pool, and every completion is appended to the shard's
write-ahead tail in the result store (:mod:`repro.campaigns.colstore`)
immediately, so progress survives any interruption.

Because every scenario seeds its own RNGs from a derived seed, the
per-scenario results are bit-identical however the campaign is
executed — the property ``tests/campaigns/test_determinism.py`` pins.
Reports therefore never depend on execution history: ``report()``
rebuilds the same summary bytes from any complete record set.

**Supervision** (``timeout_s``/``max_retries``): at campaign scale a
single raising, hanging or crashing scenario must not kill a
thousand-scenario sweep.  Failures are retried with seeded exponential
backoff; scenarios that keep failing are *quarantined* — appended to
``quarantine.jsonl`` with their captured traceback — and the sweep
continues.  A ``ValueError`` out of the experiment (subclasses
included) is a rejected parameterization, which fails the same way on
every attempt, so it is quarantined at its first attempt.  Under a
process pool, a per-scenario wall-clock watchdog kills hung workers
and rebuilds the pool; a worker process dying outright
(``BrokenProcessPool``) likewise triggers a rebuild, with the
in-flight scenarios retried.  The fault-injection harness in
:mod:`repro.campaigns.faults` exists to prove all of this: under every
injected fault class a resumed campaign's summary is byte-identical
to a fault-free run's (``tests/campaigns/test_chaos.py``).
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, \
    ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from repro.analysis.aggregate import aggregate_metrics, group_rows
from repro.campaigns.checkpoint import make_record, write_json_atomic
from repro.campaigns.colstore import ResultStore
from repro.campaigns.faults import FaultPlan, FaultSpec
from repro.campaigns.matrix import (CampaignError, CampaignMatrix,
                                    CampaignScenario)
from repro.core.mix import uniform01
from repro.experiments.api import (ExperimentExecutionError,
                                   _canonical, execute_task)

__all__ = ["CampaignRunner", "CampaignStatus", "parse_shard",
           "state_exit_code"]

#: The exit-code contract of ``repro campaign run``, ``results`` and
#: ``submit``: 0 = every scenario checkpointed, 3 = scenarios pending
#: (a sharded, limited, interrupted or never-started run — not an
#: error), 4 = pending scenarios quarantined after repeated failures.
_STATE_EXIT_CODES = {"complete": 0, "partial": 3, "not-started": 3,
                     "quarantined": 4}


def state_exit_code(state: str) -> int:
    """The CLI exit code of a campaign or submission state; any other
    state (the service's ``error``) exits 1."""
    return _STATE_EXIT_CODES.get(state, 1)


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a ``I/N`` shard spec (0-based): ``"2/8"`` -> ``(2, 8)``."""
    index, sep, total = text.partition("/")
    try:
        shard = (int(index), int(total if sep else 1))
    except ValueError:
        raise ValueError(f"shard spec must be I/N, got {text!r}") \
            from None
    if shard[1] < 1 or not 0 <= shard[0] < shard[1]:
        raise ValueError(
            f"shard index out of range: {text!r} (need 0 <= I < N)")
    return shard


def _worker(task: Tuple[str, str, Dict[str, Any],
                        Optional[FaultSpec], int]
            ) -> Tuple[Any, ...]:
    """Pool target: run one scenario attempt, never raising.

    Returns ``("ok", metrics, elapsed)`` on success or ``("error",
    kind, message, traceback_text, elapsed, rejected)`` on failure —
    structured tuples instead of exceptions, because an exception type
    that does not unpickle cleanly would otherwise poison the pool
    protocol itself.  ``rejected`` is true when the experiment raised
    a ``ValueError``: a rejected parameterization no retry can clear.
    ``fault``, when set, is this scenario's injected fault
    (:mod:`repro.campaigns.faults`); a ``crash`` fault exits the
    process without ever returning.
    """
    experiment, module, params, fault, attempt = task
    start = time.perf_counter()
    try:
        if fault is not None:
            fault.fire(attempt)
        metrics = execute_task(experiment, module, params)
    except Exception as exc:
        import traceback
        rejected = isinstance(exc, ExperimentExecutionError) \
            and isinstance(exc.__cause__, ValueError)
        return ("error", type(exc).__name__, str(exc),
                traceback.format_exc(), time.perf_counter() - start,
                rejected)
    return ("ok", metrics, time.perf_counter() - start)


@dataclass(frozen=True)
class CampaignStatus:
    """Progress snapshot of one campaign (possibly mid-run)."""

    name: str
    digest: str
    total: int
    completed: int
    directory: str
    #: Pending scenarios the supervised runner gave up on (retries
    #: exhausted); a later run retries them, and completion clears
    #: them from this count.
    quarantined: int = 0
    #: Whether the campaign has any on-disk state at all.  A
    #: never-run campaign reports ``started=False`` with a clean
    #: zero count instead of pretending an empty directory exists.
    started: bool = True
    #: Campaign-wide means of the completed scenarios' metrics: the
    #: ``aggregates`` that ``report()`` builds from the same records.
    aggregates: Dict[str, Any] = field(default_factory=dict,
                                       compare=False)

    @property
    def pending(self) -> int:
        """Scenarios without a checkpoint record yet (quarantined
        scenarios included — they have no record either)."""
        return self.total - self.completed

    @property
    def done(self) -> bool:
        """Whether every scenario has a record."""
        return self.completed >= self.total

    @property
    def failed(self) -> bool:
        """Whether any pending scenario is quarantined."""
        return self.quarantined > 0

    @property
    def state(self) -> str:
        """``not-started``, ``complete``, ``quarantined`` (a pending
        scenario is quarantined) or ``partial``; see
        :func:`state_exit_code`."""
        if not self.started:
            return "not-started"
        if self.done:
            return "complete"
        return "quarantined" if self.failed else "partial"


def _means(ordered_metrics: Sequence[Dict[str, float]]
           ) -> Tuple[List[str], Dict[str, Any]]:
    """The averaged metric names, sorted, and their canonical means
    over metric dicts in canonical scenario order (float sums are
    order-sensitive).

    Identity digests (exact content hashes) ride in per-scenario rows
    for the determinism wall, but a *mean* of hashes is meaningless
    noise, so ``*_digest`` metrics are left out.
    """
    names = sorted({k for m in ordered_metrics for k in m
                    if not k.endswith("_digest")})
    kept = set(names)
    return names, _canonical(aggregate_metrics(
        [{k: v for k, v in m.items() if k in kept}
         for m in ordered_metrics]))


class CampaignRunner:
    """Executes campaign matrices with checkpoints and sharding.

    Args:
        jobs: worker processes per invocation (1 = in-process, unless
            ``timeout_s`` forces a supervised single-worker pool).
        cache_dir: root of the ``.repro-cache`` tree; the campaign
            store lives under ``{cache_dir}/campaigns/``.
        shard: ``(index, total)`` — run only scenarios with
            ``index % total == shard_index``.  Distinct shards may run
            concurrently (other processes/machines on a shared cache
            dir); together they cover the matrix exactly.
        progress: optional callback fired per completed scenario with
            a one-line status string.
        timeout_s: per-scenario wall-clock deadline.  Requires pool
            execution (a hung in-process scenario cannot be
            interrupted), so ``timeout_s`` with ``jobs=1`` runs a
            supervised pool of one worker.
        max_retries: failed-scenario retries before quarantine (a
            ``ValueError`` out of the experiment is never retried).
        retry_backoff_s: base of the seeded exponential backoff
            between retries (doubled per attempt, jittered
            deterministically from the scenario id).
        fault_plan: a :class:`repro.campaigns.faults.FaultPlan` to
            inject — testing/chaos only.

    Example::

        runner = CampaignRunner(jobs=4, timeout_s=300.0)
        runner.run(get_campaign("contention-scale"))
    """

    def __init__(self, jobs: int = 1, cache_dir: str = ".repro-cache",
                 shard: Tuple[int, int] = (0, 1),
                 progress: Optional[Callable[[str], None]] = None,
                 timeout_s: Optional[float] = None,
                 max_retries: int = 2,
                 retry_backoff_s: float = 0.05,
                 fault_plan: Optional[FaultPlan] = None):
        if shard[1] < 1 or not 0 <= shard[0] < shard[1]:
            raise ValueError(f"invalid shard {shard}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        self.jobs = max(int(jobs), 1)
        self.cache_dir = cache_dir
        self.shard = (int(shard[0]), int(shard[1]))
        self.progress = progress
        self.timeout_s = timeout_s
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.fault_plan = fault_plan
        if fault_plan is not None and fault_plan.requires_supervision \
                and not self._pooled:
            raise CampaignError(
                "fault plan injects worker crashes/hangs, which only "
                "supervised pool execution survives — set jobs > 1 "
                "or a timeout_s")

    # -- helpers ------------------------------------------------------

    @property
    def _pooled(self) -> bool:
        """Whether execution goes through a supervised process pool."""
        return self.jobs > 1 or self.timeout_s is not None

    def _emit(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)

    def _fault_for(self, scenario: CampaignScenario
                   ) -> Optional[FaultSpec]:
        if self.fault_plan is None:
            return None
        return self.fault_plan.execution_fault(scenario.index)

    def _backoff(self, scenario: CampaignScenario,
                 attempt: int) -> float:
        """Seeded exponential backoff with deterministic jitter."""
        jitter = 0.5 + uniform01(int(scenario.scenario_id[:15], 16),
                                 attempt)
        return self.retry_backoff_s * (2 ** attempt) * jitter

    def _status(self, matrix: CampaignMatrix, store: ResultStore,
                scenarios: Optional[Sequence[CampaignScenario]] = None
                ) -> CampaignStatus:
        """Progress of ``matrix`` from one read of ``store``.

        Counts only records of the *current* expansion (``scenarios``,
        expanded here unless the caller already did): scenario ids
        fold in experiment defaults and the surrogate calibration
        fingerprint, so records can go stale (and get recomputed)
        without the matrix digest changing.
        """
        if not os.path.isdir(store.directory):
            # Never-run campaigns answer from the matrix alone — no
            # expansion, and no side effects on disk.
            return CampaignStatus(
                name=matrix.name, digest=matrix.digest(),
                total=matrix.total_scenarios(), completed=0,
                directory=store.directory, started=False)
        if scenarios is None:
            scenarios = matrix.expand()
        records = store.load_records()
        completed = [records[s.scenario_id]["metrics"]
                     for s in scenarios if s.scenario_id in records]
        pending = {s.scenario_id for s in scenarios} - set(records)
        return CampaignStatus(
            name=matrix.name, digest=matrix.digest(),
            total=matrix.total_scenarios(), completed=len(completed),
            directory=store.directory,
            quarantined=len(store.quarantined_ids() & pending),
            aggregates=_means(completed)[1])

    # -- public API ---------------------------------------------------

    def status(self, matrix: CampaignMatrix) -> CampaignStatus:
        """Progress of ``matrix`` without running anything."""
        return self._status(matrix, ResultStore(
            matrix, cache_dir=self.cache_dir))

    def run(self, matrix: CampaignMatrix,
            limit: Optional[int] = None) -> CampaignStatus:
        """Run the matrix's pending scenarios (this runner's shard).

        Completed scenarios (checkpointed by any earlier or concurrent
        run) are never recomputed; previously *quarantined* scenarios
        are pending like any other and get retried.  ``limit`` caps
        how many pending scenarios this call executes — useful for
        incremental runs.  Returns the post-run status.
        """
        store = ResultStore(matrix, cache_dir=self.cache_dir)
        store.ensure()
        scenarios = matrix.expand()
        index, total = self.shard
        mine = [s for s in scenarios if s.index % total == index]
        done = store.completed_ids()
        pending = [s for s in mine if s.scenario_id not in done]
        if limit is not None:
            pending = pending[:max(limit, 0)]
        self._emit(f"{matrix.name}: {len(scenarios)} scenarios, "
                   f"shard {index}/{total} owns {len(mine)}, "
                   f"{len(pending)} to run")
        if pending:
            label = f"{index}of{total}"
            with store.writer(label) as out:
                if self._pooled:
                    self._run_pool(pending, out, store)
                else:
                    self._run_serial(pending, out, store)
        if self.fault_plan is not None:
            for note in self.fault_plan.apply_store_faults(
                    store.directory):
                self._emit(f"{matrix.name}: {note}")
        return self._status(matrix, store, scenarios)

    # -- completion / failure handling --------------------------------

    def _record_done(self, out, scenario: CampaignScenario,
                     metrics: Dict[str, float], elapsed: float,
                     position: int, total: int) -> None:
        out.append(make_record(scenario, metrics, elapsed))
        self._emit(f"[{position}/{total}] scenario "
                   f"#{scenario.index} ({scenario.scenario_id}) "
                   f"done in {elapsed:.2f} s")

    def _quarantine(self, store: ResultStore,
                    scenario: CampaignScenario, kind: str,
                    message: str, traceback_text: str,
                    attempts: int) -> None:
        store.append_quarantine({
            "scenario_id": scenario.scenario_id,
            "index": scenario.index,
            "seed": scenario.seed,
            "params": _canonical(scenario.params),
            "kind": kind,
            "error": message,
            "attempts": attempts,
            "traceback": traceback_text,
        })
        self._emit(f"scenario #{scenario.index} "
                   f"({scenario.scenario_id}) QUARANTINED after "
                   f"{attempts} attempts ({kind}: {message})")

    def _handle_failure(self, store: ResultStore,
                        scenario: CampaignScenario, attempt: int,
                        kind: str, message: str, traceback_text: str,
                        retry: Callable[[CampaignScenario, int, float],
                                        None],
                        rejected: bool = False) -> bool:
        """Retry a failed attempt with backoff, or quarantine.

        ``retry(scenario, next_attempt, delay_s)`` is the execution
        path's way of rescheduling (sleep-and-rerun serially, requeue
        with a not-before time under the pool).  A ``rejected``
        failure (a ``ValueError`` out of the experiment) is
        quarantined at once.  Returns whether the scenario was
        rescheduled.
        """
        if rejected or attempt >= self.max_retries:
            self._quarantine(store, scenario, kind, message,
                             traceback_text, attempts=attempt + 1)
            return False
        delay = self._backoff(scenario, attempt)
        self._emit(f"scenario #{scenario.index} attempt "
                   f"{attempt + 1}/{self.max_retries + 1} failed "
                   f"({kind}: {message}); retrying in "
                   f"{delay:.3f} s")
        retry(scenario, attempt + 1, delay)
        return True

    def _harness_error(self, store: ResultStore,
                       scenario: CampaignScenario,
                       exc: BaseException) -> None:
        """An error in the campaign harness itself (not the
        experiment): record it against the scenario, then propagate
        with the scenario id attached instead of an opaque traceback.
        """
        message = f"{type(exc).__name__}: {exc}"
        self._quarantine(store, scenario, "harness", message, "",
                         attempts=1)
        raise CampaignError(
            f"scenario #{scenario.index} ({scenario.scenario_id}) "
            f"failed inside the campaign harness: {message}") from exc

    # -- serial execution ---------------------------------------------

    def _run_serial(self, pending: Sequence[CampaignScenario],
                    out, store: ResultStore) -> None:
        position = 0
        for scenario in pending:
            attempt = 0
            while True:
                outcome = _worker(scenario.task()
                                  + (self._fault_for(scenario),
                                     attempt))
                if outcome[0] == "ok":
                    position += 1
                    self._record_done(out, scenario, outcome[1],
                                      outcome[2], position,
                                      len(pending))
                    break
                _, kind, message, traceback_text, _elapsed, \
                    rejected = outcome
                if not self._handle_failure(
                        store, scenario, attempt, kind, message,
                        traceback_text,
                        retry=lambda _s, _a, delay: time.sleep(delay),
                        rejected=rejected):
                    break
                attempt += 1

    # -- supervised pool execution ------------------------------------

    def _run_pool(self, pending: Sequence[CampaignScenario],
                  out, store: ResultStore) -> None:
        """Supervised pool loop: sliding-window submission (so
        deadlines measure execution, not queueing), a wall-clock
        watchdog that kills hung workers, retry/quarantine on
        failures, and automatic pool rebuild after a crash."""
        workers = max(min(self.jobs, len(pending)), 1)
        total = len(pending)
        position = 0
        # (scenario, attempt, not-before monotonic time)
        queue: deque = deque((s, 0, 0.0) for s in pending)
        outstanding: Dict[Future, Tuple[CampaignScenario, int,
                                        Optional[float]]] = {}
        pool = ProcessPoolExecutor(max_workers=workers)

        def retry(scenario: CampaignScenario, attempt: int,
                  delay: float) -> None:
            queue.append((scenario, attempt,
                          time.monotonic() + delay))

        def handle_outcome(scenario: CampaignScenario, attempt: int,
                           outcome: Tuple[Any, ...]) -> None:
            nonlocal position
            if outcome[0] == "ok":
                position += 1
                self._record_done(out, scenario, outcome[1],
                                  outcome[2], position, total)
            else:
                _, kind, message, traceback_text, _elapsed, \
                    rejected = outcome
                self._handle_failure(store, scenario, attempt, kind,
                                     message, traceback_text, retry,
                                     rejected)

        def drain_and_rebuild(reason: str) -> None:
            """Salvage every outstanding future, then replace the
            pool: finished results are recorded, hung scenarios get a
            timeout failure, crashed ones a crash failure, and
            innocent in-flight scenarios requeue without an attempt
            penalty."""
            nonlocal pool
            now = time.monotonic()
            for future, (scenario, attempt, deadline) in \
                    list(outstanding.items()):
                del outstanding[future]
                if future.done():
                    try:
                        handle_outcome(scenario, attempt,
                                       future.result())
                    except BrokenProcessPool:
                        self._handle_failure(
                            store, scenario, attempt, "crash",
                            "worker process died mid-scenario", "",
                            retry)
                    except Exception as exc:
                        self._harness_error(store, scenario, exc)
                elif deadline is not None and now >= deadline:
                    self._handle_failure(
                        store, scenario, attempt, "timeout",
                        f"exceeded {self.timeout_s:g} s deadline",
                        "", retry)
                else:
                    queue.append((scenario, attempt, 0.0))
            for process in list(getattr(pool, "_processes",
                                        {}).values()):
                process.terminate()
            pool.shutdown(wait=False, cancel_futures=True)
            self._emit(f"rebuilding worker pool ({reason})")
            pool = ProcessPoolExecutor(max_workers=workers)

        try:
            while queue or outstanding:
                now = time.monotonic()
                for _ in range(len(queue)):
                    if len(outstanding) >= workers:
                        break
                    scenario, attempt, ready_at = queue.popleft()
                    if ready_at > now:
                        queue.append((scenario, attempt, ready_at))
                        continue
                    deadline = None if self.timeout_s is None \
                        else now + self.timeout_s
                    try:
                        future = pool.submit(
                            _worker, scenario.task()
                            + (self._fault_for(scenario), attempt))
                    except BrokenProcessPool:
                        queue.appendleft((scenario, attempt, 0.0))
                        drain_and_rebuild("pool broke on submit")
                        continue
                    outstanding[future] = (scenario, attempt,
                                           deadline)
                if not outstanding:
                    if queue:
                        next_ready = min(r for _, _, r in queue)
                        time.sleep(max(next_ready - time.monotonic(),
                                       0.0))
                    continue

                waits = [d - now for _, _, d in outstanding.values()
                         if d is not None]
                waits += [r - now for _, _, r in queue]
                timeout = max(min(waits), 0.005) if waits else None
                finished, _ = wait(set(outstanding), timeout=timeout,
                                   return_when=FIRST_COMPLETED)

                broken = False
                for future in finished:
                    scenario, attempt, _deadline = \
                        outstanding.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        broken = True
                        self._handle_failure(
                            store, scenario, attempt, "crash",
                            "worker process died mid-scenario", "",
                            retry)
                        continue
                    except Exception as exc:
                        self._harness_error(store, scenario, exc)
                    handle_outcome(scenario, attempt, outcome)

                now = time.monotonic()
                hung = [f for f, (_, _, d) in outstanding.items()
                        if d is not None and now >= d
                        and not f.done()]
                if broken:
                    drain_and_rebuild("a worker process crashed")
                elif hung:
                    drain_and_rebuild(
                        f"{len(hung)} scenario(s) past the "
                        f"{self.timeout_s:g} s deadline")
        finally:
            for process in list(getattr(pool, "_processes",
                                        {}).values()):
                process.terminate()
            pool.shutdown(wait=False, cancel_futures=True)

    # -- reporting ----------------------------------------------------

    def report(self, matrix: CampaignMatrix,
               group_by: Optional[Sequence[str]] = None,
               write: bool = True) -> Dict[str, Any]:
        """Build the campaign's tidy summary from its checkpoints.

        The summary contains one row per completed scenario — the
        varied parameters plus every metric — in canonical scenario
        order, campaign-wide metric means, and (optionally) grouped
        means over ``group_by`` parameters.  It is a pure function of
        the record *contents*: resumed, resharded and uninterrupted
        runs of the same matrix produce byte-identical summaries.

        When ``write`` is true the summary JSON is also stored at
        ``store.summary_path``.
        """
        store = ResultStore(matrix, cache_dir=self.cache_dir)
        records = store.load_records()
        varied = matrix.varied_parameters()
        rows: List[Dict[str, Any]] = []
        ordered_metrics: List[Dict[str, float]] = []
        for scenario in matrix.expand():
            record = records.get(scenario.scenario_id)
            if record is None:
                continue
            row: Dict[str, Any] = {"index": scenario.index,
                                   "scenario_id": scenario.scenario_id,
                                   "seed": scenario.seed}
            for name in varied:
                row[name] = _canonical(scenario.params.get(name))
            row.update(_canonical(record["metrics"]))
            rows.append(row)
            # Aggregation follows canonical scenario order (float
            # sums are order-sensitive), so resumed and uninterrupted
            # runs summarize to identical bytes.
            ordered_metrics.append(record["metrics"])

        metric_names, aggregates = _means(ordered_metrics)
        summary: Dict[str, Any] = {
            "campaign": matrix.name,
            "experiment": matrix.experiment,
            "digest": matrix.digest(),
            "total_scenarios": matrix.total_scenarios(),
            "completed": len(rows),
            "varied": varied,
            "metrics": metric_names,
            "aggregates": aggregates,
            "rows": rows,
        }
        if group_by:
            unknown = sorted(set(group_by) - set(varied) - {"seed"})
            if unknown:
                raise ValueError(
                    f"cannot group by {unknown}: not varied in "
                    f"{matrix.name} (varied: {varied})")
            summary["group_by"] = list(group_by)
            summary["groups"] = group_rows(rows, list(group_by),
                                           metric_names)
        if write:
            store.ensure()
            write_json_atomic(store.summary_path, summary)
        return summary

    def results(self, matrix: CampaignMatrix) -> Dict[str, Any]:
        """The campaign's ``state``, ``completed``, ``total`` and
        ``quarantined`` counts and, once it has started, its written
        ``summary`` (:meth:`report`) — the payload ``repro campaign
        results`` prints, whether a service or the local store
        answers."""
        status = self.status(matrix)
        payload: Dict[str, Any] = {
            "state": status.state, "completed": status.completed,
            "total": status.total, "quarantined": status.quarantined}
        if status.started:
            payload["summary"] = self.report(matrix)
        return payload

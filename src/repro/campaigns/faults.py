"""Deterministic, seeded fault injection for campaign execution.

At campaign scale partial failure is the common case: a worker
process dies, an experiment raises on one pathological cell, a
scenario hangs past any reasonable deadline, or a checkpoint file
loses bytes to a crashed disk flush.  This module makes every one of
those failure classes *reproducible on demand*, so the resilience
machinery in :mod:`repro.campaigns.runner` and
:mod:`repro.campaigns.checkpoint` can be proven — not assumed — to
degrade gracefully and resume to byte-identical results.

Two fault families:

* **Execution faults** fire inside the worker running a targeted
  scenario: ``raise`` (mid-execute exception), ``slow`` (sleep, then
  run normally), ``hang`` (sleep far past the supervision deadline),
  ``crash`` (``os._exit`` — the worker process dies without cleanup).
* **Store faults** damage the checkpoint files after a run:
  ``corrupt-record`` changes one digit inside a targeted scenario's
  record, in a tail line or a sealed chunk row (valid JSON, wrong
  CRC — exactly the corruption a per-record checksum exists to
  catch), and ``truncate-file`` cuts a record file short: a tail
  mid-line (the torn tail a killed writer leaves) or a chunk in half
  (bit rot — chunks appear by atomic rename, so a kill cannot).

Everything is keyed through :func:`repro.core.mix.mix64`, so a
:class:`FaultPlan` built from ``(seed, kinds, scenario count)`` is a
pure value: the same plan injects the same faults at the same places
on every machine, every rerun — which is what lets the chaos wall
(``tests/campaigns/test_chaos.py`` and ``repro campaign chaos``)
assert byte-identical recovery.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.campaigns.checkpoint import check_record, read_jsonl
from repro.campaigns.colstore import (ResultStore, chunk_paths,
                                      read_chunk, tail_paths,
                                      write_chunk)
from repro.core.mix import mix64

__all__ = ["FaultSpec", "FaultPlan", "FaultInjectedError",
           "FAULT_KINDS", "EXECUTION_KINDS", "STORE_KINDS",
           "PROCESS_KINDS", "chaos_wall"]

#: Every injectable fault class, in the order ``--faults all`` runs.
FAULT_KINDS = ("raise", "slow", "hang", "crash", "corrupt-record",
               "truncate-file")

#: Faults that fire inside a worker while a scenario executes.
EXECUTION_KINDS = frozenset({"raise", "slow", "hang", "crash"})

#: Faults applied to the checkpoint store after execution.
STORE_KINDS = frozenset({"corrupt-record", "truncate-file"})

#: Execution faults that kill or wedge the *process* running them —
#: survivable only under supervised (worker-process) execution.
PROCESS_KINDS = frozenset({"crash", "hang"})


class FaultInjectedError(RuntimeError):
    """The error a ``raise`` fault throws mid-execute."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    Args:
        kind: one of :data:`FAULT_KINDS`.
        scenario_index: canonical index of the targeted scenario
            (execution faults and ``corrupt-record``; ignored by
            ``truncate-file``, which targets a record file).
        times: how many *attempts* of the scenario the fault fires on
            (execution faults).  ``1`` models a transient fault the
            retry policy absorbs; ``0`` means every attempt, so the
            scenario ends up quarantined.
        delay_s: sleep length for ``slow`` (must stay under the
            supervision deadline) and ``hang`` (must exceed it).
        seed: keys the byte/file choice of store faults.

    Example::

        FaultSpec("raise", scenario_index=3, times=1)
        FaultSpec("hang", scenario_index=0, delay_s=300.0)
    """

    kind: str
    scenario_index: int = -1
    times: int = 1
    delay_s: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {sorted(FAULT_KINDS)}")
        if self.kind in EXECUTION_KINDS or self.kind == "corrupt-record":
            if self.scenario_index < 0:
                raise ValueError(
                    f"{self.kind} fault needs a scenario_index >= 0")
        if self.times < 0:
            raise ValueError("times must be >= 0 (0 = every attempt)")

    def fires(self, attempt: int) -> bool:
        """Whether the fault fires on 0-based ``attempt``."""
        return self.times == 0 or attempt < self.times

    def fire(self, attempt: int) -> None:
        """Inject this execution fault inside the current worker.

        ``raise`` throws :class:`FaultInjectedError`; ``slow`` and
        ``hang`` sleep ``delay_s`` (the supervisor's watchdog is what
        turns a hang into a kill); ``crash`` exits the process without
        cleanup, exactly like an OOM kill or segfault would.
        """
        if self.kind not in EXECUTION_KINDS or not self.fires(attempt):
            return
        if self.kind == "raise":
            raise FaultInjectedError(
                f"injected fault: scenario #{self.scenario_index} "
                f"attempt {attempt}")
        if self.kind in ("slow", "hang"):
            time.sleep(self.delay_s)
            return
        if self.kind == "crash":
            os._exit(13)


def _flip(digit: int) -> int:
    """The digit a corruption fault writes in place of ``digit``."""
    return (digit + 5) % 10


def _corrupt_line(path: str, line_no: int, spec: FaultSpec
                  ) -> Optional[str]:
    """Flip one digit of a tail line, after its ``"metrics"`` key when
    possible, keeping the line valid JSON."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    line = lines[line_no - 1]
    anchor = max(line.find(b'"metrics"'), 0)
    digits = [i for i in range(anchor, len(line))
              if 0x30 <= line[i] <= 0x39]
    if not digits:
        return None
    pick = digits[mix64(spec.seed, spec.scenario_index) % len(digits)]
    lines[line_no - 1] = line[:pick] \
        + bytes([0x30 + _flip(line[pick] - 0x30)]) + line[pick + 1:]
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))
    return (f"corrupt-record: flipped byte {pick} of scenario "
            f"#{spec.scenario_index} in {os.path.basename(path)}")


def _corrupt_row(path: str, rows: List[dict], row: dict,
                 spec: FaultSpec) -> Optional[str]:
    """Flip one digit of one of a chunk row's metric values, then
    reseal the chunk with the row's stored (now stale) CRC."""
    spots = [(name, i) for name, value in sorted(row["metrics"].items())
             for i, char in enumerate(repr(value)) if char.isdigit()]
    if not spots:
        return None
    name, pick = spots[mix64(spec.seed, spec.scenario_index)
                       % len(spots)]
    text = repr(row["metrics"][name])
    row["metrics"][name] = float(
        text[:pick] + str(_flip(int(text[pick]))) + text[pick + 1:])
    write_chunk(path, rows)
    return (f"corrupt-record: flipped a digit of metric {name!r} of "
            f"scenario #{spec.scenario_index} in "
            f"{os.path.basename(path)}")


def _corrupt_record(directory: str, spec: FaultSpec) -> str:
    """Change one digit in the targeted scenario's record, leaving
    its stored CRC behind — the corruption only that CRC can catch.

    A tail line keeps valid JSON; a sealed chunk row gets one digit of
    a metric value changed and its chunk resealed.  Returns a
    description of what was (or was not) done.
    """
    for path in tail_paths(directory):
        for line_no, record in read_jsonl(path, check_record)[0]:
            if record["index"] == spec.scenario_index:
                note = _corrupt_line(path, line_no, spec)
                if note is not None:
                    return note
    for path in chunk_paths(directory):
        try:
            rows = read_chunk(path)
        except Exception:
            continue                    # already damaged
        for row in rows:
            if row["index"] == spec.scenario_index:
                note = _corrupt_row(path, rows, row, spec)
                if note is not None:
                    return note
    return (f"corrupt-record: no record for scenario "
            f"#{spec.scenario_index} (nothing corrupted)")


def _truncate_file(directory: str, spec: FaultSpec) -> str:
    """Cut a record file short.

    A tail file loses its last complete record and keeps half of it
    as a torn trailing fragment.  A sealed chunk is cut to half its
    bytes — damage a kill cannot produce (chunks appear by rename)
    but bit rot can, and the scan must absorb either way.
    """
    files = [p for p in tail_paths(directory)
             if os.path.getsize(p) > 0] + chunk_paths(directory)
    if not files:
        return "truncate-file: no record files (nothing truncated)"
    path = files[mix64(spec.seed, 1) % len(files)]
    if path.endswith(".npz"):
        size = os.path.getsize(path)
        os.truncate(path, max(size // 2, 1))
        return (f"truncate-file: cut chunk "
                f"{os.path.basename(path)} to half size")
    with open(path, "rb") as fh:
        data = fh.read()
    lines = [ln for ln in data.split(b"\n") if ln.strip()]
    last = lines[-1]
    torn = last[:max(len(last) // 2, 1)]
    with open(path, "wb") as fh:
        if len(lines) > 1:
            fh.write(b"\n".join(lines[:-1]) + b"\n")
        fh.write(torn)
    return (f"truncate-file: dropped the last record of "
            f"{os.path.basename(path)} and left a torn tail")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults to inject into one campaign run.

    Build one explicitly from :class:`FaultSpec` values, or draw a
    seeded plan over a scenario count with :meth:`seeded`.  Thread it
    through :class:`repro.campaigns.runner.CampaignRunner` via the
    ``fault_plan`` argument; the CLI surface is
    ``repro campaign chaos``.

    Example::

        plan = FaultPlan.seeded(total_scenarios=8, kinds=("raise",),
                                seed=7)
        CampaignRunner(jobs=2, timeout_s=30.0,
                       fault_plan=plan).run(matrix)
    """

    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    @classmethod
    def seeded(cls, total_scenarios: int,
               kinds: Sequence[str] = FAULT_KINDS, seed: int = 0,
               hang_s: float = 3600.0, slow_s: float = 0.25,
               times: int = 0) -> "FaultPlan":
        """Draw one fault of each requested kind, deterministically.

        Targets are keyed on ``(seed, kind)`` via splitmix64, so the
        same arguments always build the same plan.  ``times`` follows
        :class:`FaultSpec` semantics (default 0 = every attempt, the
        quarantine-forcing setting); ``slow`` and ``hang`` faults are
        always transient (``times=1``) so a chaos run pays one delay
        or one watchdog deadline, not one per retry.
        """
        if total_scenarios < 1:
            raise ValueError("total_scenarios must be >= 1")
        faults = []
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; "
                    f"known: {sorted(FAULT_KINDS)}")
            key = mix64(seed, FAULT_KINDS.index(kind))
            index = key % total_scenarios
            delay = {"hang": hang_s, "slow": slow_s}.get(kind, 0.0)
            faults.append(FaultSpec(
                kind=kind, scenario_index=index,
                times=1 if kind in ("slow", "hang") else times,
                delay_s=delay, seed=key))
        return cls(faults=tuple(faults))

    # -- lookups ------------------------------------------------------

    def execution_fault(self, scenario_index: int
                        ) -> Optional[FaultSpec]:
        """The execution fault targeting ``scenario_index``, if any."""
        for spec in self.faults:
            if spec.kind in EXECUTION_KINDS and \
                    spec.scenario_index == scenario_index:
                return spec
        return None

    @property
    def store_faults(self) -> Tuple[FaultSpec, ...]:
        """The checkpoint-store faults in this plan."""
        return tuple(s for s in self.faults if s.kind in STORE_KINDS)

    @property
    def requires_supervision(self) -> bool:
        """Whether any fault kills/wedges its worker process — such
        plans only make sense under supervised pool execution."""
        return any(s.kind in PROCESS_KINDS for s in self.faults)

    # -- store-fault application --------------------------------------

    def apply_store_faults(self, directory: str) -> List[str]:
        """Damage the checkpoint files under ``directory`` as the
        plan's store faults dictate.  Returns one description per
        fault (including no-ops when a target record is absent)."""
        notes = []
        for spec in self.store_faults:
            if spec.kind == "corrupt-record":
                notes.append(_corrupt_record(directory, spec))
            else:
                notes.append(_truncate_file(directory, spec))
        return notes


# --------------------------------------------------------------------
# The chaos wall
# --------------------------------------------------------------------

def _summary_bytes(runner, matrix) -> bytes:
    runner.report(matrix)
    store = ResultStore(matrix, cache_dir=runner.cache_dir)
    with open(store.summary_path, "rb") as fh:
        return fh.read()


def chaos_wall(matrix, kinds: Optional[Iterable[str]] = None,
               seed: int = 0, jobs: int = 2,
               timeout_s: float = 30.0, max_retries: int = 2,
               retry_backoff_s: float = 0.01, hang_s: Optional[float]
               = None, cache_root: Optional[str] = None,
               emit=None) -> dict:
    """Prove fault-by-fault that resumed campaigns recover exactly.

    For each fault kind: run ``matrix`` with that fault injected
    (supervised — timeouts, retries, quarantine), then resume
    fault-free, and compare the resumed summary byte-for-byte against
    a fault-free reference run.  Returns::

        {"passed": bool, "results": [
            {"kind", "passed", "identical", "resumed_complete",
             "quarantined_during_fault", "notes"}, ...]}

    This is the harness behind ``repro campaign chaos`` and the CI
    chaos-smoke job.
    """
    import tempfile

    from repro.campaigns.runner import CampaignRunner

    def _say(line: str) -> None:
        if emit is not None:
            emit(line)

    kinds = tuple(kinds) if kinds is not None else FAULT_KINDS
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; "
                f"known: {sorted(FAULT_KINDS)}")
    hang_s = hang_s if hang_s is not None else max(10.0 * timeout_s,
                                                   300.0)
    with tempfile.TemporaryDirectory(dir=cache_root) as root:
        _say(f"chaos {matrix.name}: fault-free reference run...")
        reference = CampaignRunner(
            jobs=jobs, cache_dir=os.path.join(root, "reference"))
        if not reference.run(matrix).done:
            raise RuntimeError("reference run did not complete")
        want = _summary_bytes(reference, matrix)

        results = []
        for kind in kinds:
            plan = FaultPlan.seeded(
                matrix.total_scenarios(), kinds=(kind,), seed=seed,
                hang_s=hang_s)
            cache = os.path.join(root, f"fault-{kind}")
            _say(f"chaos {matrix.name}: injecting {kind} "
                 f"(scenario #{plan.faults[0].scenario_index})...")
            faulted = CampaignRunner(
                jobs=jobs, timeout_s=timeout_s,
                max_retries=max_retries,
                retry_backoff_s=retry_backoff_s, fault_plan=plan,
                cache_dir=cache, progress=emit)
            status = faulted.run(matrix)
            quarantined = [e["index"] for e in ResultStore(
                matrix, cache_dir=cache).load_quarantine()]
            _say(f"chaos {matrix.name}: {kind} run left "
                 f"{status.completed}/{status.total} complete, "
                 f"{status.quarantined} quarantined; resuming "
                 f"fault-free...")
            resumed = CampaignRunner(jobs=jobs, timeout_s=timeout_s,
                                     max_retries=max_retries,
                                     retry_backoff_s=retry_backoff_s,
                                     cache_dir=cache)
            final = resumed.run(matrix)
            got = _summary_bytes(resumed, matrix)
            result = {
                "kind": kind,
                "resumed_complete": bool(final.done
                                         and final.quarantined == 0),
                "identical": got == want,
                "quarantined_during_fault": quarantined,
                "notes": "",
            }
            result["passed"] = (result["resumed_complete"]
                                and result["identical"])
            if not result["identical"]:
                result["notes"] = "resumed summary differs from " \
                    "fault-free reference"
            elif not result["resumed_complete"]:
                result["notes"] = "resume left scenarios pending or " \
                    "quarantined"
            _say(f"chaos {matrix.name}: {kind} "
                 f"{'PASS' if result['passed'] else 'FAIL'}"
                 + (f" ({result['notes']})" if result["notes"] else ""))
            results.append(result)
    return {"passed": all(r["passed"] for r in results),
            "results": results}

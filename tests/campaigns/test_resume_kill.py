"""Kill-and-resume integration: checkpoints survive a SIGKILL.

A campaign run in a subprocess is killed mid-run (no cleanup, no
atexit — the hardest interruption), resumed to completion, and its
aggregate summary is asserted byte-identical to an uninterrupted run
in a pristine cache directory.
"""

import json
import os
import signal
import subprocess
import sys
import time

from repro.campaigns import CampaignRunner, ResultStore, get_campaign

_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


def _spawn_campaign(cache_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "run",
         "smoke-tiny", "--cache-dir", str(cache_dir)],
        cwd=_ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)


def test_sigkill_then_resume_is_byte_identical(tmp_path):
    matrix = get_campaign("smoke-tiny")
    interrupted = tmp_path / "interrupted"
    pristine = tmp_path / "pristine"

    # Start the campaign, wait for >= 1 checkpointed scenario, then
    # SIGKILL the process with work still pending.
    store = ResultStore(matrix, cache_dir=str(interrupted))
    proc = _spawn_campaign(interrupted)
    try:
        deadline = time.time() + 120.0
        while time.time() < deadline:
            if proc.poll() is not None:
                break                       # finished before the kill
            if store.completed_ids():
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=30)
                break
            time.sleep(0.02)
        else:
            raise AssertionError("campaign made no progress in 120 s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    survived = len(store.completed_ids())
    assert survived >= 1, "no checkpoint survived the kill"

    # Resume in-process: only the missing scenarios may run.
    progress = []
    runner = CampaignRunner(cache_dir=str(interrupted),
                            progress=progress.append)
    status = runner.run(matrix)
    assert status.done
    header = progress[0]
    assert f"{8 - survived} to run" in header, \
        f"resume recomputed checkpointed work: {header!r}"
    runner.report(matrix)

    # Uninterrupted reference run in a pristine cache dir.
    reference = CampaignRunner(cache_dir=str(pristine))
    assert reference.run(matrix).done
    reference.report(matrix)

    resumed_store = ResultStore(matrix, cache_dir=str(interrupted))
    pristine_store = ResultStore(matrix, cache_dir=str(pristine))
    with open(resumed_store.summary_path, "rb") as fh:
        resumed_bytes = fh.read()
    with open(pristine_store.summary_path, "rb") as fh:
        pristine_bytes = fh.read()
    assert resumed_bytes == pristine_bytes, \
        "resumed aggregate differs from uninterrupted run"
    # Sanity: the summary is complete, not trivially empty.
    summary = json.loads(resumed_bytes)
    assert summary["completed"] == 8

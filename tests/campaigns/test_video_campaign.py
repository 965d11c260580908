"""Video campaign family: registry shape and kill-and-resume
determinism of ``video-matrix`` under ``--limit``.

Mirrors ``test_resume_kill.py``: a limited ``video-matrix`` run in a
subprocess is SIGKILLed mid-run, resumed in-process to the same limit,
and its per-scenario metric records are asserted identical to an
uninterrupted limited run in a pristine cache directory.
"""

import os
import signal
import subprocess
import sys
import time

from repro.campaigns import CampaignRunner, ResultStore, get_campaign

_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
_LIMIT = 6


def test_video_campaigns_are_registered():
    smoke = get_campaign("video-smoke")
    matrix = get_campaign("video-matrix")
    assert smoke.experiment == "video"
    assert matrix.experiment == "video"
    assert smoke.total_scenarios() == 8
    assert matrix.total_scenarios() == 72


def _spawn_limited(cache_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "run",
         "video-matrix", "--cache-dir", str(cache_dir),
         "--limit", str(_LIMIT)],
        cwd=_ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)


def _metric_records(store):
    """scenario_id -> metrics, dropping nondeterministic timing."""
    return {sid: rec["metrics"]
            for sid, rec in store.load_records().items()}


def test_sigkill_then_resume_matches_pristine_limited_run(tmp_path):
    matrix = get_campaign("video-matrix")
    interrupted = tmp_path / "interrupted"
    pristine = tmp_path / "pristine"

    store = ResultStore(matrix, cache_dir=str(interrupted))
    proc = _spawn_limited(interrupted)
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

    # Resume in-process up to the same limit: pending scenarios keep
    # matrix order, so the union is exactly the first _LIMIT cells.
    runner = CampaignRunner(cache_dir=str(interrupted))
    runner.run(matrix, limit=max(_LIMIT - survived, 0))

    reference = CampaignRunner(cache_dir=str(pristine))
    reference.run(matrix, limit=_LIMIT)

    resumed = _metric_records(
        ResultStore(matrix, cache_dir=str(interrupted)))
    expected = _metric_records(
        ResultStore(matrix, cache_dir=str(pristine)))
    assert len(resumed) >= _LIMIT
    assert resumed == expected, \
        "resumed video-matrix records differ from uninterrupted run"

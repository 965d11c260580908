"""The Runner's executor: parity with in-process runs, crash recovery,
per-replicate resume and one failure type at any ``jobs``.

``Runner.run``/``Runner.sweep`` fan seed replicates and sweep points
out as a campaign, so these tests pin what that path must keep (every
replicate's metrics equal an in-process ``run()`` at that seed, serial
or pooled) and what it adds (a dying worker does not abort the run, a
rerun after a failure executes only the missing replicates, and a
failing replicate raises :class:`ExperimentExecutionError` whatever
``jobs`` is).
"""

import os

import pytest

from repro.experiments.api import (ExperimentExecutionError, Runner,
                                   _canonical_json, get_experiment,
                                   register_experiment, run)


def _log_call(log, seed):
    with open(log, "a") as fh:
        fh.write(f"{seed}\n")


def _calls(log):
    if not os.path.exists(log):
        return []
    with open(log) as fh:
        return fh.read().split()


@register_experiment(
    "exec-crash",
    description="dies once at seed 2 (its worker process exits)",
    params={"seed": 1, "marker": "", "log": ""})
def _run_crash(seed=1, marker="", log=""):
    """Kills its own process on the first seed-2 call."""
    _log_call(log, seed)
    if seed == 2 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(3)
    return {"value": float(seed)}


@register_experiment(
    "exec-gated",
    description="seed 2 raises until its gate file exists",
    params={"seed": 1, "gate": "", "log": ""})
def _run_gated(seed=1, gate="", log=""):
    """Fails persistently at seed 2 until ``gate`` is created."""
    _log_call(log, seed)
    if seed == 2 and not os.path.exists(gate):
        raise ValueError("seed 2 waits for its gate")
    return {"value": float(seed), "missing": float("nan")}


#: (experiment, overrides) pairs the parity wall runs; cheap settings
#: of a channel figure, a deterministic table, a surrogate campaign
#: cell and a PHY figure on the surrogate.
PARITY_CASES = [
    ("fig01", {"duration": 0.5}),
    ("tab02", {}),
    ("cell", {"duration": 0.1}),
    ("fig07", {"phy_backend": "surrogate", "payload_bits": 104,
               "frames_per_point": 1}),
]


def _in_process(name, overrides, seed=None):
    """Canonical JSON of one in-process ``run()``'s metrics."""
    scenario = get_experiment(name).scenario(overrides)
    if seed is not None:
        scenario = scenario.with_seed(seed)
    return _canonical_json(run(name, **scenario.params).per_seed[0])


class TestParity:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name,overrides", PARITY_CASES,
                             ids=[case[0] for case in PARITY_CASES])
    def test_seed_fan_matches_in_process_runs(self, tmp_path, jobs,
                                              name, overrides):
        runner = Runner(jobs=jobs, cache_dir=str(tmp_path))
        if get_experiment(name).seed_param is None:
            result = runner.run(name, overrides)
            assert result.seeds == [None]
            assert [_canonical_json(m) for m in result.per_seed] == \
                [_in_process(name, overrides)]
            return
        seeds = [3, 1]
        result = runner.run(name, overrides, seeds=seeds)
        assert result.seeds == seeds
        assert [_canonical_json(m) for m in result.per_seed] == \
            [_in_process(name, overrides, seed) for seed in seeds]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_seeded_sweep_matches_in_process_runs(self, tmp_path, jobs):
        # ``use_postambles`` sorts after ``seed``, so the campaign's
        # canonical order puts the seed axis outermost: the results
        # must still come back grouped by sweep value, in seed order.
        runner = Runner(jobs=jobs, cache_dir=str(tmp_path))
        seeds = [2, 1]
        results = runner.sweep("cell", "use_postambles", [False, True],
                               {"duration": 0.1}, seeds=seeds)
        assert [r.params["use_postambles"] for r in results] == \
            [False, True]
        for value, result in zip([False, True], results):
            assert result.seeds == seeds
            overrides = {"duration": 0.1, "use_postambles": value}
            assert [_canonical_json(m) for m in result.per_seed] == \
                [_in_process("cell", overrides, s) for s in seeds]

    def test_tuple_seed_parameter_fans_as_singletons(self, tmp_path):
        # fig13 seeds through a tuple (``seeds=(1, 2)``); a replicate
        # gets ``(s,)``, exactly as ``Scenario.with_seed`` writes it.
        overrides = {"client_counts": (1,), "duration": 0.2,
                     "phy_backend": "surrogate"}
        result = Runner(jobs=1, cache_dir=str(tmp_path)).run(
            "fig13", overrides, seeds=[5])
        assert result.seeds == [5]
        assert [_canonical_json(m) for m in result.per_seed] == \
            [_in_process("fig13", overrides, 5)]


class TestRecovery:
    def test_worker_that_dies_once_does_not_abort_the_run(self,
                                                          tmp_path):
        marker, log = str(tmp_path / "died"), str(tmp_path / "calls")
        params = {"marker": marker, "log": log}
        runner = Runner(jobs=2, cache_dir=str(tmp_path / "cache"))
        result = runner.run("exec-crash", params, seeds=[1, 2, 3])
        assert os.path.exists(marker)
        assert [m["value"] for m in result.per_seed] == [1.0, 2.0, 3.0]
        calls = _calls(log)
        again = runner.run("exec-crash", params, seeds=[1, 2, 3])
        assert again.cached
        assert _calls(log) == calls
        assert again.to_json() == result.to_json()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rerun_executes_only_the_failed_replicate(self, tmp_path,
                                                      jobs):
        gate, log = str(tmp_path / "gate"), str(tmp_path / "calls")
        params = {"gate": gate, "log": log}
        runner = Runner(jobs=jobs, cache_dir=str(tmp_path / "cache"))
        with pytest.raises(ExperimentExecutionError) as info:
            runner.run("exec-gated", params, seeds=[1, 2, 3])
        # Seed 2 kept failing: three attempts, then the error.
        assert sorted(_calls(log)) == ["1", "2", "2", "2", "3"]
        open(gate, "w").close()
        before = len(_calls(log))
        result = runner.run("exec-gated", params, seeds=[1, 2, 3])
        assert _calls(log)[before:] == ["2"]
        assert not result.cached
        assert [m["value"] for m in result.per_seed] == [1.0, 2.0, 3.0]
        assert info.value.experiment == "exec-gated"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_raises_one_type_at_any_jobs(self, tmp_path, jobs):
        params = {"gate": str(tmp_path / "never"),
                  "log": str(tmp_path / "calls")}
        runner = Runner(jobs=jobs, cache_dir=str(tmp_path / "cache"))
        with pytest.raises(ExperimentExecutionError) as info:
            runner.run("exec-gated", params, seeds=[2])
        err = info.value
        assert err.experiment == "exec-gated"
        assert "seed 2 waits for its gate" in str(err)
        assert "ValueError: seed 2 waits for its gate" in \
            err.traceback_text
        with pytest.raises(ExperimentExecutionError):
            runner.sweep("exec-gated", "seed", [1, 2], params)

    def test_sweep_rerun_executes_only_the_failed_point(self, tmp_path):
        gate, log = str(tmp_path / "gate"), str(tmp_path / "calls")
        params = {"gate": gate, "log": log}
        runner = Runner(jobs=1, cache_dir=str(tmp_path / "cache"))
        with pytest.raises(ExperimentExecutionError):
            runner.sweep("exec-gated", "seed", [1, 2, 3], params)
        open(gate, "w").close()
        before = len(_calls(log))
        results = runner.sweep("exec-gated", "seed", [1, 2, 3], params)
        assert _calls(log)[before:] == ["2"]
        assert [r.cached for r in results] == [True, False, True]
        assert [r.aggregates["value"] for r in results] == \
            [1.0, 2.0, 3.0]


class TestCacheIdentity:
    def test_recalibration_invalidates_surrogate_results(
            self, tmp_path, monkeypatch):
        import repro.phy.calibration as calibration

        runner = Runner(jobs=1, cache_dir=str(tmp_path))
        overrides = {"payload_bits": 104, "frames_per_point": 1,
                     "phy_backend": "surrogate"}
        monkeypatch.setattr(calibration, "default_fingerprint",
                            lambda: "aaaa")
        assert not runner.run("fig07", overrides).cached
        assert runner.run("fig07", overrides).cached
        monkeypatch.setattr(calibration, "default_fingerprint",
                            lambda: "bbbb")
        assert not runner.run("fig07", overrides).cached

    def test_nan_metrics_survive_the_store(self, tmp_path):
        params = {"gate": str(tmp_path / "gate"),
                  "log": str(tmp_path / "calls")}
        runner = Runner(jobs=1, cache_dir=str(tmp_path / "cache"))
        first = runner.run("exec-gated", params, seeds=[1, 3])
        second = runner.run("exec-gated", params, seeds=[1, 3])
        assert second.cached
        assert second.to_json() == first.to_json()
        assert '"missing": null' in first.to_json()

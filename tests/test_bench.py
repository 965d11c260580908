"""Tests for the benchmark gate logic (``repro bench``).

The timing loops themselves are exercised by the CLI smoke path and
CI; these tests pin the *comparison* semantics — the part that decides
whether CI goes red — without running any wall-clock measurement.
"""

import json

import pytest

from repro import bench


def _baseline(**metrics):
    return {"schema": bench._PHY_SCHEMA, "config": {},
            "gate": sorted(metrics), "metrics": metrics}


class TestCompareGate:
    def test_within_tolerance_passes(self):
        base = _baseline(batched_speedup=3.0)
        assert bench.compare_gate(base, {"batched_speedup": 2.75}) == []

    def test_drop_beyond_tolerance_fails(self):
        base = _baseline(batched_speedup=3.0)
        failures = bench.compare_gate(base, {"batched_speedup": 2.5})
        assert len(failures) == 1
        assert "batched_speedup" in failures[0]

    def test_improvement_never_fails(self):
        base = _baseline(surrogate_speedup=300.0)
        assert bench.compare_gate(
            base, {"surrogate_speedup": 3000.0}) == []

    def test_gate_is_one_sided_per_metric(self):
        base = _baseline(batched_speedup=3.0, surrogate_speedup=300.0)
        failures = bench.compare_gate(
            base, {"batched_speedup": 9.0, "surrogate_speedup": 30.0})
        assert len(failures) == 1
        assert "surrogate_speedup" in failures[0]

    def test_non_gate_metrics_ignored(self):
        """Absolute frames/sec are informational: only ratios listed
        in ``gate`` can fail the check across machines."""
        base = _baseline(batched_speedup=3.0)
        base["metrics"]["full_scalar_fps"] = 100.0
        assert bench.compare_gate(
            base, {"batched_speedup": 3.0, "full_scalar_fps": 1.0}) == []

    def test_custom_tolerance(self):
        base = _baseline(batched_speedup=3.0)
        metrics = {"batched_speedup": 2.8}
        assert bench.compare_gate(base, metrics, tolerance=0.10) == []
        assert bench.compare_gate(base, metrics, tolerance=0.01)


class TestCheckBenchmarks:
    def test_missing_baseline_fails(self, tmp_path):
        lines = []
        code = bench.check_benchmarks(str(tmp_path), only="phy",
                                      echo=lines.append)
        assert code == 1
        assert any("MISSING" in line for line in lines)

    def test_unknown_schema_fails(self, tmp_path):
        path = tmp_path / bench.PHY_BENCH_FILE
        path.write_text(json.dumps({"schema": "bogus/9"}))
        lines = []
        code = bench.check_benchmarks(str(tmp_path), only="phy",
                                      echo=lines.append)
        assert code == 1
        assert any("unknown schema" in line for line in lines)

    def test_retry_merges_per_metric_max(self, tmp_path, monkeypatch):
        """A transient dip on one measurement is forgiven if the
        retry recovers; both-low fails."""
        path = tmp_path / bench.PHY_BENCH_FILE
        base = _baseline(batched_speedup=3.0)
        path.write_text(json.dumps(base))
        runs = iter([{"batched_speedup": 1.0},
                     {"batched_speedup": 3.2}])
        suites = {"phy": (bench.PHY_BENCH_FILE, bench._PHY_SCHEMA, {},
                          lambda config: next(runs), ())}
        monkeypatch.setattr(bench, "_SUITES", suites)
        assert bench.check_benchmarks(str(tmp_path), only="phy",
                                      echo=lambda _line: None) == 0

    def test_persistent_regression_fails(self, tmp_path, monkeypatch):
        path = tmp_path / bench.PHY_BENCH_FILE
        path.write_text(json.dumps(_baseline(batched_speedup=3.0)))
        suites = {"phy": (bench.PHY_BENCH_FILE, bench._PHY_SCHEMA, {},
                          lambda config: {"batched_speedup": 1.0}, ())}
        monkeypatch.setattr(bench, "_SUITES", suites)
        lines = []
        assert bench.check_benchmarks(str(tmp_path), only="phy",
                                      echo=lines.append) == 1
        assert any("FAIL" in line for line in lines)


class TestCommittedBaselines:
    """The files at the repo root must stay well-formed."""

    @pytest.mark.parametrize("name", sorted(bench._SUITES))
    def test_baseline_shape(self, name):
        import os

        filename, schema, _config, _measure, gate = \
            bench._SUITES[name]
        root = os.path.join(os.path.dirname(
            os.path.abspath(__file__)), "..")
        with open(os.path.join(root, filename)) as fh:
            baseline = json.load(fh)
        assert baseline["schema"] == schema
        assert baseline["gate"] == sorted(gate)
        for key in baseline["gate"]:
            assert float(baseline["metrics"][key]) > 0.0
        assert baseline["config"]

    def test_slot_engine_speedup_meets_the_bar(self):
        """The committed MAC-engine series must show the slot engine
        at >= 4x the event-driven oracle on the 50-station cell —
        the scale claim ``contention-xl`` rests on (the gap widens
        with the station count)."""
        import os

        root = os.path.join(os.path.dirname(
            os.path.abspath(__file__)), "..")
        with open(os.path.join(root,
                               bench.CAMPAIGN_BENCH_FILE)) as fh:
            baseline = json.load(fh)
        assert "slot_vs_event_speedup" in baseline["gate"]
        metrics = baseline["metrics"]
        assert float(metrics["slot_vs_event_speedup"]) >= 4.0
        assert float(metrics["slot_station_seconds_per_sec"]) > \
            float(metrics["event_station_seconds_per_sec"])
        assert baseline["config"]["engine_n_clients"] == 50

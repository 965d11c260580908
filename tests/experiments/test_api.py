"""Tests for the unified experiment API (registry, runner, caching)."""

import json

import numpy as np
import pytest

import pickle

from hypothesis import assume, given, settings, strategies as st

from repro.experiments.api import (ExperimentExecutionError,
                                   ExperimentResult, Runner, Scenario,
                                   UnknownParameterError, _canonical,
                                   _canonical_json, derive_seeds,
                                   execute_task, experiment_names,
                                   get_experiment, list_experiments,
                                   load_all, register_experiment, run)

#: One registration per experiment module (and nothing else): the
#: figXX/tabXX reproductions plus the campaign matrix cells.
EXPECTED = {"cell", "fig01", "fig03", "fig05", "fig07", "fig08",
            "fig10", "fig13", "fig15", "fig16", "fig17", "mesh",
            "tab01", "tab02", "video"}


class TestRegistry:
    def test_every_module_registered_exactly_once(self):
        # Test suites may register throwaway experiments (e.g. the
        # campaign fixtures), so restrict the exactness claim to the
        # repro.experiments tree.
        builtin = {name for name in experiment_names()
                   if get_experiment(name).fn.__module__.startswith(
                       "repro.experiments.")}
        assert builtin == EXPECTED
        modules = [get_experiment(name).fn.__module__
                   for name in sorted(builtin)]
        assert len(set(modules)) == len(modules)

    def test_specs_are_described(self):
        for spec in list_experiments():
            assert spec.description
            assert isinstance(spec.params, dict)

    def test_seed_params_exist_in_parameter_space(self):
        load_all()
        for spec in list_experiments():
            if spec.seed_param is not None:
                assert spec.seed_param in spec.params, spec.name

    def test_unknown_experiment_lists_available(self):
        with pytest.raises(KeyError, match="fig13"):
            get_experiment("fig99")


class TestSpecValidation:
    def test_unknown_key_rejected(self):
        spec = get_experiment("fig01")
        with pytest.raises(UnknownParameterError, match="bogus"):
            spec.scenario({"bogus": 1})

    def test_run_rejects_unknown_key(self):
        with pytest.raises(UnknownParameterError):
            run("fig01", not_a_param=3)

    def test_overrides_merge_over_defaults(self):
        scenario = get_experiment("fig01").scenario({"seed": 42})
        assert scenario.params["seed"] == 42
        assert scenario.params["detail_start"] == 4.0

    def test_content_hash_stable_and_sensitive(self):
        spec = get_experiment("fig01")
        a = spec.scenario({"seed": 1}).content_hash()
        b = spec.scenario({"seed": 1}).content_hash()
        c = spec.scenario({"seed": 2}).content_hash()
        assert a == b
        assert a != c

    def test_tuple_and_list_params_hash_identically(self):
        spec = get_experiment("fig13")
        a = spec.scenario({"client_counts": (1, 2)}).content_hash()
        b = spec.scenario({"client_counts": [1, 2]}).content_hash()
        assert a == b

    @pytest.mark.parametrize("a, b", [
        ({1: "a", "1": "b"}, {1: "a"}),
        ({1: "a", "1": "b"}, {"1": "b"}),
        ({1: "a"}, {"1": "a"}),
        ({None: 1}, {"None": 1}),
    ])
    def test_dict_keys_of_different_types_hash_apart(self, a, b):
        """Keys used to canonicalize through ``str()``: ``{1: 'a',
        '1': 'b'}`` lost an entry and ``{1: 'a'}``, ``{'1': 'a'}``
        shared one scenario id."""
        assert len(_canonical(a)) == len(a)
        assert Scenario("fig01", {"x": a}).content_hash() != \
            Scenario("fig01", {"x": b}).content_hash()

    def test_str_keyed_dicts_keep_their_encoding(self):
        assert _canonical_json({"b": 1, "a": {"c": [2]}}) == \
            '{"a":{"c":[2]},"b":1}'


#: ``str`` keys that do not spell an encoded int or None key such as
#: ``"int:0"``: a mapping and its canonical form are one
#: parameterization by design (see ``_canonical_key``).
_DICT_KEYS = (st.integers(-2, 2) | st.none()
              | st.text(max_size=6).filter(
                  lambda k: not k.startswith(("int:", "NoneType:"))))
_DICTS = st.dictionaries(_DICT_KEYS, st.integers(-2, 2)
                         | st.text(max_size=2), max_size=4)


@settings(max_examples=200, deadline=None)
@given(a=_DICTS, data=st.data())
def test_unequal_dicts_never_share_a_content_hash(a, data):
    """Two unequal dicts with int, str or None keys never get one
    scenario id; ``b`` is often ``a`` with every key made a string.
    Canonical output canonicalizes to itself."""
    b = data.draw(_DICTS | st.just({str(k): v for k, v in a.items()}),
                  label="b")
    assert _canonical(_canonical(a)) == _canonical(a)
    assume(a != b)
    assert Scenario("fig01", {"x": a}).content_hash() != \
        Scenario("fig01", {"x": b}).content_hash()


class TestRunner:
    def test_run_returns_uniform_result(self):
        result = run("fig01", duration=2.0)
        assert result.experiment == "fig01"
        assert result.params["duration"] == 2.0
        assert result.seeds == [None]
        assert len(result.per_seed) == 1
        assert result.aggregates == result.per_seed[0]
        assert result.raw is not None
        assert "fade_depth_db" in result.aggregates

    def test_registry_run_equals_direct_wrapper(self):
        from repro.experiments.fig01_channel import run_fig1
        direct = run_fig1(seed=4, duration=2.0)
        via = run("fig01", seed=4, duration=2.0)
        assert via.raw.fade_depth_db() == direct.fade_depth_db()
        assert via.aggregates["fade_depth_db"] == \
            direct.fade_depth_db()

    def test_cache_hit_is_bit_identical(self, tmp_path):
        runner = Runner(jobs=1, cache_dir=str(tmp_path / "cache"))
        first = runner.run("fig01", {"duration": 2.0})
        second = runner.run("fig01", {"duration": 2.0})
        assert not first.cached
        assert second.cached
        assert second.to_json() == first.to_json()

    def test_cache_respects_params_and_seeds(self, tmp_path):
        runner = Runner(jobs=1, cache_dir=str(tmp_path / "cache"))
        base = runner.run("fig01", {"duration": 2.0})
        other = runner.run("fig01", {"duration": 2.5})
        fanned = runner.run("fig01", {"duration": 2.0}, seeds=[1, 2])
        assert not other.cached and other.cache_key != base.cache_key
        assert not fanned.cached and fanned.cache_key != base.cache_key

    def test_parallel_equals_serial(self, tmp_path):
        serial = Runner(jobs=1, cache_dir=str(tmp_path / "a")).run(
            "fig01", {"duration": 2.0}, seeds=[1, 2])
        parallel = Runner(jobs=2, cache_dir=str(tmp_path / "b")).run(
            "fig01", {"duration": 2.0}, seeds=[1, 2])
        assert parallel.per_seed == serial.per_seed
        assert parallel.aggregates == serial.aggregates
        assert parallel.seeds == serial.seeds
        assert parallel.cache_key == serial.cache_key

    def test_fanned_result_omits_stale_seed_param(self, tmp_path):
        runner = Runner(jobs=1, cache_dir=str(tmp_path))
        fanned = runner.run("fig01", {"duration": 2.0}, seeds=[5, 6])
        # The base seed default was rewritten per replicate; recording
        # it would misstate what ran — `seeds` is authoritative.
        assert "seed" not in fanned.params
        assert fanned.seeds == [5, 6]
        single = runner.run("fig01", {"duration": 2.0})
        assert single.params["seed"] == 1

    def test_seed_fan_rewrites_seed_param(self, tmp_path):
        runner = Runner(jobs=1, cache_dir=str(tmp_path / "cache"))
        fanned = runner.run("fig01", {"duration": 2.0}, seeds=[1, 9])
        assert fanned.seeds == [1, 9]
        assert len(fanned.per_seed) == 2
        # Different seeds -> different trajectories.
        assert fanned.per_seed[0]["fade_depth_db"] != \
            fanned.per_seed[1]["fade_depth_db"]
        mean = np.mean([m["fade_depth_db"] for m in fanned.per_seed])
        assert fanned.aggregates["fade_depth_db"] == \
            pytest.approx(float(mean))

    def test_tuple_seed_param_gets_singleton(self):
        scenario = get_experiment("fig13").scenario().with_seed(7)
        assert scenario.params["seeds"] == (7,)

    def test_sweep_runs_each_value(self, tmp_path):
        runner = Runner(jobs=1, cache_dir=str(tmp_path / "cache"))
        results = runner.sweep("fig01", "seed", [1, 2])
        assert [r.params["seed"] for r in results] == [1, 2]
        cached = runner.sweep("fig01", "seed", [1, 2])
        assert all(r.cached for r in cached)
        assert [r.to_json() for r in cached] == \
            [r.to_json() for r in results]

    def test_derive_seeds_deterministic(self):
        assert derive_seeds(0, 3) == derive_seeds(0, 3)
        assert derive_seeds(0, 3) != derive_seeds(1, 3)
        assert len(set(derive_seeds(0, 8))) == 8


class TestResultSerialization:
    def test_json_roundtrip(self):
        result = run("fig01", duration=2.0)
        restored = ExperimentResult.from_json(result.to_json())
        assert restored.to_json() == result.to_json()
        assert restored.aggregates == result.aggregates

    def test_nan_metrics_serialize_as_strict_json(self):
        result = ExperimentResult(
            experiment="x", params={}, seeds=[None],
            per_seed=[{"m": float("nan")}],
            aggregates={"m": float("nan")}, cache_key="0")
        text = result.to_json()
        assert "NaN" not in text
        restored = ExperimentResult.from_json(text)
        assert np.isnan(restored.aggregates["m"])
        assert np.isnan(restored.per_seed[0]["m"])
        assert restored.to_json() == text

    def test_save_json_and_npz(self, tmp_path):
        result = run("fig01", duration=2.0)
        jpath = tmp_path / "r.json"
        zpath = tmp_path / "r.npz"
        result.save(str(jpath))
        result.save(str(zpath))
        data = json.loads(jpath.read_text())
        assert data["experiment"] == "fig01"
        npz = np.load(str(zpath))
        assert float(npz["aggregate/fade_depth_db"]) == \
            result.aggregates["fade_depth_db"]
        assert json.loads(str(npz["metadata"]))["experiment"] == \
            "fig01"


class TestDeterministicExperiments:
    def test_tab02_has_no_seed(self):
        spec = get_experiment("tab02")
        assert spec.seed_param is None
        scenario = spec.scenario()
        assert scenario.with_seed(5) is scenario

    def test_seed_fan_rejected_for_seedless_experiment(self, tmp_path):
        runner = Runner(jobs=1, cache_dir=str(tmp_path))
        with pytest.raises(ValueError, match="deterministic"):
            runner.run("tab02", seeds=[1, 2])
        with pytest.raises(ValueError, match="deterministic"):
            runner.sweep("fig15", "protocol", ["softrate"],
                         seeds=[1, 2])

    def test_tab02_runs(self):
        result = run("tab02")
        assert result.aggregates["n_rates"] == 8.0
        assert result.aggregates["n_prototype"] == 6.0
        assert "18 Mbps" in result.raw.render()


class TestProtocolRegistry:
    def test_all_protocols_resolve(self):
        from repro.experiments.common import (PROTOCOL_NAMES,
                                              protocol_factory)
        from repro.phy.rates import RATE_TABLE
        from repro.traces.synthetic import constant_trace

        trace = constant_trace(best_rate=3, duration=1.0)
        rates = RATE_TABLE.prototype_subset()
        for name in PROTOCOL_NAMES:
            factory = protocol_factory(name, training_trace=trace)
            adapter = factory(rates, trace)
            assert 0 <= adapter.choose_rate(0.0) < len(rates), name

    def test_trained_protocols_require_trace(self):
        from repro.experiments.common import protocol_factory
        for name in ("snr", "charm"):
            with pytest.raises(ValueError):
                protocol_factory(name)

    def test_unknown_protocol_rejected(self):
        from repro.experiments.common import protocol_factory
        with pytest.raises(ValueError, match="available"):
            protocol_factory("wishful-thinking")


class TestPhyBackendKnob:
    """phy_backend is an override like any other parameter, and part
    of cache identity (the surrogate is calibrated, not bit-exact)."""

    def test_backend_included_in_content_hash(self):
        spec = get_experiment("fig07")
        a = spec.scenario({"phy_backend": "full"}).content_hash()
        b = spec.scenario({"phy_backend": "surrogate"}).content_hash()
        assert a != b

    def test_runner_injects_backend_where_declared(self, tmp_path):
        """The override reaches experiments that declare the parameter;
        one that does not (fig01) rejects it like any unknown key.  The
        Runner itself takes no backend."""
        runner = Runner(jobs=1, cache_dir=str(tmp_path))
        result = runner.run("fig07", {"payload_bits": 104,
                                      "frames_per_point": 1,
                                      "phy_backend": "surrogate"})
        assert result.params["phy_backend"] == "surrogate"
        with pytest.raises(UnknownParameterError, match="phy_backend"):
            runner.run("fig01", {"duration": 0.2,
                                 "phy_backend": "surrogate"})
        for option in ("phy_backend", "batch_size"):
            with pytest.raises(TypeError):
                Runner(**{option: "surrogate"})

    def test_explicit_override_beats_runner_default(self, tmp_path):
        """A swept backend beats a ``phy_backend`` override, as any
        swept parameter beats an override of the same key."""
        runner = Runner(jobs=1, cache_dir=str(tmp_path))
        results = runner.sweep("fig07", "phy_backend",
                               ["full", "surrogate"],
                               {"payload_bits": 104,
                                "frames_per_point": 1,
                                "phy_backend": "surrogate"})
        assert [r.params["phy_backend"] for r in results] == \
            ["full", "surrogate"]

    def test_surrogate_and_full_cache_separately(self, tmp_path):
        overrides = {"payload_bits": 104, "frames_per_point": 1}
        runner = Runner(cache_dir=str(tmp_path))
        full = runner.run("fig07", {**overrides, "phy_backend": "full"})
        surrogate = runner.run("fig07", {**overrides,
                                         "phy_backend": "surrogate"})
        assert not full.cached
        assert not surrogate.cached      # distinct cache entries

    def test_unknown_backend_surfaces_from_experiment(self):
        spec = get_experiment("fig07")
        with pytest.raises(ValueError, match="available"):
            spec.fn(payload_bits=104, frames_per_point=1,
                    phy_backend="bogus")

    def test_tcp_experiments_declare_backend(self):
        for name in ("fig13", "fig16"):
            assert "phy_backend" in get_experiment(name).params

    def test_surrogate_hash_tracks_calibration_table(self, monkeypatch):
        """Recalibrating must invalidate cached surrogate results."""
        import repro.phy.calibration as calibration

        spec = get_experiment("fig07")
        monkeypatch.setattr(calibration, "default_fingerprint",
                            lambda: "aaaa")
        before = spec.scenario({"phy_backend": "surrogate"}).content_hash()
        monkeypatch.setattr(calibration, "default_fingerprint",
                            lambda: "bbbb")
        after = spec.scenario({"phy_backend": "surrogate"}).content_hash()
        assert before != after
        # The full backend does not depend on the table.
        monkeypatch.setattr(calibration, "default_fingerprint",
                            lambda: "aaaa")
        full_a = spec.scenario({"phy_backend": "full"}).content_hash()
        monkeypatch.setattr(calibration, "default_fingerprint",
                            lambda: "bbbb")
        assert spec.scenario({"phy_backend": "full"}).content_hash() \
            == full_a


@register_experiment(
    "api-fragile",
    description="throwaway experiment that fails on demand",
    params={"boom": 0, "seed": 1})
def _run_fragile(boom=0, seed=1):
    """Raises when asked; the execution-error wrapping fixture."""
    if boom:
        raise ZeroDivisionError("requested failure")
    return {"value": float(seed)}


class TestExecutionError:
    def test_execute_task_wraps_failures_with_context(self):
        with pytest.raises(ExperimentExecutionError) as info:
            execute_task("api-fragile", __name__,
                         {"boom": 1, "seed": 7})
        err = info.value
        assert err.experiment == "api-fragile"
        assert "ZeroDivisionError" in str(err)
        assert "requested failure" in err.traceback_text
        assert isinstance(err.__cause__, ZeroDivisionError)

    def test_execute_task_success_untouched(self):
        metrics = execute_task("api-fragile", __name__,
                               {"boom": 0, "seed": 7})
        assert metrics["value"] == 7.0

    def test_pickle_roundtrip_preserves_attribution(self):
        err = ExperimentExecutionError("msg", experiment="cell",
                                       traceback_text="tb lines")
        clone = pickle.loads(pickle.dumps(err))
        assert str(clone) == "msg"
        assert clone.experiment == "cell"
        assert clone.traceback_text == "tb lines"

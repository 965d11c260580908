"""Unified experiment API: specs, a registry, and a runner.

Every paper reproduction (``figXX``/``tabXX`` module) declares itself
with :func:`register_experiment`, providing a declarative
:class:`ExperimentSpec` — name, description, parameter space with
defaults, and the algorithms involved.  A concrete
parameterization is a :class:`Scenario`.  :func:`run` executes one
in-process; :class:`Runner` executes a fan of seed replicates and
sweep points as a campaign (:mod:`repro.campaigns`), so its results
are cached per replicate in the campaign result store.  Both yield a
uniform :class:`ExperimentResult` that serializes to JSON or ``.npz``.

Entry points::

    from repro.experiments.api import run, Runner, list_experiments

    run("fig13")                        # defaults, in-process
    run("fig13", duration=2.0)          # validated overrides
    Runner(jobs=4).run("fig13", seeds=[1, 2, 3, 4])   # parallel fan

The CLI (``repro list`` / ``repro run`` / ``repro sweep``) is a thin
shell over the same calls.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.analysis.aggregate import aggregate_metrics

__all__ = ["ExperimentSpec", "Scenario", "ExperimentResult", "Runner",
           "register_experiment", "get_experiment", "experiment_names",
           "list_experiments", "load_all", "run", "derive_seeds",
           "execute_task", "UnknownParameterError",
           "UnknownExperimentError", "ExperimentExecutionError"]

#: Bump to invalidate previously cached results on disk.
CACHE_VERSION = 1

#: Modules that self-register an experiment on import; ``load_all``
#: imports them so the registry is complete in any process.
_EXPERIMENT_MODULES = (
    "cell", "fig01_channel", "fig03_hints", "fig05_crossrate",
    "fig07_static", "fig08_mobile", "fig10_interference",
    "fig13_slow_fading", "fig15_convergence", "fig16_fast_fading",
    "fig17_interference", "mesh", "tab01_silent", "tab02_rates",
    "video",
)


class UnknownParameterError(ValueError):
    """An override names a parameter the spec does not declare."""


class UnknownExperimentError(KeyError):
    """The requested name is not in the experiment registry."""


class ExperimentExecutionError(RuntimeError):
    """An experiment function raised while executing a scenario.

    Wraps the underlying exception with the experiment name and the
    worker-side traceback text, so failures crossing a process-pool
    boundary stay attributable — the parent sees *which* experiment
    broke and *how*, not just a bare re-raised exception.  Picklable
    by construction (``__reduce__``) because process pools must ship
    it back to the parent intact.  :class:`Runner` raises it, at any
    ``jobs``, for a replicate that still failed (or whose worker
    died) after its retries, carrying the error and traceback the
    campaign engine recorded in its quarantine.
    """

    def __init__(self, message: str, experiment: Optional[str] = None,
                 traceback_text: str = ""):
        super().__init__(message)
        #: Name of the experiment whose function raised.
        self.experiment = experiment
        #: Formatted worker-side traceback of the original error.
        self.traceback_text = traceback_text

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.experiment,
                                 self.traceback_text))


def _canonical(value: Any) -> Any:
    """Reduce a parameter value to a JSON-stable representation.

    Non-finite floats become ``null`` so the output is strict JSON
    (``json.dumps`` would otherwise emit the non-standard ``NaN``).
    Mapping keys are encoded by :func:`_canonical_key`.
    """
    if isinstance(value, Mapping):
        items = sorted(((_canonical_key(k), v) for k, v in value.items()),
                       key=lambda item: item[0])
        return {key: _canonical(v) for key, v in items}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.generic):
        return _canonical(value.item())
    if isinstance(value, np.ndarray):
        return [_canonical(v) for v in value.tolist()]
    if isinstance(value, float) and not np.isfinite(value):
        return None if np.isnan(value) else \
            ("inf" if value > 0 else "-inf")
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _canonical_key(key: Any) -> str:
    """A mapping key as a JSON object key: a ``str`` stays itself, any
    other key becomes its type name, ``:`` and its canonical JSON
    (``1`` -> ``"int:1"``, ``None`` -> ``"NoneType:null"``), so keys
    of different types no longer merge.  Canonical output maps to
    itself, which the store's CRC check relies on; so a mapping and
    its own canonical form, ``{1: 0}`` and ``{"int:1": 0}``, are one
    parameterization."""
    if isinstance(key, np.generic):
        key = key.item()
    if isinstance(key, str):
        return key
    return f"{type(key).__name__}:{_canonical_json(key)}"


def _decode_metrics(data: Mapping[str, Any]) -> Dict[str, float]:
    """Invert ``_canonical`` for a metric dict (``null`` -> NaN,
    ``"inf"``/``"-inf"`` -> infinities)."""
    return {str(k): float("nan") if v is None else float(v)
            for k, v in data.items()}


def _canonical_json(value: Any) -> str:
    return json.dumps(_canonical(value), sort_keys=True,
                      separators=(",", ":"))


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one reproducible experiment.

    ``params`` is the parameter space: every overridable knob with its
    default value.  ``run()``/``Runner`` reject overrides outside this
    space, so a spec doubles as the experiment's public schema.

    Example::

        spec = get_experiment("fig07")
        spec.scenario({"payload_bits": 256}).execute()
    """

    name: str
    description: str
    fn: Callable[..., Any]
    params: Mapping[str, Any] = field(default_factory=dict)
    algorithms: Tuple[str, ...] = ()
    #: Name of the parameter that seeds the experiment's RNG (``None``
    #: for deterministic experiments).  When the runner fans seed
    #: replicates, it rewrites this parameter per replicate; a
    #: tuple-valued default (e.g. fig13's ``seeds=(1, 2)``) receives a
    #: one-element tuple instead of a scalar.
    seed_param: Optional[str] = "seed"
    metrics: Optional[Callable[[Any], Dict[str, float]]] = None

    def scenario(self, overrides: Optional[Mapping[str, Any]] = None
                 ) -> "Scenario":
        """Validate ``overrides`` and bind a concrete parameterization."""
        overrides = dict(overrides or {})
        unknown = sorted(set(overrides) - set(self.params))
        if unknown:
            raise UnknownParameterError(
                f"{self.name}: unknown parameter(s) {unknown}; "
                f"declared: {sorted(self.params)}")
        merged = dict(self.params)
        merged.update(overrides)
        return Scenario(experiment=self.name, params=merged)

    def extract_metrics(self, raw: Any) -> Dict[str, float]:
        """Flatten a raw result into scalar metrics for aggregation."""
        if self.metrics is not None:
            return {str(k): float(v)
                    for k, v in self.metrics(raw).items()}
        if isinstance(raw, Mapping):
            return {str(k): float(v) for k, v in raw.items()
                    if isinstance(v, (int, float, np.generic))}
        return {}


@dataclass(frozen=True)
class Scenario:
    """One concrete parameterization of a registered experiment.

    Example::

        scenario = get_experiment("fig01").scenario({"duration": 0.5})
        scenario.content_hash()    # stable cache identity
    """

    experiment: str
    params: Dict[str, Any]

    def content_hash(self) -> str:
        """Stable digest of (experiment, params, cache version).

        Surrogate-backend scenarios additionally fold in the
        calibration table's content digest, so ``repro calibrate``
        invalidates their cached results instead of silently serving
        pre-recalibration numbers.
        """
        params = dict(self.params)
        if params.get("phy_backend") == "surrogate":
            from repro.phy.calibration import default_fingerprint
            params["calibration_fingerprint"] = default_fingerprint()
        payload = (f"v{CACHE_VERSION}:{self.experiment}:"
                   f"{_canonical_json(params)}")
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def with_seed(self, seed: Any) -> "Scenario":
        """Rewrite the spec's seed parameter for one replicate."""
        spec = get_experiment(self.experiment)
        if spec.seed_param is None:
            return self
        params = dict(self.params)
        default = spec.params.get(spec.seed_param)
        if isinstance(default, (list, tuple)):
            params[spec.seed_param] = (seed,)
        else:
            params[spec.seed_param] = seed
        return Scenario(experiment=self.experiment, params=params)

    def execute(self) -> Any:
        """Run the experiment function in-process; return its raw result."""
        spec = get_experiment(self.experiment)
        return spec.fn(**self.params)


# --------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------

_REGISTRY: Dict[str, ExperimentSpec] = {}


def register_experiment(name: str, *, description: str = "",
                        params: Optional[Mapping[str, Any]] = None,
                        algorithms: Sequence[str] = (),
                        seed_param: Optional[str] = "seed",
                        metrics: Optional[Callable] = None
                        ) -> Callable[[Callable], Callable]:
    """Class the decorated function as experiment ``name``.

    The function is returned unchanged, so modules keep exporting
    their historical ``run_*`` entry points; the registry simply makes
    the same callable reachable as ``run(name, **overrides)``.

    Example::

        @register_experiment("myexp", description="...",
                             params={"seed": 1})
        def run_myexp(seed=1):
            return {"metric": float(seed)}
    """
    def decorate(fn: Callable) -> Callable:
        existing = _REGISTRY.get(name)
        if existing is not None and existing.fn is not fn:
            raise ValueError(
                f"experiment {name!r} already registered "
                f"by {existing.fn.__module__}")
        _REGISTRY[name] = ExperimentSpec(
            name=name, description=description, fn=fn,
            params=dict(params or {}),
            algorithms=tuple(algorithms), seed_param=seed_param,
            metrics=metrics)
        return fn
    return decorate


def load_all() -> None:
    """Import every experiment module so the registry is complete.

    Idempotent; called automatically by every registry lookup.

    Example::

        load_all()
        len(experiment_names())    # 12
    """
    for module in _EXPERIMENT_MODULES:
        importlib.import_module(f"repro.experiments.{module}")


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered spec, importing modules on first use.

    Raises :class:`UnknownExperimentError` (listing the available
    names) for anything unregistered.

    Example::

        get_experiment("fig13").algorithms    # ("omniscient", ...)
    """
    if name not in _REGISTRY:
        load_all()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownExperimentError(
            f"unknown experiment {name!r}; available: "
            f"{experiment_names()}") from None


def experiment_names() -> List[str]:
    """All registered experiment names, sorted (deterministic order).

    Example::

        experiment_names()[:2]    # ["fig01", "fig03"]
    """
    load_all()
    return sorted(_REGISTRY)


def list_experiments() -> List[ExperimentSpec]:
    """Registered specs in :func:`experiment_names` order — the exact
    row order ``repro list`` prints.

    Example::

        [spec.name for spec in list_experiments()]   # sorted ids
    """
    return [_REGISTRY[name] for name in experiment_names()]


# --------------------------------------------------------------------
# Results
# --------------------------------------------------------------------

@dataclass
class ExperimentResult:
    """Uniform record of one experiment run (possibly seed-fanned).

    ``per_seed`` holds one flat metric dict per replicate;
    ``aggregates`` is their nan-aware mean.  ``raw`` is the
    experiment's native result object, kept only by :func:`run` (a
    :class:`Runner` result is built from stored metrics, so it is
    ``None`` there) and never serialized.

    Example::

        result = run("fig01", duration=0.5)
        result.aggregates["fade_depth_db"]
        result.save("fig01.json")
    """

    experiment: str
    params: Dict[str, Any]
    seeds: List[Any]
    per_seed: List[Dict[str, float]]
    aggregates: Dict[str, float]
    cache_key: str
    elapsed_s: float = 0.0
    cached: bool = field(default=False, compare=False)
    raw: Any = field(default=None, repr=False, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form (non-finite floats become ``null`` /
        ``"inf"`` strings); inverse of :meth:`from_dict`.

        Example::

            run("tab02").to_dict()["experiment"]    # "tab02"
        """
        return {
            "experiment": self.experiment,
            "params": _canonical(self.params),
            "seeds": _canonical(self.seeds),
            "per_seed": _canonical(self.per_seed),
            "aggregates": _canonical(self.aggregates),
            "cache_key": self.cache_key,
            "elapsed_s": self.elapsed_s,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to a strict-JSON string (see :meth:`to_dict`).

        Example::

            path.write_text(result.to_json())
        """
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output (``raw`` is
        not serialized and stays ``None``).

        Example::

            ExperimentResult.from_dict(result.to_dict())
        """
        return cls(experiment=data["experiment"],
                   params=dict(data["params"]),
                   seeds=list(data["seeds"]),
                   per_seed=[_decode_metrics(d)
                             for d in data["per_seed"]],
                   aggregates=_decode_metrics(data["aggregates"]),
                   cache_key=data["cache_key"],
                   elapsed_s=float(data.get("elapsed_s", 0.0)))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Inverse of :meth:`to_json`.

        Example::

            ExperimentResult.from_json(path.read_text()).aggregates
        """
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        """Write the result as ``.json`` or ``.npz`` (by extension)."""
        if path.endswith(".npz"):
            self.save_npz(path)
        else:
            with open(path, "w") as fh:
                fh.write(self.to_json())
                fh.write("\n")

    def save_npz(self, path: str) -> None:
        """Write per-seed metric arrays plus aggregates as ``.npz``
        (full JSON metadata embedded under the ``metadata`` key).

        Example::

            result.save_npz("out.npz")
            np.load("out.npz")["aggregate/mbps"]
        """
        arrays: Dict[str, np.ndarray] = {
            "metadata": np.array(self.to_json(indent=None))}
        keys = sorted({k for d in self.per_seed for k in d})
        for key in keys:
            arrays[f"per_seed/{key}"] = np.array(
                [d.get(key, np.nan) for d in self.per_seed], dtype=float)
        for key, value in self.aggregates.items():
            arrays[f"aggregate/{key}"] = np.array(float(value))
        np.savez(path, **arrays)


def derive_seeds(base_seed: int, n: int) -> List[int]:
    """``n`` deterministic, well-separated seeds from ``base_seed``.

    Example::

        Runner(jobs=4).run("fig05", seeds=derive_seeds(0, 4))
    """
    state = np.random.SeedSequence(base_seed).generate_state(n)
    return [int(s) for s in state]


# --------------------------------------------------------------------
# Runner
# --------------------------------------------------------------------

def execute_task(name: str, module: str,
                 params: Mapping[str, Any]) -> Dict[str, float]:
    """Execute one scenario point; safe inside any worker process.

    ``module`` is the module that registered the experiment: under a
    ``spawn`` start method the child registry starts empty, and
    importing that module re-registers experiments that live outside
    the built-in ``_EXPERIMENT_MODULES`` list.  The campaign engine,
    and so :class:`Runner`, runs every scenario through here,
    in-process or in a pool worker; failures come back wrapped in
    :class:`ExperimentExecutionError` with the worker's traceback.
    """
    load_all()
    if name not in _REGISTRY:
        importlib.import_module(module)
    spec = _REGISTRY[name]
    try:
        return spec.extract_metrics(spec.fn(**dict(params)))
    except Exception as exc:
        import traceback
        raise ExperimentExecutionError(
            f"experiment {name!r} failed: "
            f"{type(exc).__name__}: {exc}",
            experiment=name,
            traceback_text=traceback.format_exc()) from exc


class Runner:
    """Fans seed replicates and sweep points out as one campaign.

    A call becomes a :class:`repro.campaigns.CampaignMatrix` named
    ``run-<experiment>``: the overrides are its base, a sweep adds an
    axis over the swept values and ``seeds`` an axis over the spec's
    seed parameter.  :class:`repro.campaigns.CampaignRunner` executes
    it and its result store is the cache: one record per replicate,
    under ``{cache_dir}/campaigns/`` in ``run-<experiment>-<digest>``.
    A failing replicate is retried (unless it raised a
    ``ValueError``, a rejected parameterization), a dying worker under
    ``jobs > 1`` is replaced, and a rerun executes only the replicates
    that have no record yet.  The cache key is the matrix digest; the
    records are keyed by scenario id, which also folds in the
    surrogate calibration fingerprint, so a recalibration recomputes
    surrogate results.  The PHY backend is an override like any other
    parameter.

    Args:
        jobs: worker processes (1 = run serially in-process; more =
            a supervised pool of that many workers).
        cache_dir: root of the result store (created on first use);
            point it at a throwaway directory to disable caching.

    Example::

        Runner(jobs=4).run("fig07", {"phy_backend": "surrogate"},
                           seeds=[1, 2, 3, 4])
    """

    def __init__(self, jobs: int = 1, cache_dir: str = ".repro-cache"):
        self.jobs = max(int(jobs), 1)
        self.cache_dir = cache_dir

    def run(self, name: str,
            overrides: Optional[Mapping[str, Any]] = None,
            seeds: Optional[Sequence[Any]] = None) -> ExperimentResult:
        """Run one experiment, optionally fanned over ``seeds``.

        Without ``seeds`` the experiment runs once with its declared
        defaults plus ``overrides``; with ``seeds`` one replicate runs
        per entry, each with the spec's seed parameter rewritten
        deterministically, and ``aggregates`` averages the replicates.

        Raises:
            ExperimentExecutionError: a replicate still failed after
                its retries (the replicates that completed stay
                recorded, so a rerun executes only the failed ones).
        """
        return self._fan(name, overrides, seeds)[0]

    def sweep(self, name: str, param: str, values: Iterable[Any],
              overrides: Optional[Mapping[str, Any]] = None,
              seeds: Optional[Sequence[Any]] = None
              ) -> List[ExperimentResult]:
        """Run one experiment across a parameter sweep.

        Every point x seed replicate is one scenario of a single
        campaign, so a cold ``jobs=N`` sweep keeps N workers busy
        across the whole grid; a value of ``param`` beats an override
        of the same key.  Returns one result per value, in order.
        """
        return self._fan(name, overrides, seeds, param, list(values))

    def _fan(self, name: str, overrides: Optional[Mapping[str, Any]],
             seeds: Optional[Sequence[Any]], param: Optional[str] = None,
             values: Sequence[Any] = (None,)) -> List[ExperimentResult]:
        """Execute ``values`` x ``seeds`` as one campaign matrix and
        build one result per value from the store's records."""
        from repro.campaigns import (Axis, CampaignMatrix,
                                     CampaignRunner, ResultStore)

        spec = get_experiment(name)
        seed_param = spec.seed_param
        seed_list = list(seeds) if seeds is not None else None
        if seed_list and seed_param is None:
            raise ValueError(
                f"{name} is deterministic (no seed parameter); "
                "seed replication would repeat identical runs")
        if seed_list and param == seed_param:
            raise ValueError(
                f"cannot sweep {param!r} while fanning seeds: the "
                "replicate fan rewrites that parameter per seed")
        base = dict(overrides or {})
        axes = []
        if param is not None:
            base.pop(param, None)
            axes.append(Axis(param, values))
        seed_values: List[Any] = [None]
        if seed_list:
            base.pop(seed_param, None)
            seed_values = [Scenario(name, {}).with_seed(s)
                           .params[seed_param] for s in seed_list]
            axes.append(Axis(seed_param, seed_values))
        elif seed_param is not None and param != seed_param:
            # Pinned, so the matrix derives no seed of its own.
            base[seed_param] = spec.scenario(base).params[seed_param]
        matrix = CampaignMatrix(name=f"run-{name}", experiment=name,
                                axes=tuple(axes), base=base)
        # Expanding validates every parameterization, so a rejected
        # call leaves nothing on disk.
        scenarios = matrix.expand()
        store = ResultStore(matrix, cache_dir=self.cache_dir)
        before = records = store.load_records()
        if any(s.scenario_id not in before for s in scenarios):
            CampaignRunner(jobs=self.jobs,
                           cache_dir=self.cache_dir).run(matrix)
            records = store.load_records()
        missing = [s for s in scenarios if s.scenario_id not in records]
        if missing:
            quarantine = {e["scenario_id"]: e
                          for e in store.load_quarantine()}
            entry = quarantine.get(missing[0].scenario_id, {})
            raise ExperimentExecutionError(
                f"{len(missing)} of {len(scenarios)} {name} "
                f"scenario(s) failed; {missing[0].scenario_id} after "
                f"{entry.get('attempts', 0)} attempt(s): "
                f"{entry.get('error', 'no error recorded')}",
                experiment=name,
                traceback_text=entry.get("traceback", ""))

        # Axes expand in name order, so scenarios are found by their
        # (value, seed) cell rather than by index.
        def cell(value: Any, seed: Any) -> str:
            return _canonical_json([value, seed])

        by_cell = {cell(s.params[param] if param is not None else None,
                        s.params[seed_param] if seed_list else None): s
                   for s in scenarios}
        results = []
        for value in values:
            point = [by_cell[cell(value, seed)] for seed in seed_values]
            rows = [records[s.scenario_id] for s in point]
            # A seed fan's ``seeds`` replaces the per-replicate seed
            # parameter.
            params = dict(point[0].params)
            if seed_list:
                params.pop(seed_param)
            per_seed = [row["metrics"] for row in rows]
            results.append(ExperimentResult(
                experiment=name, params=params,
                seeds=seed_list if seed_list else [None],
                per_seed=per_seed,
                aggregates=aggregate_metrics(per_seed),
                cache_key=matrix.digest(),
                elapsed_s=sum(row["elapsed_s"] for row in rows),
                cached=all(s.scenario_id in before for s in point)))
        return results


def run(name: str, **overrides: Any) -> ExperimentResult:
    """Run one experiment in-process with defaults plus ``overrides``.

    The returned record keeps the experiment's native result object on
    ``.raw`` — this is the registry-mediated path the historical
    ``run_figXX`` wrappers and the benchmark suite go through.  Nothing
    is cached and no worker process is started; ``cache_key`` is the
    scenario's content hash.
    """
    spec = get_experiment(name)
    scenario = spec.scenario(overrides)
    start = time.perf_counter()
    raw = scenario.execute()
    metrics = spec.extract_metrics(raw)
    return ExperimentResult(
        experiment=name, params=dict(scenario.params), seeds=[None],
        per_seed=[metrics], aggregates=aggregate_metrics([metrics]),
        cache_key=scenario.content_hash(),
        elapsed_s=time.perf_counter() - start, raw=raw)

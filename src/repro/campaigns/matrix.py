"""Declarative scenario matrices and their deterministic expansion.

A :class:`CampaignMatrix` names a registered experiment and a set of
axes over its parameter space.  :meth:`CampaignMatrix.expand` produces
the full scenario list with three hard guarantees the test wall leans
on:

* **Stable ordering** — scenarios come out in one canonical order
  (grid axes sorted by name, values in declared order, random draws
  and replicates innermost), independent of the order axes were
  declared in.  Shard membership is ``index % shards``, so the order
  *is* the sharding contract.
* **Unique identities** — every scenario's ``scenario_id`` is the
  content hash of its full parameterization (the same hash the result
  cache uses), and expansion fails loudly on duplicates.
* **Derived seeds** — each scenario's RNG seed is derived from the
  campaign seed and the scenario's own parameters, never from its
  position in an execution schedule, which is what makes serial,
  pooled and sharded runs bit-identical.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from typing import (Any, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.experiments.api import (_canonical, _canonical_json,
                                   get_experiment)

__all__ = ["Axis", "RandomAxis", "CampaignMatrix", "CampaignScenario",
           "CampaignError", "derive_scenario_seed"]


class CampaignError(ValueError):
    """A matrix is malformed (bad axis, duplicate scenario, ...)."""


def _stable_digest(payload: str, nbytes: int = 8) -> int:
    return int.from_bytes(
        hashlib.sha256(payload.encode()).digest()[:nbytes], "big")


def derive_scenario_seed(campaign_seed: int, scenario_key: str) -> int:
    """Deterministic 63-bit seed for one scenario of one campaign.

    ``scenario_key`` is the canonical JSON identity of the scenario
    within its matrix: its parameters (minus the seed parameter
    itself), plus — for sampled scenarios — the draw index, since two
    draws may round to identical values.  The seed thus depends only
    on *what* the scenario is in the matrix definition — never on its
    shard, execution order, or resume history.
    """
    return _stable_digest(f"seed:{campaign_seed}:{scenario_key}") \
        % (2 ** 63)


@dataclass(frozen=True)
class Axis:
    """One grid axis: a declared parameter crossed over given values.

    Example::

        Axis("protocol", ("softrate", "rraa", "samplerate"))
    """

    name: str
    values: Tuple[Any, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.name:
            raise CampaignError("axis needs a name")
        if not self.values:
            raise CampaignError(f"axis {self.name!r} has no values")
        seen = [_canonical_json(v) for v in self.values]
        if len(set(seen)) != len(seen):
            raise CampaignError(
                f"axis {self.name!r} repeats a value: {self.values}")


@dataclass(frozen=True)
class RandomAxis:
    """One random-sampled axis: uniform draws from ``[low, high]``.

    Each of the matrix's ``samples`` draws assigns a value to *every*
    random axis (joint random search, not a per-axis grid).  Draws are
    a pure function of (campaign seed, axis name, draw index), so they
    survive resumes, resharding and axis reordering unchanged.

    Example::

        RandomAxis("mean_snr_db", 6.0, 24.0)
        RandomAxis("n_clients", 1, 50, integer=True)
    """

    name: str
    low: float
    high: float
    #: Sample ``10**u`` with ``u`` uniform over the bounds' logs.
    log: bool = False
    #: Round the draw to an int (bounds inclusive).
    integer: bool = False

    def __post_init__(self):
        if not self.name:
            raise CampaignError("random axis needs a name")
        if not self.high > self.low:
            raise CampaignError(
                f"random axis {self.name!r}: need high > low")
        if self.log and self.low <= 0:
            raise CampaignError(
                f"random axis {self.name!r}: log scale needs low > 0")

    def draw(self, campaign_seed: int, index: int) -> Any:
        """The axis's value for draw ``index`` of one campaign."""
        unit = _stable_digest(
            f"draw:{campaign_seed}:{self.name}:{index}") / float(2 ** 64)
        lo, hi = (math.log10(self.low), math.log10(self.high)) \
            if self.log else (self.low, self.high)
        value = lo + unit * (hi - lo)
        if self.log:
            value = 10.0 ** value
        if self.integer:
            return int(round(value))
        return float(value)


@dataclass(frozen=True)
class CampaignScenario:
    """One expanded cell of a campaign matrix.

    ``params`` is the complete parameterization (experiment defaults
    merged with the matrix's base overrides and this cell's axis
    assignment, seed already substituted); ``scenario_id`` is its
    result-cache content hash.
    """

    index: int
    scenario_id: str
    experiment: str
    module: str
    params: Dict[str, Any]
    seed: Optional[int]

    def task(self) -> Tuple[str, str, Dict[str, Any]]:
        """The ``execute_task`` argument triple for this scenario."""
        return (self.experiment, self.module, self.params)


@dataclass(frozen=True)
class CampaignMatrix:
    """A declarative scenario matrix over one registered experiment.

    Args:
        name: campaign name (also the checkpoint directory prefix).
        experiment: registered experiment the cells parameterize.
        axes: grid axes, crossed exhaustively.
        random_axes: jointly sampled axes (``samples`` draws).
        samples: number of random draws (requires ``random_axes``).
        base: fixed overrides applied to every cell.
        replicates: copies of every cell differing only in the
            ``replicate`` parameter — and therefore in derived seed.
        seed: campaign seed; the root of every derived quantity.
        description: one-liner for ``repro campaign list``.

    Example::

        CampaignMatrix(
            name="demo", experiment="cell",
            axes=(Axis("protocol", ("softrate", "rraa")),
                  Axis("n_clients", (1, 5, 10))),
            base={"duration": 0.2}, replicates=3, seed=7)
    """

    name: str
    experiment: str
    axes: Tuple[Axis, ...] = ()
    random_axes: Tuple[RandomAxis, ...] = ()
    samples: int = 0
    base: Mapping[str, Any] = field(default_factory=dict)
    replicates: int = 1
    seed: int = 0
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "random_axes",
                           tuple(self.random_axes))
        object.__setattr__(self, "base", dict(self.base))
        if not self.name:
            raise CampaignError("campaign needs a name")
        if self.replicates < 1:
            raise CampaignError("replicates must be >= 1")
        if self.random_axes and self.samples < 1:
            raise CampaignError(
                "random axes need samples >= 1")
        if self.samples and not self.random_axes:
            raise CampaignError("samples given but no random axes")
        names = [a.name for a in self.axes] \
            + [a.name for a in self.random_axes]
        if len(set(names)) != len(names):
            raise CampaignError(f"duplicate axis names in {names}")
        overlap = set(names) & set(self.base)
        if overlap:
            raise CampaignError(
                f"axes {sorted(overlap)} also pinned in base")

    # -- identity -----------------------------------------------------

    def to_manifest(self) -> Dict[str, Any]:
        """JSON description of the matrix (written to the store);
        axis values and ``base`` are in canonical JSON form."""
        return {
            "name": self.name,
            "experiment": self.experiment,
            "description": self.description,
            "axes": {a.name: _canonical(list(a.values))
                     for a in sorted(self.axes, key=lambda a: a.name)},
            "random_axes": {
                a.name: {"low": a.low, "high": a.high, "log": a.log,
                         "integer": a.integer}
                for a in sorted(self.random_axes,
                                key=lambda a: a.name)},
            "samples": self.samples,
            "base": _canonical(self.base),
            "replicates": self.replicates,
            "seed": self.seed,
            "varied": self.varied_parameters(),
        }

    def digest(self) -> str:
        """12-hex-char identity of the matrix *definition*.

        Everything that changes the scenario set changes the digest —
        and nothing else does (axis declaration order, in particular,
        does not).  The checkpoint store keys its directory on this,
        so an edited campaign never resumes from a stale checkpoint.
        """
        manifest = self.to_manifest()
        manifest.pop("description", None)
        return hashlib.sha256(
            _canonical_json(manifest).encode()).hexdigest()[:12]

    def varied_parameters(self) -> List[str]:
        """Names of the parameters that vary across cells (sorted)."""
        names = [a.name for a in self.axes] \
            + [a.name for a in self.random_axes]
        if self.replicates > 1:
            names.append("replicate")
        return sorted(names)

    def total_scenarios(self) -> int:
        """Scenario count without materializing the expansion."""
        total = self.replicates * max(self.samples, 1)
        for axis in self.axes:
            total *= len(axis.values)
        return total

    # -- expansion ----------------------------------------------------

    def expand(self) -> List[CampaignScenario]:
        """Materialize the full scenario list (validated, ordered).

        Raises :class:`CampaignError` on duplicate scenarios and
        propagates the registry's validation errors for axis or base
        names the experiment does not declare.
        """
        spec = get_experiment(self.experiment)
        if self.replicates > 1:
            pinned = set(self.base) | {a.name for a in self.axes} \
                | {a.name for a in self.random_axes}
            if spec.seed_param is None or spec.seed_param in pinned:
                raise CampaignError(
                    f"{self.name}: replicates only vary the derived "
                    f"seed, but {self.experiment}'s seed parameter "
                    f"is "
                    + ("not declared" if spec.seed_param is None
                       else "pinned by the matrix")
                    + " — every replicate would repeat an identical "
                    "simulation")
        grid_axes = sorted(self.axes, key=lambda a: a.name)
        draws: List[Dict[str, Any]] = [{}]
        if self.random_axes:
            draws = [{axis.name: axis.draw(self.seed, i)
                      for axis in self.random_axes}
                     for i in range(self.samples)]
        replicate_values: Sequence[Any] = range(self.replicates) \
            if self.replicates > 1 else (None,)

        scenarios: List[CampaignScenario] = []
        seen: Dict[str, int] = {}
        value_grid = itertools.product(
            *[axis.values for axis in grid_axes])
        for cell_values in value_grid:
            assignment = {axis.name: value for axis, value
                          in zip(grid_axes, cell_values)}
            for draw_index, draw in enumerate(draws):
                for replicate in replicate_values:
                    overrides = dict(self.base)
                    overrides.update(assignment)
                    overrides.update(draw)
                    if replicate is not None:
                        overrides["replicate"] = replicate
                    scenario = spec.scenario(overrides)
                    seed = None
                    if spec.seed_param is not None and \
                            spec.seed_param not in overrides:
                        params = {k: v
                                  for k, v in scenario.params.items()
                                  if k != spec.seed_param}
                        # Sampled scenarios additionally carry their
                        # draw index: two draws may legitimately
                        # produce the same values (an integer axis
                        # rounds a narrow range), and like replicates
                        # they must then differ in seed, not abort
                        # the expansion.
                        if self.random_axes:
                            key = _canonical_json(
                                {"draw": draw_index,
                                 "params": params})
                        else:
                            key = _canonical_json(params)
                        seed = derive_scenario_seed(self.seed, key)
                        scenario = scenario.with_seed(seed)
                    sid = scenario.content_hash()
                    if sid in seen:
                        raise CampaignError(
                            f"{self.name}: scenarios "
                            f"{seen[sid]} and {len(scenarios)} expand "
                            f"to the same parameterization ({sid})")
                    seen[sid] = len(scenarios)
                    scenarios.append(CampaignScenario(
                        index=len(scenarios), scenario_id=sid,
                        experiment=self.experiment,
                        module=spec.fn.__module__,
                        params=dict(scenario.params), seed=seed))
        return scenarios

"""Reproductions of every table and figure in the paper's evaluation.

One module per experiment.  Each module keeps its historical ``run_*``
entry point and registers a declarative :class:`ExperimentSpec` with
the unified experiment API (:mod:`repro.experiments.api`), so the same
code is reachable three ways::

    from repro.experiments.fig13_slow_fading import run_fig13
    run_fig13(duration=2.0)                    # historical wrapper

    from repro.experiments import run
    run("fig13", duration=2.0).raw             # registry-mediated

    python -m repro run fig13 --set duration=2.0   # CLI

``Runner`` adds seed fan-out and sweeps on top: it executes them as a
campaign (:mod:`repro.campaigns`), whose supervised pool and result
store also serve as its executor and cache.
"""

from repro.experiments.api import (ExperimentResult, ExperimentSpec,
                                   Runner, Scenario, experiment_names,
                                   get_experiment, list_experiments,
                                   load_all, register_experiment, run)

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "Runner",
    "Scenario",
    "experiment_names",
    "get_experiment",
    "list_experiments",
    "load_all",
    "register_experiment",
    "run",
]

"""Shared benchmark plumbing.

Every benchmark regenerates one table or figure of the paper, prints
the rows/series the paper reports (visible with ``pytest -s`` and in
the captured output), and asserts the qualitative *shape* — who wins,
by roughly what factor, where crossovers fall.  Absolute numbers are
not expected to match the authors' testbed.

Benchmarks run each experiment exactly once (``rounds=1``): the
measured quantity is the experiment's wall time, and the printed table
is its scientific output.
"""

from __future__ import annotations

import sys


def emit(title: str, body: str) -> None:
    """Print a labelled result block (shown with -s / on failure)."""
    print(f"\n=== {title} ===", file=sys.stderr)
    print(body, file=sys.stderr)


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def run_experiment(benchmark, name, **overrides):
    """Run a registered experiment once through the unified registry.

    Returns the experiment's native result object (``.raw``), so the
    benchmark's shape assertions read exactly as before the registry
    existed.
    """
    from repro.experiments.api import run

    return run_once(benchmark, run, name, **overrides).raw

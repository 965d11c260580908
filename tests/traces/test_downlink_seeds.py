"""Downlink trace seeds never alias the uplinks.

fig13, fig17 and ``repro simulate --workload tcp`` seed downlink ``i``
at ``seed + 50 + i`` while the generators seed uplink ``i`` at
``seed + i``: from 51 clients on, uplink 50 and downlink 0 would be
one trace.  Each entry point must refuse such a client count, and
keep today's seeds up to the limit.  ``link_traces`` is stubbed with
short constant traces, so only the seeds are real.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import fig13_slow_fading, fig17_interference
from repro.experiments.common import protocol_factory
from repro.traces import workloads
from repro.traces.synthetic import constant_trace
from repro.traces.workloads import (DOWNLINK_SEED_OFFSET, downlink_seed,
                                    link_traces)


class _StubTraces:
    """A trace generator that records the seeds it is asked for."""

    def __init__(self):
        self.seeds = []

    def __call__(self, _channel, n_links, seed, *_args, **_kwargs):
        self.seeds.append(seed)
        return [constant_trace(best_rate=3, duration=0.2)] * n_links


def test_the_offset_is_the_limit():
    assert DOWNLINK_SEED_OFFSET == 50
    assert downlink_seed(7, 50) == 57
    with pytest.raises(ValueError, match="limited to 50 clients"):
        downlink_seed(7, 51)


def test_the_limit_is_where_traces_alias():
    up = link_traces("walking", 51, 3, 0.05)
    down = link_traces("walking", 51, 3 + 50, 0.05)
    assert np.array_equal(up[50].snr_db, down[0].snr_db)
    assert not np.array_equal(up[49].snr_db, down[0].snr_db)


def test_fig13(monkeypatch):
    stub = _StubTraces()
    monkeypatch.setattr(fig13_slow_fading, "link_traces", stub)
    algorithms = [("SoftRate", protocol_factory("softrate"))]
    with pytest.raises(ValueError, match="'cell' experiment"):
        fig13_slow_fading.run_fig13(client_counts=(1, 51),
                                    algorithms=algorithms)
    assert stub.seeds == []                     # refused before any
    result = fig13_slow_fading.run_fig13(
        client_counts=(50,), duration=0.01, seeds=(1,), trace_seed=9,
        algorithms=algorithms)
    assert sorted(stub.seeds) == [9, 59]
    assert result.client_counts == [50]


def test_fig17(monkeypatch):
    stub = _StubTraces()
    monkeypatch.setattr(fig17_interference, "link_traces", stub)
    with pytest.raises(ValueError, match="limited to 50 clients"):
        fig17_interference.run_fig17(n_clients=51)
    assert stub.seeds == []
    result = fig17_interference.run_fig17(
        cs_probabilities=(1.0,), n_clients=50, duration=0.01,
        trace_seed=17, accuracy_cs=1.0)
    assert stub.seeds == [17, 67]
    assert result.cs_probabilities == [1.0]


def test_simulate_cli(monkeypatch, capsys):
    stub = _StubTraces()
    monkeypatch.setattr(workloads, "link_traces", stub)
    assert main(["simulate", "--clients", "51", "--duration", "0.1"]) == 2
    assert "error: 51 clients would alias" in capsys.readouterr().err
    assert stub.seeds == []
    assert main(["simulate", "--clients", "50", "--duration", "0.01",
                 "--seed", "4"]) == 0
    assert stub.seeds == [4, 54]
    assert "(50 clients)" in capsys.readouterr().out

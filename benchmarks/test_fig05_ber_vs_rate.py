"""Fig. 5: BER at QPSK 3/4 vs BER at the other bit rates.

Expected shape: per-snapshot BER is monotone across rates (the paper
measures 96% of 5 ms cycles monotonic), and adjacent rates are
separated by at least an order of magnitude within the usable band —
the two observations SoftRate's prediction heuristic rests on.
"""

from conftest import emit, run_experiment

from repro.analysis.tables import format_table


def test_fig5_cross_rate_structure(benchmark):
    data = run_experiment(benchmark, "fig05", seed=5)

    rows = []
    for rate in sorted(data.pairs):
        sep = data.median_separation_decades(rate)
        rows.append([data.rate_names[rate],
                     f"{sep:+.2f}" if sep == sep else "-"])
    monotone = data.monotone_fraction()
    rows.append(["monotone snapshots", f"{monotone:.0%}"])
    emit("Fig. 5: median BER separation vs QPSK 3/4 (decades)",
         format_table(["rate", "separation"], rows))

    # Observation 1: monotone in the large majority of snapshots.
    # The paper measures 96%; our traces sample the receiver-impairment
    # jitter independently per rate (the paper's round-robin shares one
    # hardware state across a 5 ms cycle), which costs some
    # monotonicity.
    assert monotone > 0.75
    # Observation 2: adjacent rates at least ~an order of magnitude
    # apart (our simulated channel is steeper than the paper's
    # hardware: >= 1 decade, typically 2-4).
    below = data.median_separation_decades(2)
    above = data.median_separation_decades(4)
    assert below < -1.0
    assert above > 1.0
    # Two rates away: strictly more separated.
    assert data.median_separation_decades(1) < below
    assert data.median_separation_decades(5) > above

"""Figs. 10 & 11: interference detection accuracy.

Expected shape: across relative interferer powers (0 to -4 dB) and
across the sender's bit rates, more than ~80% of frames received with
bit errors are identified as collisions (paper: "always identify more
than 80%"); weak interferers (-8, -15 dB) barely cause errors at all;
and fading-only losses are rarely misflagged (paper <1%; ours a few
percent).
"""

import numpy as np
from conftest import emit, run_once

from repro.analysis.tables import format_table
from repro.experiments.api import run
from repro.experiments.fig10_interference import run_false_positives


def _run_all():
    by_power, by_rate = run("fig10", seed=10, n_frames=25).raw
    fp_walk = run_false_positives(seed=11, n_frames=40,
                                  doppler_hz=40.0)
    return by_power, by_rate, fp_walk


def test_fig10_fig11_interference_detection(benchmark):
    by_power, by_rate, (fp, errored) = run_once(benchmark, _run_all)

    rows = [[f"{rel:+.0f}", acc.errored_frames,
             f"{acc.accuracy:.0%}" if acc.errored_frames else "-",
             acc.clean_frames]
            for rel, acc in by_power.items()]
    emit("Fig. 10: detection accuracy vs relative interferer power",
         format_table(["power (dB)", "errored", "accuracy", "clean"],
                      rows))
    rows11 = [[f"rate {ri}", acc.errored_frames,
               f"{acc.accuracy:.0%}" if acc.errored_frames else "-"]
              for ri, acc in by_rate.items()]
    emit("Fig. 11: detection accuracy vs sender bit rate",
         format_table(["rate", "errored", "accuracy"], rows11))
    emit("Section 5.3 false positives",
         f"{fp}/{errored} fading-only losses flagged as collisions")

    # Strong interferers: errored frames flagged >= 80%.
    for rel in (0.0, -2.0):
        acc = by_power[rel]
        assert acc.errored_frames >= 10
        assert acc.accuracy >= 0.7
    # Weak interferers rarely corrupt frames at all.
    assert by_power[-15.0].errored_frames <= 2
    # Across bit rates, strong interference is detected most of the
    # time (mid/high rates >= 80%, robust rates may be lower since the
    # code corrects much of the interference).
    accs = [a.accuracy for a in by_rate.values() if a.errored_frames]
    assert np.mean(accs) >= 0.6
    assert max(accs) >= 0.8
    # False positives stay a small minority.
    assert fp / errored < 0.3

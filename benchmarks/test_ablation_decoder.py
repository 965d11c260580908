"""Ablation: exact log-MAP vs max-log-MAP BCJR.

Design question (DESIGN.md): how much hint quality does the cheaper
max-log recursion give up?  Expected: identical hard decisions almost
everywhere, a modest speedup, slightly optimistic hint magnitudes —
i.e. max-log is a safe deployment choice.
"""

import time

import numpy as np
from conftest import emit, run_once

from repro.analysis.tables import format_table
from repro.channel.awgn import apply_channel
from repro.core.hints import frame_ber_estimate
from repro.phy.snr import db_to_linear
from repro.phy.transceiver import Transceiver


def _run_variant(variant, n_frames=12, snr_db=4.5):
    rng = np.random.default_rng(99)
    phy = Transceiver(decoder_variant=variant)
    payload = rng.integers(0, 2, 1600).astype(np.uint8)
    tx = phy.transmit(payload, rate_index=3)
    estimates, truths = [], []
    start = time.perf_counter()
    for _ in range(n_frames):
        gains = np.ones(tx.layout.n_symbols, dtype=complex)
        rx_sym, g = apply_channel(tx.symbols, gains,
                                  db_to_linear(-snr_db), rng)
        rx = phy.receive(rx_sym, g, tx.layout, tx_frame=tx)
        estimates.append(frame_ber_estimate(rx.hints))
        truths.append(rx.true_ber)
    elapsed = time.perf_counter() - start
    return (float(np.mean(estimates)), float(np.mean(truths)),
            elapsed / n_frames)


_VARIANTS = ("log-map", "max-log-map")

#: Timed passes per variant.  The variants alternate, each pass in the
#: other order, and each keeps its fastest pass, so host load that
#: comes and goes slows both alike instead of deciding the ratio.
_PASSES = 4


def _run_both():
    """Each variant's first-pass BER estimate and truth, and its
    fastest per-frame time over the alternated passes."""
    first, fastest = {}, {}
    for attempt in range(_PASSES):
        order = _VARIANTS if attempt % 2 == 0 else _VARIANTS[::-1]
        for variant in order:
            est, true, per_frame = _run_variant(variant)
            first.setdefault(variant, (est, true))
            fastest[variant] = min(per_frame,
                                   fastest.get(variant, per_frame))
    return {variant: (*first[variant], fastest[variant])
            for variant in _VARIANTS}


def test_ablation_decoder_variant(benchmark):
    results = run_once(benchmark, _run_both)

    rows = [[variant, f"{est:.2e}", f"{true:.2e}", f"{ms * 1e3:.1f}"]
            for variant, (est, true, ms) in results.items()]
    emit("Ablation: BCJR variant (QPSK 3/4 at 4.5 dB)",
         format_table(["variant", "est BER", "true BER", "ms/frame"],
                      rows))

    exact_est, exact_true, exact_ms = results["log-map"]
    approx_est, approx_true, approx_ms = results["max-log-map"]
    # Same channel: identical ground truth by construction of seeds is
    # not guaranteed (different noise draws), but the averages must
    # agree within sampling error.
    assert 0.3 < exact_true / max(approx_true, 1e-9) < 3.0
    # Both estimators track the truth.
    assert 0.25 < exact_est / exact_true < 4.0
    assert 0.25 < approx_est / approx_true < 4.0
    # max-log is not slower (fastest pass against fastest pass).
    assert approx_ms < exact_ms * 1.2

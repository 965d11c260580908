"""Throughput benchmark: batched PHY fast path vs per-frame reference.

Decodes the same stack of fig07-style frames (1600-bit payloads, QPSK
3/4, AWGN across the waterfall region) twice — once frame-by-frame
through ``Transceiver.receive`` and once through the batched
``receive_batch`` — and reports frames/sec for both.  The batched path
must be bit-identical (spot-checked here, exhaustively checked in
``tests/phy/test_batch.py``) and at least 2x faster on a 64-frame
batch: the point of batching is that the Python-level trellis loops
run once per batch instead of once per frame, and a batch that
degenerates into a per-frame loop (~1x) fails.  The floor was 3x
until the BCJR kernel became one butterfly strategy: that made both
paths faster, the per-frame one (the ratio's denominator) about 2.5x
and the batched one about 1.3-1.5x, because a 64-frame decode is
mostly per-element ``logaddexp`` work that batching cannot share.

Set ``REPRO_SMOKE_BENCH=1`` for a seconds-scale smoke run (small batch
and payload, relaxed speedup floor) — used by CI.
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import emit

_SMOKE = os.environ.get("REPRO_SMOKE_BENCH", "") not in ("", "0")

# (n_frames, payload_bits, required speedup)
_N_FRAMES, _PAYLOAD_BITS, _MIN_SPEEDUP = \
    (8, 400, 1.0) if _SMOKE else (64, 1600, 2.0)
_RATE_INDEX = 3                     # QPSK 3/4, the fig07 reference rate
_SNR_RANGE_DB = (4.0, 12.0)         # the rate's waterfall region


def _build_rx_stack(phy, rng):
    """One transmitted frame, _N_FRAMES independent AWGN realisations."""
    from repro.phy.snr import db_to_linear

    payload = rng.integers(0, 2, _PAYLOAD_BITS).astype(np.uint8)
    tx = phy.transmit(payload, rate_index=_RATE_INDEX)
    snrs = np.linspace(*_SNR_RANGE_DB, _N_FRAMES)
    gains = np.ones((_N_FRAMES, tx.layout.n_symbols), complex)
    rx = np.empty((_N_FRAMES, tx.layout.n_symbols,
                   phy.mode.n_subcarriers), complex)
    noise_vars = np.array([db_to_linear(-s) for s in snrs])
    from repro.channel.awgn import apply_channel
    for i in range(_N_FRAMES):
        rx[i], _ = apply_channel(tx.symbols, gains[i],
                                 float(noise_vars[i]), rng)
    return tx, rx, gains


def test_batched_receive_speedup():
    from repro.phy.transceiver import Transceiver

    phy = Transceiver()
    rng = np.random.default_rng(2009)
    tx, rx, gains = _build_rx_stack(phy, rng)

    # Warm every lru_cache / lazy import outside the timed regions.
    phy.receive(rx[0], gains[0], tx.layout, tx_frame=tx)
    phy.receive_batch(rx[:1], gains[:1], tx.layout, tx=tx)

    def best_of(n, fn):
        """Best wall time of ``n`` runs (shields the ratio from one-off
        scheduler noise); returns (seconds, last result)."""
        best, result = float("inf"), None
        for _ in range(n):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return best, result

    scalar_s, scalar = best_of(2, lambda: [
        phy.receive(rx[i], gains[i], tx.layout, tx_frame=tx)
        for i in range(_N_FRAMES)])
    batched_s, batched = best_of(2, lambda: phy.receive_batch(
        rx, gains, tx.layout, tx=tx))

    # Bit-identical outputs (the regression suite is the full check).
    for ref, got in zip(scalar, batched):
        assert np.array_equal(ref.llrs, got.llrs)
        assert ref.true_ber == got.true_ber

    scalar_fps = _N_FRAMES / scalar_s
    batched_fps = _N_FRAMES / batched_s
    speedup = batched_fps / scalar_fps
    emit("PHY batch throughput "
         f"({_N_FRAMES} frames, {_PAYLOAD_BITS}-bit payloads"
         f"{', smoke' if _SMOKE else ''})",
         f"per-frame: {scalar_fps:8.1f} frames/s "
         f"({scalar_s * 1e3:7.1f} ms)\n"
         f"batched:   {batched_fps:8.1f} frames/s "
         f"({batched_s * 1e3:7.1f} ms)\n"
         f"speedup:   {speedup:.1f}x")
    assert speedup >= _MIN_SPEEDUP, (
        f"batched path only {speedup:.2f}x the per-frame path "
        f"(required {_MIN_SPEEDUP}x)")

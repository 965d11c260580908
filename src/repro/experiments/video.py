"""The ``video`` experiment: rateless-over-PPR vs plain ARQ streaming.

One deadline-annotated GoP video workload
(:mod:`repro.traces.video`) is streamed over one fading link under
two delivery schemes sharing the same packet size, bit rate, and
channel — so airtime per transmission is identical and the schemes
differ only in what a transmission is worth:

* ``arq`` — plain 802.11-style delivery: each video frame is
  segmented into packets, every packet is retransmitted until its CRC
  passes (bounded retries), and a frame is decodable only when all
  its packets arrived.
* ``rateless`` — each video frame becomes a fountain-symbol stream
  (:mod:`repro.recovery.rateless`); the sender never retransmits,
  it just keeps sending fresh symbols.  Symbols from CRC-verified
  packets count with weight 1.0; packets that failed their CRC are
  *salvaged* PPR-style — each symbol-aligned chunk whose SoftPHY
  hint confidence is high enough joins the decode with its
  probability of being error-free as weight.

QoE comes out through :mod:`repro.analysis.metrics`:
``decodable_frame_rate``, cascading ``rebuffer_time``, and
``deadline_miss_ratio``, per scheme, plus the airtime each scheme
actually spent — the acceptance comparison is decodable frames at
equal-or-less airtime.

Every decode is verified bit-exact against the sent frame; a decode
poisoned by a confidently-wrong salvaged chunk counts as *not*
decodable (and is reported in ``rateless/poisoned_frames``).
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.analysis.metrics import (deadline_miss_ratio,
                                    decodable_frame_rate,
                                    rebuffer_time)
from repro.core.hints import error_probabilities
from repro.experiments.api import register_experiment
from repro.phy.backend import get_backend
from repro.recovery.rateless import (RatelessDecoder, RatelessEncoder,
                                     salvage_symbols)
from repro.traces.video import generate_video_trace, reference_video_trace
from repro.traces.workloads import link_traces

__all__ = ["run_video", "VIDEO_SCHEMES", "VIDEO_SCENARIOS"]

VIDEO_SCHEMES = ("rateless", "arq", "both")
VIDEO_SCENARIOS = ("fading", "walking")

#: Trajectory sample points per packet airtime (matches
#: :meth:`repro.phy.backend.PhyBackend.observe`).
_SNR_SAMPLES = 8


def _frame_bits(seed: int, index: int, size_bits: int) -> np.ndarray:
    """The deterministic content of video frame ``index``."""
    rng = np.random.default_rng((seed, 91, index))
    return rng.integers(0, 2, size_bits).astype(np.uint8)


def _trajectory(trace, time: float, airtime: float) -> np.ndarray:
    """The trace's true-SNR trajectory across one packet's airtime."""
    times = time + np.linspace(0.0, airtime, _SNR_SAMPLES)
    slots = (times / trace.slot_duration).astype(np.int64) \
        % trace.n_slots
    source = trace.true_snr_db if trace.true_snr_db is not None \
        else trace.snr_db
    return np.asarray(source, dtype=np.float64)[slots]


class _Streamer:
    """Shared transmission bookkeeping for both schemes."""

    def __init__(self, backend, trace, rate_index: int,
                 payload_bits: int, rng: np.random.Generator,
                 window: float):
        self.backend = backend
        self.trace = trace
        self.rate_index = rate_index
        self.payload_bits = payload_bits
        self.rng = rng
        self.window = window
        self.airtime_per_packet = backend.frame_airtime(payload_bits,
                                                        rate_index)
        self.time = 0.0
        self.airtime = 0.0
        self.packets = 0

    def can_send(self, limit: float) -> bool:
        """One more packet fits before both ``limit`` and the window."""
        end = self.time + self.airtime_per_packet
        return end <= self.window and self.time <= limit

    def send(self, need_hints: bool = False,
             need_error_mask: bool = False):
        """Transmit one packet now; advance time and airtime."""
        trajectory = _trajectory(self.trace, self.time,
                                 self.airtime_per_packet)
        out = self.backend.frame_outcome(
            self.rate_index, trajectory, self.payload_bits, self.rng,
            need_hints=need_hints, need_error_mask=need_error_mask)
        self.time += self.airtime_per_packet
        self.airtime += self.airtime_per_packet
        self.packets += 1
        return out


def _frame_budget(size_bits: int, payload_bits: int,
                  budget_factor: float) -> int:
    """Per-frame packet budget, identical for both schemes: the
    frame's ideal packet count times ``budget_factor``."""
    ideal = -(-size_bits // payload_bits)
    return max(int(np.ceil(budget_factor * ideal)), 1)


def _run_arq(video, streamer: _Streamer, payload_bits: int,
             abandon_slack: float, budget_factor: float,
             max_attempts: int, seed: int):
    """Stream the workload under plain per-packet ARQ."""
    decode_times = [None] * video.n_frames
    for frame in video.frames:
        limit = frame.deadline + abandon_slack
        if streamer.time > limit:
            continue
        budget = _frame_budget(frame.size_bits, payload_bits,
                               budget_factor)
        n_packets = -(-frame.size_bits // payload_bits)
        delivered_all = True
        for _ in range(n_packets):
            attempts = 0
            delivered = False
            while (not delivered and attempts < max_attempts
                   and budget > 0 and streamer.can_send(limit)):
                out = streamer.send()
                attempts += 1
                budget -= 1
                delivered = out.delivered
            if not delivered:
                delivered_all = False
                break                   # frame lost; stop wasting air
        if delivered_all:
            decode_times[frame.index] = streamer.time
    return decode_times


def _run_rateless(video, streamer: _Streamer, symbol_bits: int,
                  symbols_per_packet: int, abandon_slack: float,
                  budget_factor: float, salvage_max_error_prob: float,
                  overhead: float, seed: int):
    """Stream the workload as fountain symbols with PPR salvage."""
    payload_bits = symbol_bits * symbols_per_packet
    decode_times = [None] * video.n_frames
    poisoned = 0
    salvaged_weight = 0.0
    symbols_received = 0
    for frame in video.frames:
        limit = frame.deadline + abandon_slack
        if streamer.time > limit:
            continue
        budget = _frame_budget(frame.size_bits, payload_bits,
                               budget_factor)
        data = _frame_bits(seed, frame.index, frame.size_bits)
        enc = RatelessEncoder(data, symbol_bits,
                              seed=(seed * 1000003 + frame.index))
        dec = RatelessDecoder(frame.size_bits, symbol_bits,
                              seed=enc.seed, overhead=overhead)
        next_index = 0
        while (not dec.decodable and budget > 0
               and streamer.can_send(limit)):
            budget -= 1
            indices = range(next_index,
                            next_index + symbols_per_packet)
            payload = np.concatenate([enc.symbol(i) for i in indices])
            next_index += symbols_per_packet
            out = streamer.send(need_hints=True, need_error_mask=True)
            if not out.detected:
                continue
            if out.delivered:
                for offset, index in enumerate(indices):
                    dec.add(index, payload[offset * symbol_bits:
                                           (offset + 1) * symbol_bits])
                    symbols_received += 1
                continue
            # PPR-style salvage of the failed packet: the receiver's
            # body estimate is the sent bits with the channel's error
            # positions flipped; chunk confidence comes from the
            # SoftPHY hints over the same positions.
            for chunk in salvage_symbols(
                    payload ^ out.error_mask[:payload_bits],
                    error_probabilities(out.hints)[:payload_bits],
                    symbol_bits, salvage_max_error_prob):
                dec.add(indices[chunk.chunk], chunk.bits,
                        weight=chunk.weight)
                salvaged_weight += chunk.weight
                symbols_received += 1
        if dec.decodable:
            decoded = dec.decode()
            if decoded is not None and np.array_equal(decoded, data):
                decode_times[frame.index] = streamer.time
            else:
                poisoned += 1
    return decode_times, poisoned, salvaged_weight, symbols_received


def _digest(decode_times) -> int:
    """48-bit content digest of per-frame decode times (determinism
    wall currency, like ``frame_log_digest``)."""
    h = hashlib.sha256()
    for t in decode_times:
        h.update(f"{t!r}\n".encode())
    return int.from_bytes(h.digest()[:6], "big")


def _qoe(prefix: str, video, decode_times, streamer: _Streamer) -> dict:
    deadlines = [f.deadline for f in video.frames]
    return {
        f"{prefix}/decodable_frame_rate":
            decodable_frame_rate(decode_times),
        f"{prefix}/rebuffer_time":
            rebuffer_time(decode_times, deadlines),
        f"{prefix}/deadline_miss_ratio":
            deadline_miss_ratio(decode_times, deadlines),
        f"{prefix}/airtime": streamer.airtime,
        f"{prefix}/packets": float(streamer.packets),
        f"{prefix}/digest": float(_digest(decode_times)),
    }


@register_experiment(
    "video",
    description="rateless-coded video over PPR salvage vs plain ARQ",
    params={"scenario": "fading", "scheme": "both",
            "workload": "reference", "video_duration": 4.0,
            "video_bitrate_bps": 4.8e5, "fps": 30.0, "gop": 15,
            "mean_snr_db": 7.0, "doppler_hz": 200.0, "rate_index": 3,
            "symbol_bits": 256, "symbols_per_packet": 4,
            "salvage_max_error_prob": 1e-3, "overhead": 0.05,
            "abandon_slack": 0.5, "budget_factor": 2.0,
            "max_attempts": 8, "seed": 1,
            "replicate": 0, "phy_backend": "surrogate"},
    algorithms=VIDEO_SCHEMES,
    seed_param="seed")
def run_video(scenario: str = "fading", scheme: str = "both",
              workload: str = "reference", video_duration: float = 4.0,
              video_bitrate_bps: float = 4.8e5, fps: float = 30.0,
              gop: int = 15, mean_snr_db: float = 7.0,
              doppler_hz: float = 200.0, rate_index: int = 3,
              symbol_bits: int = 256, symbols_per_packet: int = 4,
              salvage_max_error_prob: float = 1e-3,
              overhead: float = 0.05, abandon_slack: float = 0.5,
              budget_factor: float = 2.0, max_attempts: int = 8,
              seed: int = 1, replicate: int = 0,
              phy_backend: Optional[str] = "surrogate") -> dict:
    """Stream one video workload under the requested scheme(s).

    Args:
        scenario: link family — ``"fading"`` (fig16-style fixed
            Doppler) or ``"walking"`` (fig08-style mobility).
        scheme: ``"rateless"``, ``"arq"``, or ``"both"`` (runs each
            over its own copy of the identical channel and adds the
            comparison metrics).
        workload: ``"reference"`` (the checked-in trace) or
            ``"generated"`` (grown from ``video_duration`` /
            ``video_bitrate_bps`` / ``fps`` / ``gop`` and the seed).
        video_duration / video_bitrate_bps / fps / gop: generated-
            workload knobs (ignored for ``"reference"``).
        mean_snr_db / doppler_hz: fading-scenario channel knobs.
        rate_index: fixed transmit rate for every packet.
        symbol_bits: fountain symbol (= salvage chunk) size.
        symbols_per_packet: symbols per transmitted packet; the packet
            payload is ``symbol_bits * symbols_per_packet`` for both
            schemes, so per-packet airtime is identical.
        salvage_max_error_prob: chunk salvage threshold on mean
            per-bit error probability.
        overhead: rateless decode threshold margin.
        abandon_slack: how long past its deadline the sender keeps
            working on a frame before dropping it.
        budget_factor: per-frame airtime budget for *both* schemes,
            as a multiple of the frame's ideal packet count — the
            equal-airtime knob of the comparison.
        max_attempts: ARQ per-packet retry bound.
        seed: scenario seed (drives channel, workload, and content).
        replicate: diversifies a campaign scenario's derived seed.
        phy_backend: ``"surrogate"`` (default) or ``"full"``.

    Returns:
        Flat ``{metric: float}`` dict with per-scheme
        ``decodable_frame_rate`` / ``rebuffer_time`` /
        ``deadline_miss_ratio`` / ``airtime`` / ``packets`` /
        ``digest``; the rateless side adds ``poisoned_frames``,
        ``salvaged_weight`` and ``symbols_received``; ``"both"`` adds
        ``dfr_gain`` (rateless minus ARQ decodable-frame rate).
    """
    if scenario not in VIDEO_SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; available: "
                         f"{list(VIDEO_SCENARIOS)}")
    if scheme not in VIDEO_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; available: "
                         f"{list(VIDEO_SCHEMES)}")
    if workload not in ("reference", "generated"):
        raise ValueError(f"unknown workload {workload!r}; available: "
                         "['reference', 'generated']")
    if workload == "reference":
        video = reference_video_trace()
    else:
        video = generate_video_trace(
            duration=video_duration, fps=fps, gop=gop,
            mean_bitrate_bps=video_bitrate_bps, seed=seed)
    payload_bits = symbol_bits * symbols_per_packet
    window = video.frames[-1].deadline + abandon_slack
    trace = link_traces(scenario, 1, seed, window + 0.5, mean_snr_db,
                        doppler_hz, payload_bits)[0]
    backend = get_backend(phy_backend or "surrogate")

    out: dict = {}
    schemes = ("rateless", "arq") if scheme == "both" else (scheme,)
    for name in schemes:
        # Each scheme streams over the same trace with its own
        # deterministic draw stream: equal channel, equal airtime
        # per packet, independent noise realisations.
        rng = np.random.default_rng(
            (seed, replicate, 1 if name == "rateless" else 2))
        streamer = _Streamer(backend, trace, rate_index, payload_bits,
                             rng, window)
        if name == "arq":
            times = _run_arq(video, streamer, payload_bits,
                             abandon_slack, budget_factor,
                             max_attempts, seed)
        else:
            times, poisoned, weight, n_sym = _run_rateless(
                video, streamer, symbol_bits, symbols_per_packet,
                abandon_slack, budget_factor, salvage_max_error_prob,
                overhead, seed)
            out["rateless/poisoned_frames"] = float(poisoned)
            out["rateless/salvaged_weight"] = weight
            out["rateless/symbols_received"] = float(n_sym)
        out.update(_qoe(name, video, times, streamer))
    if scheme == "both":
        out["dfr_gain"] = (out["rateless/decodable_frame_rate"]
                           - out["arq/decodable_frame_rate"])
    return out

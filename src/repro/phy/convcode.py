"""The 802.11 rate-1/2 convolutional code with puncturing.

The mother code is the industry-standard constraint-length-7 code with
generator polynomials 133 and 171 (octal).  Higher code rates (2/3 and
3/4) are obtained by puncturing: deleting coded bits in a fixed periodic
pattern that the receiver re-inserts as erasures before decoding.

The trellis structure (state transition and output tables) built here is
shared by both the hard Viterbi decoder (:mod:`repro.phy.viterbi`) and
the soft-output BCJR decoder (:mod:`repro.phy.bcjr`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "ConvolutionalCode",
    "Trellis",
    "PUNCTURE_PATTERNS",
    "puncture",
    "depuncture",
    "n_coded_bits",
    "check_llr_stack",
]

#: Puncturing patterns over the interleaved (out0, out1) coded stream.
#: A 1 keeps the coded bit, a 0 deletes it.  The patterns follow the
#: 802.11a convention: rate 2/3 sends A1 B1 A2 (B2 stolen); rate 3/4
#: sends A1 B1 A2 B3 (B2, A3 stolen).
PUNCTURE_PATTERNS: Dict[Fraction, np.ndarray] = {
    Fraction(1, 2): np.array([1, 1], dtype=bool),
    Fraction(2, 3): np.array([1, 1, 1, 0], dtype=bool),
    Fraction(3, 4): np.array([1, 1, 1, 0, 0, 1], dtype=bool),
}


@dataclass(frozen=True)
class Trellis:
    """Precomputed trellis tables for a rate-1/2 convolutional code.

    Attributes:
        n_states: number of encoder states (``2**(K-1)``).
        next_state: ``(n_states, 2)`` array; ``next_state[s, b]`` is the
            state reached from ``s`` on input bit ``b``.
        outputs: ``(n_states, 2, 2)`` array; ``outputs[s, b]`` holds the
            two coded bits emitted on that transition.
        prev_state: ``(n_states, 2)`` array; predecessors of each state,
            one per input bit value.
        prev_input: companion to ``prev_state`` — the input bit on the
            transition from ``prev_state[s, b]`` to ``s`` (always ``b``
            for this code, kept explicit for clarity).
    """

    n_states: int
    next_state: np.ndarray
    outputs: np.ndarray
    prev_state: np.ndarray
    prev_input: np.ndarray


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


@lru_cache(maxsize=None)
def _build_trellis(constraint_length: int, g0: int, g1: int) -> Trellis:
    """The code's trellis, built once per process and shared read-only
    by every :class:`ConvolutionalCode` with the same generators."""
    n_states = 1 << (constraint_length - 1)
    next_state = np.zeros((n_states, 2), dtype=np.int64)
    outputs = np.zeros((n_states, 2, 2), dtype=np.uint8)
    for state in range(n_states):
        for bit in (0, 1):
            register = (bit << (constraint_length - 1)) | state
            next_state[state, bit] = register >> 1
            outputs[state, bit, 0] = _parity(register & g0)
            outputs[state, bit, 1] = _parity(register & g1)
    prev_state = np.zeros((n_states, 2), dtype=np.int64)
    prev_input = np.zeros((n_states, 2), dtype=np.uint8)
    seen = np.zeros(n_states, dtype=np.int64)
    for state in range(n_states):
        for bit in (0, 1):
            nxt = next_state[state, bit]
            prev_state[nxt, seen[nxt]] = state
            prev_input[nxt, seen[nxt]] = bit
            seen[nxt] += 1
    if not np.all(seen == 2):
        raise AssertionError("trellis is not 2-regular; bad generators")
    for table in (next_state, outputs, prev_state, prev_input):
        table.setflags(write=False)
    return Trellis(n_states=n_states, next_state=next_state,
                   outputs=outputs, prev_state=prev_state,
                   prev_input=prev_input)


class ConvolutionalCode:
    """Rate-1/2 convolutional encoder with optional puncturing.

    Args:
        constraint_length: total memory + 1 (802.11 uses 7).
        generators: the two generator polynomials in octal-style ints.

    The encoder is always terminated: ``constraint_length - 1`` zero
    tail bits are appended so the trellis ends in the all-zero state,
    which both decoders exploit.
    """

    def __init__(self, constraint_length: int = 7,
                 generators: Tuple[int, int] = (0o133, 0o171)):
        if constraint_length < 2:
            raise ValueError("constraint length must be at least 2")
        self.constraint_length = constraint_length
        self.generators = generators
        self.trellis = _build_trellis(constraint_length, *generators)

    @property
    def n_tail_bits(self) -> int:
        """Zero bits appended to terminate the trellis."""
        return self.constraint_length - 1

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        """Encode ``info_bits`` (tail bits appended automatically).

        Returns the rate-1/2 coded stream, interleaved as
        ``[A0, B0, A1, B1, ...]``, of length
        ``2 * (len(info_bits) + n_tail_bits)``.  Thin wrapper over
        :meth:`encode_batch` (the single source of truth).
        """
        info_bits = np.asarray(info_bits, dtype=np.uint8)
        if info_bits.ndim != 1:
            raise ValueError("encode expects a 1-D bit array; "
                             "use encode_batch for frame stacks")
        return self.encode_batch(info_bits[None, :])[0]

    def encode_batch(self, info_bits: np.ndarray) -> np.ndarray:
        """Encode a ``(n_frames, n_info)`` stack of equal-length frames.

        All frames advance through the shift register together: the
        per-bit loop runs once for the whole batch, with the encoder
        state held as a vector of per-frame states.

        Returns the coded streams, shape ``(n_frames, 2 * (n_info +
        n_tail_bits))``, bit-identical to encoding each row alone.
        """
        info_bits = np.asarray(info_bits, dtype=np.uint8)
        if info_bits.ndim != 2:
            raise ValueError("encode_batch expects a 2-D bit array")
        n_frames = info_bits.shape[0]
        bits = np.concatenate(
            [info_bits,
             np.zeros((n_frames, self.n_tail_bits), dtype=np.uint8)],
            axis=1)
        n_steps = bits.shape[1]
        coded = np.empty((n_frames, 2 * n_steps), dtype=np.uint8)
        state = np.zeros(n_frames, dtype=np.int64)
        next_state = self.trellis.next_state
        outputs = self.trellis.outputs
        for i in range(n_steps):
            bit = bits[:, i]
            coded[:, 2 * i] = outputs[state, bit, 0]
            coded[:, 2 * i + 1] = outputs[state, bit, 1]
            state = next_state[state, bit]
        return coded

    def coded_length(self, n_info_bits: int,
                     code_rate: Fraction = Fraction(1, 2)) -> int:
        """Punctured coded length for ``n_info_bits`` information bits."""
        return n_coded_bits(n_info_bits + self.n_tail_bits, code_rate)


def n_coded_bits(n_trellis_steps: int, code_rate: Fraction) -> int:
    """Coded bits surviving puncturing for ``n_trellis_steps`` input bits."""
    pattern = PUNCTURE_PATTERNS[code_rate]
    mother = 2 * n_trellis_steps
    full, rem = divmod(mother, pattern.size)
    return int(full * pattern.sum() + pattern[:rem].sum())


def check_llr_stack(code: ConvolutionalCode, channel_llrs: np.ndarray,
                    decoder: str) -> np.ndarray:
    """Validate a trellis decoder's ``(n_frames, 2 * n_steps)`` input.

    Shared by the BCJR and Viterbi batch kernels.  Returns the LLRs as
    float64; raises ``ValueError`` (naming ``decoder`` for a wrong
    dimensionality) unless the stack is 2-D, of even length, longer
    than the code's tail and finite.  A NaN or infinity would otherwise
    spoil the whole frame's decode (all-NaN BCJR posteriors, a wrong
    Viterbi path) with at most a ``RuntimeWarning``.
    """
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    if llrs.ndim != 2:
        raise ValueError(f"{decoder} expects a 2-D LLR array")
    if llrs.shape[-1] % 2 != 0:
        raise ValueError("channel LLR stream must have even length")
    if llrs.shape[-1] // 2 <= code.n_tail_bits:
        raise ValueError("input shorter than the code's tail")
    finite = np.isfinite(llrs).all(axis=1)
    if not finite.all():
        raise ValueError(f"frame {int(np.argmin(finite))} has non-finite "
                         "channel LLRs (NaN or inf)")
    return llrs


def puncture(coded: np.ndarray, code_rate: Fraction) -> np.ndarray:
    """Delete coded bits according to the pattern for ``code_rate``.

    Accepts a 1-D stream or a ``(n_frames, n_bits)`` stack; the pattern
    applies along the last axis.
    """
    coded = np.asarray(coded)
    pattern = PUNCTURE_PATTERNS[code_rate]
    n = coded.shape[-1]
    reps = -(-n // pattern.size)
    mask = np.tile(pattern, reps)[:n]
    return coded[..., mask]


def depuncture(values: np.ndarray, n_mother_bits: int,
               code_rate: Fraction, fill: float = 0.0) -> np.ndarray:
    """Re-insert punctured positions as erasures.

    Args:
        values: received values (bits or LLRs) for the surviving
            positions, in transmission order.
        n_mother_bits: length of the unpunctured rate-1/2 stream.
        code_rate: the puncturing rate used at the transmitter.
        fill: value for the erased positions (0 = "no information"
            for LLRs, and a neutral value for hard bits).

    Accepts a 1-D stream or a ``(n_frames, n_values)`` stack (erasures
    re-inserted along the last axis); returns a float array whose last
    axis has length ``n_mother_bits``.
    """
    values = np.asarray(values, dtype=np.float64)
    pattern = PUNCTURE_PATTERNS[code_rate]
    reps = -(-n_mother_bits // pattern.size)
    mask = np.tile(pattern, reps)[:n_mother_bits]
    expected = int(mask.sum())
    if values.shape[-1] != expected:
        raise ValueError(
            f"got {values.shape[-1]} values, expected {expected} for "
            f"{n_mother_bits} mother bits at rate {code_rate}")
    out = np.full(values.shape[:-1] + (n_mother_bits,), fill,
                  dtype=np.float64)
    out[..., mask] = values
    return out

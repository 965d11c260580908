"""Hard-output Viterbi decoder for the rate-1/2 convolutional code.

Used for the link header (which never needs soft outputs), as the
conventional receiver baseline, and to cross-check the BCJR decoder:
on the same input, the sign of the BCJR posterior LLRs must agree with
the Viterbi path wherever the LLR magnitude is non-negligible.

The decoder is soft-input: branch metrics are correlations between the
candidate coded bits (bipolar) and the received channel LLRs, so it
accepts the same depunctured LLR stream as :mod:`repro.phy.bcjr`.
Erased (punctured) positions carry LLR 0 and contribute nothing.

Like the BCJR decoder, the implementation is a **batched kernel**
(:func:`viterbi_decode_batch`): a ``(n_frames, n_llrs)`` stack of
equal-length frames advances through every trellis step together, and
the traceback walks all frames' survivor paths in lockstep.
:func:`viterbi_decode` is a thin single-frame wrapper over the same
kernel; both paths are bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.phy.convcode import ConvolutionalCode, check_llr_stack

__all__ = ["viterbi_decode", "viterbi_decode_batch"]

_NEG_INF = -1e30


def viterbi_decode(code: ConvolutionalCode,
                   channel_llrs: np.ndarray) -> np.ndarray:
    """Maximum-likelihood sequence decoding of a terminated stream.

    Args:
        code: the convolutional code (defines the trellis).
        channel_llrs: depunctured channel LLRs for the rate-1/2 coded
            stream, ``log P(r|c=1) - log P(r|c=0)`` per coded bit,
            length ``2 * n_steps``.

    Returns:
        The decoded information bits (tail bits stripped).
    """
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    if llrs.ndim != 1:
        raise ValueError("viterbi_decode expects a 1-D LLR stream; "
                         "use viterbi_decode_batch for frame stacks")
    return viterbi_decode_batch(code, llrs[None, :])[0]


def viterbi_decode_batch(code: ConvolutionalCode,
                         channel_llrs: np.ndarray) -> np.ndarray:
    """Decode a ``(n_frames, n_llrs)`` stack of equal-length streams.

    The add-compare-select loop runs once per trellis step for the
    whole batch (per-frame path metrics stacked along the leading
    axis), and the traceback advances every frame's state pointer in
    lockstep.  Output is bit-identical to decoding each row alone.

    Args:
        code: the convolutional code (defines the trellis).
        channel_llrs: depunctured channel LLRs, shape
            ``(n_frames, 2 * n_steps)``; must be finite.

    Returns:
        Decoded information bits, shape
        ``(n_frames, n_steps - n_tail_bits)``.
    """
    llrs = check_llr_stack(code, channel_llrs, "viterbi_decode_batch")
    n_frames = llrs.shape[0]
    n_steps = llrs.shape[-1] // 2

    trellis = code.trellis
    n_states = trellis.n_states
    prev_state = trellis.prev_state
    prev_input = trellis.prev_input

    # Branch metric of transition (s, b) at time t, as a correlation of
    # the bipolar coded bits with the received LLR pair.  Time-major
    # layout (like repro.phy.bcjr) keeps each step's slab contiguous.
    bipolar = 2.0 * trellis.outputs.astype(np.float64) - 1.0   # (S, 2, 2)
    pairs = llrs.reshape(n_frames, n_steps, 2).transpose(1, 0, 2)
    branch = (bipolar[None, None, :, :, 0] * pairs[:, :, None, None, 0]
              + bipolar[None, None, :, :, 1] * pairs[:, :, None, None, 1])
    branch_flat = branch.reshape(n_steps, n_frames, 2 * n_states)

    enter_col = prev_state * 2 + prev_input
    enter0, enter1 = enter_col[:, 0], enter_col[:, 1]
    pred0, pred1 = prev_state[:, 0], prev_state[:, 1]

    metric = np.full((n_frames, n_states), _NEG_INF)
    metric[:, 0] = 0.0
    # survivors[t, f, s] = which of the two predecessors won at state s.
    survivors = np.empty((n_steps, n_frames, n_states), dtype=np.uint8)
    for t in range(n_steps):
        bf = branch_flat[t]
        cand0 = metric[:, pred0] + bf[:, enter0]
        cand1 = metric[:, pred1] + bf[:, enter1]
        take1 = cand1 > cand0
        survivors[t] = take1
        metric = np.where(take1, cand1, cand0)
        metric -= metric.max(axis=-1, keepdims=True)

    # Terminated trellis: trace back from state 0, all frames at once.
    state = np.zeros(n_frames, dtype=np.int64)
    rows = np.arange(n_frames)
    decoded = np.empty((n_frames, n_steps), dtype=np.uint8)
    for t in range(n_steps - 1, -1, -1):
        which = survivors[t, rows, state]
        decoded[:, t] = prev_input[state, which]
        state = prev_state[state, which]
    return decoded[:, : n_steps - code.n_tail_bits]

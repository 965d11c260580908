"""Soft-output log-MAP (BCJR) decoder — the source of SoftPHY hints.

The BCJR algorithm [Bahl et al. 1974] computes, for every information
bit, the exact a-posteriori log-likelihood ratio

    LLR(k) = log P(x_k = 1 | r) - log P(x_k = 0 | r)

given the received channel observations ``r`` and the code constraints.
The SoftRate paper (section 3.1) defines the SoftPHY hint of bit ``k``
as ``|LLR(k)|`` and derives the per-bit error probability
``p_k = 1 / (1 + exp(|LLR(k)|))`` from it.

Two recursion flavours are provided:

* ``"log-map"`` — exact, using ``logaddexp`` (Jacobian logarithm);
* ``"max-log-map"`` — approximate, replacing log-sum-exp by max;
  faster, with slightly optimistic hint magnitudes (ablated in
  ``benchmarks/test_ablation_decoder.py``).

The decoder is one **batched kernel** (:func:`bcjr_decode_batch`) for
every batch size: a ``(n_frames, n_llrs)`` stack of equal-length frames
advances through the trellis together, the Python loop running once
per trellis step for the whole batch.  :func:`bcjr_decode` is a thin
single-frame wrapper; a batch row and its wrapper decode are
bit-identical.

The kernel rests on the shift-register trellis being a radix-2
butterfly: with ``H = n_states / 2``, state ``s`` moves on input ``b``
to ``b * H + s // 2``, so the forward step computes alpha's state
``b * H + j`` from states ``2j`` and ``2j + 1``.  Stored in bit-reversed
state order, the backward step has exactly that form too, so alpha at
step ``t`` and beta at step ``T - t`` ride in one ``(2, n_states,
n_frames)`` slab.  Stored even states first, the butterfly's inputs
are the slab's two halves, and one step of both recursions is four
ufunc calls on views: one add of every input's branch metric, the
combine, the row max and the normalising subtract.  Frames are the
last axis, so at large batches these run over long contiguous rows.
The four distinct branch metrics of each step are gathered into
butterfly order a block of steps at a time, and the posterior is
combined after the loop, also blockwise, with one row-wise log-sum-exp
over the stacked numerator and denominator scores.

Memory per call is the slab history, ``16 * T * F * S`` bytes for
``T`` steps, ``F`` frames and ``S`` states (107 MB for 64 frames of
1638 steps of the 64-state 802.11 code), plus ``64 * T * F`` bytes of
branch metrics and fixed-size block buffers.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.phy.convcode import ConvolutionalCode, Trellis, check_llr_stack
from repro.phy.logsumexp import logsumexp_rows

__all__ = ["bcjr_decode", "bcjr_decode_batch", "BcjrResult",
           "BcjrBatchResult"]

_NEG_INF = -1e30

#: Trellis (step x frame x state) cells per block of the branch-metric
#: gather and of the posterior combine: a cache budget, not a tuning
#: knob (2**13 to 2**16 cells time within 5% of each other; larger
#: blocks spill out of cache).
_BLOCK_CELLS = 1 << 14

#: The four distinct branch metrics ``c0 * L0 + c1 * L1`` of a step,
#: one per coded-bit pair ``(c0, c1)``, at index ``2 * c0 + c1``.
_C0 = np.array([0.0, 0.0, 1.0, 1.0])
_C1 = np.array([0.0, 1.0, 0.0, 1.0])


class _Butterfly:
    """One code's gather tables for :func:`bcjr_decode_batch`, whose
    metric rows 0-3 are step ``t``'s and 4-7 step ``T - 1 - t``'s and
    whose slab keeps state ``2j + e`` in row ``e * H + j``.

    Attributes:
        step: ``(2, 2, 2, H)`` metric rows ``[e, d, x, k]`` added to
            input ``e`` (0: the even state ``2k``, 1: the odd one) of
            output ``x * H + k`` in recursion ``d`` (0 alpha, 1 beta).
        score_metric: ``(2, S)`` metric rows of transition ``(s, b)``.
        alpha_row: ``(S,)`` slab row of alpha's state ``s``.
        score_beta: ``(2, S)`` slab row of beta's ``next_state[s, b]``.
    """

    __slots__ = ("step", "score_metric", "alpha_row", "score_beta")

    def __init__(self, trellis: Trellis):
        n_states = trellis.n_states
        half = n_states // 2
        states = np.arange(n_states)
        if (n_states < 2 or n_states & (n_states - 1)
                or not np.array_equal(
                    trellis.next_state,
                    np.stack([states // 2, half + states // 2], axis=1))):
            raise ValueError(
                "BCJR needs a shift-register butterfly trellis: "
                "next_state[s, b] == b * n_states / 2 + s // 2")
        n_bits = n_states.bit_length() - 1
        reverse = np.array([int(f"{s:0{n_bits}b}"[::-1], 2) for s in states])
        label = 2 * trellis.outputs[..., 0] + trellis.outputs[..., 1]
        k = np.arange(half)
        # alpha: output x*H + k from states 2k (e = 0) and 2k + 1 on
        # input x.  Bit-reversed beta: output x*H + k is state
        # 2j + x with j = reverse[k] >> 1, reached from its successors
        # j (input e = 0, bit-reversed position 2k) and H + j (e = 1,
        # position 2k + 1).
        source = 2 * (reverse[k] >> 1)
        step = np.empty((2, 2, 2, half), dtype=np.intp)
        for e in (0, 1):
            for x in (0, 1):
                step[e, 0, x] = label[2 * k + e, x]
                step[e, 1, x] = 4 + label[source + x, e]
        row = (states & 1) * half + (states >> 1)  # even states first
        self.step = step
        self.score_metric = label.T.copy()
        self.alpha_row = row
        self.score_beta = row[reverse[trellis.next_state]].T.copy()
        for name in self.__slots__:            # shared by every decode
            getattr(self, name).setflags(write=False)


#: Tables per code, built on its first decode rather than at import.
_BUTTERFLIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _butterfly(code: ConvolutionalCode) -> _Butterfly:
    """``code``'s butterfly tables."""
    tables = _BUTTERFLIES.get(code)
    if tables is None:
        tables = _BUTTERFLIES[code] = _Butterfly(code.trellis)
    return tables


class BcjrResult:
    """Output of the BCJR decoder for one frame.

    Attributes:
        llrs: a-posteriori LLR per information bit (tail stripped).
        bits: hard decisions, ``llrs >= 0`` (Eq. 2 of the paper).
    """

    __slots__ = ("llrs", "bits")

    def __init__(self, llrs: np.ndarray):
        self.llrs = llrs
        self.bits = (llrs >= 0).astype(np.uint8)


class BcjrBatchResult:
    """Output of the batched BCJR decoder.

    Attributes:
        llrs: ``(n_frames, n_info_bits)`` posterior LLRs.
        bits: ``(n_frames, n_info_bits)`` hard decisions.
    """

    __slots__ = ("llrs", "bits")

    def __init__(self, llrs: np.ndarray):
        self.llrs = llrs
        self.bits = (llrs >= 0).astype(np.uint8)

    def __len__(self) -> int:
        return self.llrs.shape[0]

    def frame(self, i: int) -> BcjrResult:
        """The ``i``-th frame's result as a scalar :class:`BcjrResult`."""
        return BcjrResult(self.llrs[i])


def bcjr_decode(code: ConvolutionalCode, channel_llrs: np.ndarray,
                variant: str = "log-map") -> BcjrResult:
    """Decode a terminated rate-1/2 coded stream with soft outputs.

    Args:
        code: the convolutional code.
        channel_llrs: depunctured channel LLRs, one per mother-code bit
            (``log P(r|c=1) - log P(r|c=0)``); punctured positions are 0.
        variant: ``"log-map"`` (exact) or ``"max-log-map"``.

    Returns:
        A :class:`BcjrResult` with per-information-bit posterior LLRs.
    """
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    if llrs.ndim != 1:
        raise ValueError("bcjr_decode expects a 1-D LLR stream; "
                         "use bcjr_decode_batch for frame stacks")
    batch = bcjr_decode_batch(code, llrs[None, :], variant)
    return BcjrResult(batch.llrs[0])


def bcjr_decode_batch(code: ConvolutionalCode, channel_llrs: np.ndarray,
                      variant: str = "log-map") -> BcjrBatchResult:
    """Decode a ``(n_frames, n_llrs)`` stack of equal-length streams.

    All frames advance each trellis step together (frames are the last
    axis of every work array), and the forward and backward recursions
    advance in the same loop pass as one butterfly (see the module
    docstring).  The output is bit-identical to decoding each row
    individually with :func:`bcjr_decode`.

    Args:
        code: the convolutional code; its trellis must be the
            shift-register butterfly every :class:`ConvolutionalCode`
            builds.
        channel_llrs: depunctured channel LLRs, shape
            ``(n_frames, 2 * n_steps)``; punctured positions are 0.
            Must be finite.
        variant: ``"log-map"`` (exact) or ``"max-log-map"``.

    Returns:
        A :class:`BcjrBatchResult` with posterior LLRs of shape
        ``(n_frames, n_steps - n_tail_bits)``.
    """
    llrs = check_llr_stack(code, channel_llrs, "bcjr_decode_batch")
    if variant == "log-map":
        combine = np.logaddexp
    elif variant == "max-log-map":
        combine = np.maximum
    else:
        raise ValueError(f"unknown BCJR variant: {variant!r}")
    tables = _butterfly(code)
    n_frames = llrs.shape[0]
    n_steps = llrs.shape[-1] // 2
    n_info = n_steps - code.n_tail_bits
    n_states = code.trellis.n_states
    half = n_states // 2
    block = max(1, _BLOCK_CELLS // max(1, n_frames * n_states))

    # metrics[t, 2 c0 + c1, f] = c0 * L0 + c1 * L1: the branch metric
    # of every transition emitting coded bits (c0, c1) at step t (terms
    # independent of the transition cancel in LLRs).  Rows 4-7 hold
    # step T - 1 - t's, which the backward half of loop pass t uses.
    # Batch arrays are time-major with frames last, so each step works
    # on contiguous (state x frame) planes and, at large batches, the
    # ufunc inner loops run over frames.
    metrics = np.empty((n_steps, 8, n_frames))
    np.add(_C0[:, None] * llrs[:, 0::2].T[:, None],
           _C1[:, None] * llrs[:, 1::2].T[:, None], out=metrics[:, :4])
    metrics[:, 4:] = metrics[::-1, :4]

    # slab[i] = (alpha_i, beta_{T - i} in bit-reversed state order),
    # each stored even states first: state 2j + e sits in row e*H + j,
    # so the butterfly's two inputs are the two contiguous halves.  The
    # trellis starts and (terminated) ends in state 0, which is its own
    # bit reversal.  Pass i turns slab[i] into slab[i + 1]: output
    # x*H + k of either recursion combines states 2k and 2k + 1, each
    # plus its branch metric, and is normalised by the row max against
    # drift (offsets cancel in the final LLR).
    slab = np.empty((n_steps, 2, n_states, n_frames))
    slab[0] = _NEG_INF
    slab[0, :, 0] = 0.0
    halves = slab.reshape(n_steps, 2, 2, half, n_frames)   # [i, d, e, j, f]
    inputs = halves.transpose(0, 2, 1, 3, 4)[:, :, :, None]
    paths = np.empty((2, 2, 2, half, n_frames))            # [e, d, x, k, f]
    from_even, from_odd = paths
    combined = from_even.reshape(2, n_states, n_frames)    # [d, n, f]
    # Output state n = 2j + e, as [d, e, j, f] to match halves[i + 1].
    combined_halves = combined.reshape(2, half, 2, n_frames) \
        .transpose(0, 2, 1, 3)
    mx = np.empty((2, 1, n_frames))
    mx_halves = mx[:, None]
    for i0 in range(0, n_steps - 1, block):
        i1 = min(i0 + block, n_steps - 1)
        gamma = np.take(metrics[i0:i1], tables.step, axis=1)
        for g, src, nxt in zip(gamma, inputs[i0:i1],
                               halves[i0 + 1:i1 + 1]):
            np.add(src, g, out=paths)
            combine(from_even, from_odd, out=from_even)
            np.maximum.reduce(combined, axis=1, keepdims=True, out=mx)
            np.subtract(combined_halves, mx_halves, out=nxt)

    # Posterior of bit t: transition (s, b) runs from alpha_t[s] to
    # beta_{t+1}[next_state[s, b]].  Scores keep the association order
    # (alpha + gamma) + beta and are summed over contiguous rows in
    # natural state order, with the numerator (b = 1) and denominator
    # (b = 0) stacked on axis 1.
    posterior = np.empty((n_frames, n_info))
    for t0 in range(0, n_info, block):
        t1 = min(t0 + block, n_info)
        scores = np.take(metrics[t0:t1], tables.score_metric, axis=1)
        alpha = np.take(slab[t0:t1, 0], tables.alpha_row, axis=1)
        np.add(alpha[:, None], scores, out=scores)
        beta_next = slab[n_steps - t1:n_steps - t0, 1][::-1]
        rows = np.empty((t1 - t0, 2, n_frames, n_states))
        np.add(scores, np.take(beta_next, tables.score_beta, axis=1),
               out=rows.transpose(0, 1, 3, 2))
        if combine is np.logaddexp:
            # Finite rows (_NEG_INF is a large finite float), in
            # natural state order, so the bits match scipy's.
            lse = logsumexp_rows(rows)
        else:
            lse = np.amax(rows, axis=-1)
        np.subtract(lse[:, 1], lse[:, 0], out=posterior[:, t0:t1].T)
    return BcjrBatchResult(posterior)

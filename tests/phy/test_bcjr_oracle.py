"""Bit-identity of the BCJR kernel against a materialised reference.

``_reference_bcjr`` is the straightforward whole-array BCJR: it builds
the full ``(T, F, S, 2)`` branch-metric array, keeps alpha and beta
whole in natural state order, and combines the posterior in one
log-sum-exp over ``(T, F, S)`` score arrays.  It is slow and memory
hungry, which is why :func:`repro.phy.bcjr.bcjr_decode_batch` does not
work this way; it is kept here as the oracle that the optimised kernel
must match **byte for byte** (``tobytes()`` equality, so even a signed
zero or the last ulp counts).  Every SoftPHY hint in the reproduction
comes from that kernel, so any drift would move every full-PHY curve.

The cases cover the 802.11 code and two smaller codes, batch sizes
from 1 to 20 frames, trellis lengths from one information bit to
several posterior blocks, LLR scales over six decades, punctured
(zero) positions and both decoder variants, plus the numerically
awkward corners: all-zero rows (every state ties, so ``logaddexp``
takes its ``x == y`` branch and the log-sum-exp multiplicity is above
one), ±500 magnitudes (``exp`` underflows to an all-zero remainder),
the shortest legal frame, and one 64-frame batch of 1638 steps.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.bcjr import bcjr_decode, bcjr_decode_batch
from repro.phy.convcode import PUNCTURE_PATTERNS, ConvolutionalCode

_NEG_INF = -1e30

CODES = {
    "802.11": ConvolutionalCode(),
    "k3-7-5": ConvolutionalCode(3, (0o7, 0o5)),
    "k5-23-35": ConvolutionalCode(5, (0o23, 0o35)),
}
VARIANTS = ("log-map", "max-log-map")


def _logsumexp_last(a):
    """scipy >= 1.15 ``logsumexp(a, axis=-1)`` for finite real ``a``:
    maxima pulled out, remainder scaled by their multiplicity ``m``,
    result ``log1p(s) + log(m) + max``."""
    mx = a.max(axis=-1, keepdims=True)
    mask = a == mx
    m = mask.sum(axis=-1, dtype=a.dtype)
    e = np.exp(a - mx)
    e[mask] = 0.0
    s = e.sum(axis=-1)
    np.divide(s, m, out=s, where=s != 0)       # s == 0 stays 0
    return np.log1p(s) + np.log(m) + mx[..., 0]


def _reference_bcjr(code, channel_llrs, variant="log-map"):
    """Posterior LLRs ``(F, T - tail)`` by the materialised strategy."""
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    combine = {"log-map": np.logaddexp, "max-log-map": np.maximum}[variant]
    n_frames, n_steps = llrs.shape[0], llrs.shape[1] // 2
    trellis = code.trellis
    n_states = trellis.n_states
    succ0, succ1 = trellis.next_state[:, 0], trellis.next_state[:, 1]
    pred0, pred1 = trellis.prev_state[:, 0], trellis.prev_state[:, 1]
    enter = trellis.prev_state * 2 + trellis.prev_input
    leave0 = 2 * np.arange(n_states)
    leave1 = leave0 + 1

    # gamma[t, f, s, b]: branch metric of transition (s, b) at step t.
    out = trellis.outputs.astype(np.float64)
    pairs = llrs.reshape(n_frames, n_steps, 2).transpose(1, 0, 2)
    gamma = (out[None, None, :, :, 0] * pairs[:, :, None, None, 0]
             + out[None, None, :, :, 1] * pairs[:, :, None, None, 1])
    gamma_flat = gamma.reshape(n_steps, n_frames, 2 * n_states)

    alpha = np.empty((n_steps + 1, n_frames, n_states))
    alpha[0] = _NEG_INF
    alpha[0, :, 0] = 0.0
    for t in range(n_steps):
        row, gf = alpha[t], gamma_flat[t]
        nxt = combine(row[:, pred0] + gf[:, enter[:, 0]],
                      row[:, pred1] + gf[:, enter[:, 1]])
        alpha[t + 1] = nxt - nxt.max(axis=-1, keepdims=True)

    beta = np.empty((n_steps + 1, n_frames, n_states))
    beta[n_steps] = _NEG_INF
    beta[n_steps, :, 0] = 0.0
    for t in range(n_steps - 1, -1, -1):
        row, gf = beta[t + 1], gamma_flat[t]
        prev = combine(row[:, succ0] + gf[:, leave0],
                       row[:, succ1] + gf[:, leave1])
        beta[t] = prev - prev.max(axis=-1, keepdims=True)

    score0 = alpha[:-1] + gamma[:, :, :, 0] + beta[1:][:, :, succ0]
    score1 = alpha[:-1] + gamma[:, :, :, 1] + beta[1:][:, :, succ1]
    if variant == "log-map":
        num, den = _logsumexp_last(score1), _logsumexp_last(score0)
    else:
        num, den = score1.max(axis=-1), score0.max(axis=-1)
    posterior = num.T - den.T
    return posterior[:, : n_steps - code.n_tail_bits]


def _assert_matches(code, llrs, variant):
    got = bcjr_decode_batch(code, llrs, variant)
    want = _reference_bcjr(code, llrs, variant)
    assert got.llrs.shape == want.shape
    assert got.llrs.tobytes() == want.tobytes()
    assert np.array_equal(got.bits, (want >= 0).astype(np.uint8))


def _punctured_zeros(llrs, code_rate):
    """Zero the positions puncturing at ``code_rate`` deletes."""
    pattern = PUNCTURE_PATTERNS[code_rate]
    n = llrs.shape[-1]
    keep = np.tile(pattern, -(-n // pattern.size))[:n]
    llrs[:, ~keep] = 0.0
    return llrs


@settings(max_examples=60, deadline=None)
@given(code_name=st.sampled_from(sorted(CODES)),
       n_frames=st.integers(1, 20),
       n_info=st.one_of(st.integers(1, 40), st.integers(41, 700)),
       log_scale=st.floats(-3.0, 3.0),
       codeword=st.booleans(),
       code_rate=st.sampled_from(sorted(PUNCTURE_PATTERNS)),
       variant=st.sampled_from(VARIANTS),
       seed=st.integers(0, 2**32 - 1))
def test_matches_reference(code_name, n_frames, n_info, log_scale,
                           codeword, code_rate, variant, seed):
    code = CODES[code_name]
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    if codeword:
        # Noisy LLRs around real codewords: long confident stretches.
        info = rng.integers(0, 2, (n_frames, n_info)).astype(np.uint8)
        coded = code.encode_batch(info).astype(np.float64)
        llrs = scale * (2.0 * coded - 1.0 + rng.normal(size=coded.shape))
    else:
        n_llrs = 2 * (n_info + code.n_tail_bits)
        llrs = scale * rng.normal(size=(n_frames, n_llrs))
    _assert_matches(code, _punctured_zeros(llrs, code_rate), variant)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("code_name", sorted(CODES))
class TestCorners:
    def test_all_zero_rows(self, code_name, variant):
        # Every state ties at every step.
        code = CODES[code_name]
        _assert_matches(code, np.zeros((3, 2 * (40 + code.n_tail_bits))),
                        variant)

    def test_huge_magnitudes(self, code_name, variant):
        # exp underflows: the log-sum-exp remainder s is exactly 0.
        code = CODES[code_name]
        rng = np.random.default_rng(500)
        signs = rng.choice([-1.0, 1.0], (5, 2 * (90 + code.n_tail_bits)))
        _assert_matches(code, 500.0 * signs, variant)
        _assert_matches(code, signs * rng.uniform(0, 500, signs.shape),
                        variant)

    def test_shortest_frame(self, code_name, variant):
        code = CODES[code_name]
        rng = np.random.default_rng(1)
        for n_frames in (1, 9):
            llrs = rng.normal(size=(n_frames, 2 * (code.n_tail_bits + 1)))
            _assert_matches(code, llrs, variant)


@pytest.mark.parametrize("variant", VARIANTS)
def test_large_batch(variant):
    """A 64 x 1638-step batch (the bench's largest shape).  The
    reference runs eight rows at a time to bound its memory; its rows
    are independent, so the stacked result is the whole-batch one."""
    code = CODES["802.11"]
    rng = np.random.default_rng(1638)
    info = rng.integers(0, 2, (64, 1638 - code.n_tail_bits))
    coded = code.encode_batch(info.astype(np.uint8)).astype(np.float64)
    llrs = 2.0 * (2.0 * coded - 1.0) + 2.0 * rng.normal(size=coded.shape)
    llrs = _punctured_zeros(llrs, Fraction(3, 4))
    got = bcjr_decode_batch(code, llrs, variant)
    want = np.concatenate([_reference_bcjr(code, llrs[i:i + 8], variant)
                           for i in range(0, 64, 8)])
    assert got.llrs.tobytes() == want.tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_scalar_wrapper_matches_reference(variant):
    code = CODES["802.11"]
    llrs = np.random.default_rng(3).normal(size=2 * 300)
    got = bcjr_decode(code, llrs, variant)
    want = _reference_bcjr(code, llrs[None, :], variant)[0]
    assert got.llrs.tobytes() == want.tobytes()

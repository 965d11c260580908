"""The PHY's log-sum-exp against ``scipy.special.logsumexp``.

:func:`repro.phy.logsumexp.logsumexp_rows` replaces scipy's
``logsumexp(a, axis=-1)`` in the exact soft demapper and the log-MAP
BCJR, and must give the same bytes on every finite row: ties of the
row maximum, one-element rows and a wide dynamic range included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from repro.phy.logsumexp import logsumexp_rows
from repro.phy.modulation import soft_demap_batch

_ELEMENTS = st.one_of(
    st.floats(-50.0, 50.0),
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, -1.0, 2.5, -1e30, 1e-300]),  # ties
)
_ROWS = st.tuples(st.integers(1, 6), st.integers(1, 40)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=_ELEMENTS))


@settings(max_examples=400, deadline=None)
@given(rows=_ROWS)
def test_matches_scipy_bit_for_bit(rows):
    want = logsumexp(rows, axis=-1)
    got = logsumexp_rows(rows.copy())
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(value=st.floats(-1e300, 1e300), width=st.integers(1, 64))
def test_constant_rows(value, width):
    rows = np.full((2, width), value)
    assert logsumexp_rows(rows.copy()).tobytes() == \
        logsumexp(rows, axis=-1).tobytes()


class TestSoftDemapRejectsNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_symbols(self, bad):
        y = np.ones((2, 4), dtype=complex)
        y[1, 2] = bad
        with pytest.raises(ValueError, match="symbols must be finite"):
            soft_demap_batch(y, "QAM16", 0.1)

    def test_gains(self):
        y = np.ones((1, 4), dtype=complex)
        gains = np.ones_like(y)
        gains[0, 0] = np.nan
        with pytest.raises(ValueError, match="gains must be finite"):
            soft_demap_batch(y, "QPSK", 0.1, gains=gains)

    def test_nan_noise_variance(self):
        with pytest.raises(ValueError, match="noise variance"):
            soft_demap_batch(np.ones((1, 4), dtype=complex), "QPSK",
                             float("nan"))

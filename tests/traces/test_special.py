"""The numpy ``erfc``/``erfcinv`` against ``scipy.special``.

:mod:`repro.traces.special` replaces scipy's ``erfc`` and ``erfcinv`` in
the analytic trace model, so every trace byte depends on it giving the
same bits as scipy on every float64: subnormals, the branch boundaries
of the cephes approximations, special values and out-of-domain inputs
included.  NaNs are compared by their bits too.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from repro.traces.special import _exp, _log, erfc, erfcinv

_MAXLOG = 7.09782712893383996843e2


def _ulps(x, n):
    """Positive ``x`` and the ``n`` floats on either side of it."""
    bits = np.array([x], dtype=np.float64).view(np.int64)
    return (bits + np.arange(-n, n + 1)).view(np.float64)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    bad = got.view(np.uint64) != want.view(np.uint64)
    assert not bad.any(), (np.atleast_1d(got)[np.atleast_1d(bad)][:5],
                           np.atleast_1d(want)[np.atleast_1d(bad)][:5])


def _erfc_boundary():
    """The largest x whose x*x does not pass MAXLOG."""
    x = math.sqrt(_MAXLOG)
    while x * x > _MAXLOG:
        x = math.nextafter(x, 0.0)
    while math.nextafter(x, math.inf) ** 2 <= _MAXLOG:
        x = math.nextafter(x, math.inf)
    return x


_EDGES = np.concatenate([
    [0.0, -0.0, 1.0, -1.0, 8.0, -8.0, 2.0, -2.0, np.inf, -np.inf, np.nan,
     5e-324, -5e-324, 1e-323, 2.2250738585072014e-308, 1e308, -1e308,
     np.finfo(np.float64).max, -np.finfo(np.float64).max,
     2e-300, 1.0 - 2e-12, 0.5, 1.5, 2.5, -0.5, 3.0, 1e-17, 2.0 - 1e-16],
    _ulps(1.0, 40), -_ulps(1.0, 40), _ulps(8.0, 40), -_ulps(8.0, 40),
    _ulps(_erfc_boundary(), 300), -_ulps(_erfc_boundary(), 300),
    _ulps(26.64, 40),
    _ulps(2.0 * math.exp(-2.0), 300),
    _ulps(2.0 * (1.0 - 0.13533528323661269189), 300),
    _ulps(2.0 * math.exp(-32.0), 300),
    _ulps(2.0, 40), -_ulps(2e-300, 5),
])


@pytest.mark.parametrize("ours, theirs", [(erfc, special.erfc),
                                          (erfcinv, special.erfcinv)],
                         ids=["erfc", "erfcinv"])
class TestAgainstScipy:
    def test_edges(self, ours, theirs):
        _same_bits(ours(_EDGES), theirs(_EDGES))

    def test_each_edge_as_a_scalar(self, ours, theirs):
        for value in _EDGES.tolist():
            got, want = ours(value), theirs(value)
            assert type(got) is type(want)
            _same_bits(got, want)

    def test_nan_payloads(self, ours, theirs):
        nans = np.array([0x7FF8000000000001, 0xFFF8000000000000,
                         0x7FF0000000000001],
                        dtype=np.uint64).view(np.float64)
        _same_bits(ours(nans), theirs(nans))

    def test_shapes(self, ours, theirs):
        x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
        _same_bits(ours(x), theirs(x))
        _same_bits(ours(x[:, ::2, 1:]), theirs(x[:, ::2, 1:]))
        _same_bits(ours(np.array(0.25)), theirs(np.array(0.25)))
        assert ours(np.empty(0)).shape == (0,)

    def test_random_bit_patterns(self, ours, theirs):
        bits = np.random.default_rng(7).integers(
            0, 2 ** 64, 200_000, dtype=np.uint64, endpoint=False)
        _same_bits(ours(bits.view(np.float64)),
                   theirs(bits.view(np.float64)))

    def test_no_warnings(self, ours, theirs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours(_EDGES)
            ours(np.array([1e308, -1e308, 1e200, np.inf, np.nan]))

    @settings(max_examples=300, deadline=None)
    @given(x=arrays(np.float64, st.integers(1, 48),
                    elements=st.floats(allow_nan=False,
                                       allow_infinity=False)))
    def test_every_finite_float(self, ours, theirs, x):
        _same_bits(ours(x), theirs(x))


@settings(max_examples=300, deadline=None)
@given(x=arrays(np.float64, st.integers(1, 48),
                elements=st.floats(-30.0, 30.0)))
def test_erfc_over_its_working_range(x):
    _same_bits(erfc(x), special.erfc(x))


@settings(max_examples=300, deadline=None)
@given(y=arrays(np.float64, st.integers(1, 48),
                elements=st.one_of(st.floats(0.0, 2.0),
                                   st.floats(0.0, 1e-290))))
def test_erfcinv_over_its_domain(y):
    _same_bits(erfcinv(y), special.erfcinv(y))


def test_special_values():
    assert erfc(-np.inf) == 2.0 and erfc(np.inf) == 0.0
    assert np.isnan(erfc(np.nan))
    assert erfcinv(0.0) == np.inf and erfcinv(2.0) == -np.inf
    assert erfcinv(1.0) == 0.0
    assert np.isnan(erfcinv(np.array([-1e-300, 2.0 + 1e-15, 3.0]))).all()


class TestLibmRoutes:
    """The complex128 loops stand in for libm's ``exp`` and ``log``;
    numpy's float64 loops would not give the same bits."""

    def test_exp_is_libm_exp(self):
        v = -np.random.default_rng(3).uniform(0.0, 709.0, 100_000)
        want = np.array([math.exp(t) for t in v.tolist()])
        _same_bits(_exp(v), want)

    def test_log_is_libm_log(self):
        rng = np.random.default_rng(5)
        v = np.concatenate([
            np.exp(rng.uniform(math.log(5e-324), math.log(40.0),
                               100_000)),
            rng.uniform(0.5, 2.0, 20_000), _ulps(2.0, 300),
            _ulps(0.5, 300), [5e-324, 2.2250738585072014e-308]])
        want = np.array([math.log(t) for t in v.tolist()])
        _same_bits(_log(v), want)

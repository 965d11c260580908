"""``erfc`` and ``erfcinv`` on numpy alone, bit-identical to scipy's.

The analytic trace model (:mod:`repro.traces.analytic`) evaluates the
Gaussian tail function and its inverse through these two functions.
They port the cephes routines ``scipy.special`` itself runs: ``erfc``
and ``erf`` from ``ndtr.c``, and ``ndtri`` from ``ndtri.c``, with
``erfcinv(y) = -ndtri(y/2) * sqrt(1/2)`` as in cephes ``erfinv.c``.
Each routine is a rational approximation on a few intervals, so the
port is the same coefficients, the same branches and the same order of
additions, multiplications and divisions, which numpy rounds exactly
as C does.

Bit-identity also needs libm.  cephes calls libm's ``exp`` and ``log``,
and numpy's float64 ``exp``/``log`` run SIMD loops that round some
results differently.  numpy's complex128 loops call libm's ``cexp``
and ``clog`` instead.  At zero imaginary part the real part of
``cexp(x)`` is ``exp(x) * cos 0``, which is ``exp(x)`` for every ``x``
this module passes (none is above 709).  The real part of ``clog(x)``
is ``log(x)`` for normal ``x`` outside [0.5, 2); inside that range
glibc takes a ``log1p`` branch that rounds differently, so those
elements (and subnormal ones) go through ``math.log``.

Both functions take float64 scalars or arrays and return an array of
the input's shape, or a numpy scalar for a scalar, as scipy's ufuncs
do.  Special values match scipy too: ``erfc(-inf) = 2``,
``erfc(inf) = 0``, ``erfcinv(0) = inf``, ``erfcinv(2) = -inf``, and
``nan`` outside [0, 2]; no input raises a warning.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["erfc", "erfcinv"]

#: ``log(2**1024)``: ``exp(-x*x)`` underflows past ``x*x > _MAXLOG``.
_MAXLOG = 7.09782712893383996843e2
#: ``exp(-2)``: ``ndtri``'s central interval ends this far from 0 and 1.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242       # sqrt(2 pi)
_SQRT1_2 = 7.07106781186547524401e-1  # sqrt(1/2)
#: The smallest normal float64; ``clog`` rescales anything below it.
_TINY = 2.2250738585072014e-308

# ndtr.c: erfc(x) = exp(-x*x) P(x)/Q(x) for 1 <= x < 8 and
# exp(-x*x) R(x)/S(x) for x >= 8; erf(x) = x T(x*x)/U(x*x) for
# |x| < 1.  The leading 1 of Q, S and U is implicit (p1evl).
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
      7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
      3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
      5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
      1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
      2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
      4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)

# ndtri.c: P0/Q0 for |y - 1/2| <= 1/2 - exp(-2); in the tails,
# z = 1/sqrt(-2 log y), P1/Q1 for sqrt(-2 log y) < 8, else P2/Q2.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """cephes ``polevl``: Horner's rule from the leading coefficient."""
    ans = coef[0] * x
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """cephes ``p1evl``: :func:`_polevl` with an implicit leading 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _exp(v: np.ndarray) -> np.ndarray:
    """libm ``exp`` of ``v <= 709``, through numpy's ``cexp`` loop."""
    return np.exp(v.astype(np.complex128)).real


def _log(v: np.ndarray) -> np.ndarray:
    """libm ``log`` of positive finite ``v``, through ``clog`` where its
    real part is ``log`` and through ``math.log`` elsewhere."""
    out = np.log(v.astype(np.complex128)).real
    odd = (v < _TINY) | ((v >= 0.5) & (v < 2.0))
    if odd.any():
        out[odd] = [math.log(t) for t in v[odd].tolist()]
    return out


def _result(out: np.ndarray, shape):
    """``out`` in the input's shape; a numpy scalar for a scalar."""
    return out.reshape(shape)[()]


@np.errstate(over="ignore", invalid="ignore")
def erfc(x):
    """Complementary error function, bit-identical to
    ``scipy.special.erfc`` on float64 input."""
    a = np.asarray(x, dtype=np.float64)
    flat = a.reshape(-1)
    ax = np.abs(flat)
    z = ax * ax
    # Where exp(-x*x) underflows (x*x > MAXLOG): 0, or 2 for x < 0.
    out = np.where(flat < 0.0, 2.0, 0.0)
    near = ax < 1.0
    if near.any():
        # 1 - erf(x), with erf(x) = x T(x*x)/U(x*x) odd in x.
        s = flat[near]
        zs = z[near]
        out[near] = 1.0 - s * _polevl(zs, _T) / _p1evl(zs, _U)
    for idx, num, den in (
            (np.flatnonzero(~near & (ax < 8.0)), _P, _Q),
            (np.flatnonzero((ax >= 8.0) & (z <= _MAXLOG)), _R, _S)):
        if idx.size:
            af = ax[idx]
            y = _exp(-z[idx]) * _polevl(af, num) / _p1evl(af, den)
            np.subtract(2.0, y, out=y, where=flat[idx] < 0.0)
            out[idx] = y
    out[np.isnan(flat)] = np.nan
    return _result(out, a.shape)


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """cephes ``ndtri`` on a 1-D array strictly inside (0, 1)."""
    out = np.empty_like(y0)
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    central = y > _EXP_M2
    idx = np.flatnonzero(central)
    if idx.size:
        c = y[idx] - 0.5
        c2 = c * c
        x = c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))
        out[idx] = x * _S2PI
    idx = np.flatnonzero(~central)
    if idx.size:
        x = np.sqrt(-2.0 * _log(y[idx]))
        x0 = x - _log(x) / x
        z = 1.0 / x
        x1 = np.empty_like(x)
        for part, num, den in ((x < 8.0, _P1, _Q1), (x >= 8.0, _P2, _Q2)):
            zp = z[part]
            x1[part] = zp * _polevl(zp, num) / _p1evl(zp, den)
        x = x0 - x1
        np.negative(x, out=x, where=~upper[idx])
        out[idx] = x
    return out


@np.errstate(invalid="ignore")
def erfcinv(y):
    """Inverse of :func:`erfc`, bit-identical to
    ``scipy.special.erfcinv`` on float64 input."""
    a = np.asarray(y, dtype=np.float64)
    flat = a.reshape(-1)
    half = 0.5 * flat
    inside = (half > 0.0) & (flat < 2.0)
    # inf where y/2 is 0 (ndtri(0) = -inf), -inf at 2, the input
    # itself if nan, and nan elsewhere outside [0, 2].
    out = np.where((flat >= 0.0) & (half == 0.0), np.inf,
                   np.where(flat == 2.0, -np.inf, np.nan))
    nan = np.isnan(flat)
    out[nan] = flat[nan]
    if inside.any():
        out[inside] = -_ndtri(half[inside]) * _SQRT1_2
    return _result(out, a.shape)

"""The Type I share at nu != 1 takes one incomplete Beta function per point:
the second term of its Beta mixture comes from DLMF 8.17.20 as
I_s(a+1, nu) = I_s(a, nu) - L (upper share) and
I_(1-s)(nu, a+1) = I_(1-s)(nu, a) + L (lower share), with
L = s^a (1-s)^nu/(a B(a, nu)).

Each share is checked against 40-digit mpmath from y = 1e-4 to 1e4, at
y = 0 and inf, and on both sides of the deep tail u = kappa y = 2^500.
Its error may exceed that of the mixture summed from both incomplete
Beta functions by 8 (1 + a + a |log s| + nu |log(1-s)|) ulp: the exponent
of L rounds by about eps (a |log s| + nu |log(1-s)|), and s = r^2
carries a few ulp of its own, which the exponent multiplies by a.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import betainc

from kappadist.core import _DEEP_TAIL, _gamma_share

NUS = (0.5, 1.07, 1.5, 2.0, 2.5, 3.3, 70.0)
KAPPAS = (1e-4, 1e-3, 0.01, 0.3, 0.9, 0.999)
CASES = [(nu, k) for k in KAPPAS for nu in NUS if nu < 1.0 / k]


def _ys(k):
    deep = _DEEP_TAIL / k
    around = [deep * f for f in (0.5, 1.0 - 2.0**-40, 1.0 + 2.0**-40, 2.0)]
    return np.array([0.0, *np.logspace(-4.0, 4.0, 17), *around, math.inf])


def _mp_shares(nu, k, y):
    """(upper, lower, a |log s| + nu |log(1-s)|) at 40 digits from an exact
    s; the lower share from its own incomplete Beta where s > 1/2, where
    1 - upper would lose its digits, else as 1 - upper, for there 1 - s
    rounds to 1 at 40 digits once s is far below 1e-40."""
    with mpmath.workdps(40):
        k, nu, y = mpmath.mpf(k), mpmath.mpf(nu), mpmath.mpf(y)
        u = k * y
        r = 1 / (u + mpmath.sqrt(1 + u * u))
        s = r * r
        a = 1 / (2 * k) - nu / 2
        w1, w2 = (a + nu) / (2 * a + nu), a / (2 * a + nu)

        def ib(p, q, x):
            return mpmath.betainc(p, q, 0, x, regularized=True)

        upper = w1 * ib(a, nu, s) + w2 * ib(a + 1, nu, s)
        if s > 0.5:
            lower = w1 * ib(nu, a, 2 * u * r) + w2 * ib(nu, a + 1, 2 * u * r)
        else:
            lower = 1 - upper
        return float(upper), float(lower), float(-a * mpmath.log(s) - nu * mpmath.log(2 * u * r))


def _both_calls(ys, nu, k, upper):
    """The share as w1 I(a) + w2 I(a+1), each incomplete Beta function from
    scipy, on each side of the mean of s; for the error of the calls."""
    u = k * ys
    r = 1.0 / (np.sqrt(1.0 + u * u) + u)
    s = r * r
    a = 0.5 / k - 0.5 * nu
    w1, w2 = (a + nu) / (2.0 * a + nu), a / (2.0 * a + nu)
    up = w1 * betainc(a, nu, s) + w2 * betainc(a + 1.0, nu, s)
    low = w1 * betainc(nu, a, 2.0 * u * r) + w2 * betainc(nu, a + 1.0, 2.0 * u * r)
    near = s > a / (a + nu)
    if upper:
        return np.where(near, 1.0 - low, up)
    return np.where(near, low, 1.0 - up)


@pytest.fixture(scope="module", params=CASES, ids=[f"nu={nu}-k={k}" for nu, k in CASES])
def case(request):
    nu, k = request.param
    ys = _ys(k)
    refs = np.array([_mp_shares(nu, k, y) for y in ys[1:-1]])
    return nu, k, ys, refs


@pytest.mark.parametrize("upper", [True, False])
def test_share_against_mpmath(case, upper):
    nu, k, ys, refs = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # also the divide and invalid ones at y = 0 and inf
        got = _gamma_share(ys, nu, k, upper)
    assert got[0] == (1.0 if upper else 0.0) and got[-1] == (0.0 if upper else 1.0)
    ref = refs[:, 0 if upper else 1]
    keep = ref >= np.finfo(float).tiny  # below it no double holds the digits
    a = 0.5 / k - 0.5 * nu

    def ulps(v):
        return np.abs(v[keep] - ref[keep]) / np.spacing(ref[keep])

    err = ulps(got[1:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        base = ulps(_both_calls(ys[1:-1], nu, k, upper))
    bound = base + 8.0 * (1.0 + a + refs[keep, 2])
    worst = np.argmax(err - bound)
    assert err[worst] <= bound[worst], (ys[1:-1][keep][worst], err[worst], bound[worst])


def test_deep_tail_next_to_a_pole():
    # at nu = 1.07, k = 0.9 the Beta shape a = (1 - nu k)/2k is 0.021, and
    # the deep-tail term s^a/(a B(a, nu)) carries a's relative error times
    # a |log s| ~ 14: formed as 1/2k - nu/2, a cancels, and the share is 164 ulp
    # off around u = 2^500
    nu, k = 1.07, 0.9
    ys = _ys(k)[-5:-1]
    ref = np.array([_mp_shares(nu, k, y)[0] for y in ys])
    got = _gamma_share(ys, nu, k, True)
    assert np.all(np.abs(got - ref) <= 16.0 * np.spacing(ref)), np.abs(got - ref) / np.spacing(ref)

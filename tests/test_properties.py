"""Properties every family keeps over its whole parameter domain, with
kappa drawn from [1e-6, 0.99]: a cdf in [0, 1] that never falls,
cdf + survival = 1, logpdf = log(pdf), quantile(cdf(x)) = x to within
the conditioning of the cdf, and no floating-point warning anywhere.

The examples are derandomized, so every run draws the same ones.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappadist import (
    KappaErlang,
    KappaLogistic,
    KappaNormal,
    Type1,
    Type2,
    Type3,
    Type4,
    Type5,
)

EPS = np.finfo(float).eps
# cdf and survival are separate formulas, each good to a few ulp
ROUNDING = 16.0 * EPS
KAPPA = st.floats(1e-6, 0.99)
BETA = st.floats(0.25, 4.0)


def _alpha(lo=0.2, hi=3.0, negative=True):
    mag = st.floats(lo, hi)
    if not negative:
        return mag
    return st.tuples(mag, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@st.composite
def _type1(draw):
    k = draw(KAPPA)
    nu = draw(st.floats(0.2, min(6.0, 0.95 / k)))
    return Type1(draw(_alpha()), draw(BETA), nu, k)


@st.composite
def _erlang(draw):
    k = draw(KAPPA)
    n = draw(st.integers(1, max(1, min(4, math.ceil(1.0 / k) - 1))))
    return KappaErlang(n, draw(BETA), k)


FAMILIES = {
    "Type1": _type1(),
    "KappaErlang": _erlang(),
    "KappaNormal": st.builds(KappaNormal, BETA, KAPPA),
    "Type2": st.builds(Type2, _alpha(), BETA, KAPPA),
    "Type3": st.builds(Type3, _alpha(), BETA, st.floats(0.05, 20.0), KAPPA),
    "Type4": st.builds(Type4, _alpha(negative=False), BETA, st.floats(1e-3, 0.99)),
    "Type5": st.builds(Type5, st.integers(1, 3), BETA, KAPPA),
    "KappaLogistic": st.builds(KappaLogistic, BETA, KAPPA, st.floats(-5.0, 5.0)),
}

# positions relative to the family's median: log x - log median for the
# half-line families, (x - median)/scale on the real line
OFFSETS = st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=12)


def _points(d, offsets):
    med = d.quantile(0.5)
    u = np.sort(np.asarray(offsets))
    if d.support_real_line:
        return med + u * (1.0 + abs(med))
    with np.errstate(over="ignore"):
        return np.concatenate([[0.0], med * np.exp(u), [np.inf]])


def _check(d, offsets):
    x = _points(d, offsets)
    cdf, sf = d.cdf(x), d.survival(x)
    assert np.all((cdf >= 0.0) & (cdf <= 1.0)) and np.all((sf >= 0.0) & (sf <= 1.0))
    # a cdf that never falls, and a survival that never rises, beyond rounding
    assert np.all(np.diff(cdf) >= -ROUNDING * cdf[1:])
    assert np.all(np.diff(sf) <= ROUNDING * sf[:-1])
    assert np.all(np.abs(cdf + sf - 1.0) <= ROUNDING)

    pdf, logpdf = d.pdf(x), d.logpdf(x)
    normal = (pdf >= np.finfo(float).tiny) & np.isfinite(pdf)  # log(pdf) keeps its digits
    assert np.all(np.abs(logpdf[normal] - np.log(pdf[normal])) <= 1e-12 * np.maximum(1.0, np.abs(logpdf[normal])))
    assert np.all(pdf[~np.isfinite(logpdf)] == np.exp(logpdf[~np.isfinite(logpdf)]))

    # round trip where the cdf resolves x: the error in p, rounding plus the
    # family's own ~1e-13, moves the root by dp / pdf
    inner = (cdf > 1e-300) & (sf > 1e-12) & np.isfinite(x) & (pdf > 0.0)
    if d.support_real_line:
        inner &= x != 0.0
    for xi, p, s, f in zip(x[inner], cdf[inner], sf[inner], pdf[inner]):
        dp = 4.0 * EPS * p + 1e-12 * min(p, s)
        q = d.quantile(p)
        if d.support_real_line:
            assert abs(q - xi) <= 1e-12 * (1.0 + abs(xi)) + 10.0 * dp / f, (xi, p)
        else:
            err = abs(math.log(q) - math.log(xi))
            assert err <= 1e-12 * (1.0 + abs(math.log(xi))) + 10.0 * dp / (xi * f), (xi, p)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_properties(family):
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(FAMILIES[family], OFFSETS)
    def run(d, offsets):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _check(d, offsets)

    run()

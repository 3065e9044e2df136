"""The change of variables Y = beta X^alpha shared by Type1, Type3 and Type4.

Each family declares only the law of Y; the density's limit at the
origin and its powers at both ends of the support are derived from one
declaration of that law's end powers, and the quadrature oracles read
them.
"""

import math
import warnings

import numpy as np
import pytest

from conftest import integrate_pdf
from kappadist import KappaErlang, Type1, Type2, Type3, Type4


def _families():
    for k in (0.0, 0.3, 0.9):
        for a in (0.7, 2.5, -0.7, -2.5):
            yield Type1(a, 1.3, 0.8, k)
            yield Type2(a, 1.3, k)
            yield Type3(a, 1.3, 0.5, k)
            if a > 0.0 and k > 0.0:
                yield Type4(a, 1.3, k)
        if k < 0.5:
            yield KappaErlang(2, 1.3, k)


FAMILIES = list(_families())

# one zero exponent at the origin per family: the density has a finite,
# nonzero limit there
FINITE_AT_ORIGIN = [
    Type1(2.0, 1.3, 0.5, 0.3),
    Type1(-1.0, 1.3, 1.0, 0.5),
    Type2(1.0, 1.3, 0.3),
    Type3(1.0, 1.3, 2.0, 0.9),
    Type3(-0.5, 1.3, 2.0, 0.5),
    Type4(0.5, 1.3, 0.5),
]


def _log_slope(d, x1, x2):
    return (d.logpdf(x2) - d.logpdf(x1)) / (math.log(x2) - math.log(x1))


@pytest.mark.parametrize("d", FAMILIES, ids=repr)
def test_log_slope_at_origin_is_singular_power(d):
    sp = d._pdf_singular_power()
    slope = _log_slope(d, 1e-80, 1e-60)
    if sp is None:  # essential zero: steeper than every power
        assert slope > 1e3
    else:
        assert slope == pytest.approx(sp, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("d", FAMILIES, ids=repr)
def test_log_slope_in_tail_is_minus_tail_power(d):
    tp = d._pdf_tail_power()
    slope = _log_slope(d, 1e40, 1e60)
    if tp is None:  # faster than every power
        assert slope < -1e3
    else:
        assert slope == pytest.approx(-tp, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("d", FAMILIES + FINITE_AT_ORIGIN, ids=repr)
def test_pdf_at_origin_is_the_limit(d):
    sp = d._pdf_singular_power()
    at0, near, far = d.pdf(0.0), d.logpdf(1e-100), d.logpdf(1e-50)
    if sp is None or sp > 0.0:
        assert at0 == 0.0 and near < far
    elif sp < 0.0:
        assert at0 == math.inf and near > far
    else:
        assert 0.0 < at0 < math.inf
        assert math.log(at0) == pytest.approx(near, rel=1e-9, abs=1e-9)
    assert d.logpdf(0.0) == pytest.approx(math.log(at0) if at0 > 0.0 else -math.inf, rel=1e-15)


@pytest.mark.parametrize("d", FINITE_AT_ORIGIN, ids=repr)
def test_zero_exponent_at_origin_is_declared(d):
    assert d._pdf_singular_power() == 0.0


class TestType4Origin:
    def test_pole_when_alpha_below_kappa(self):
        d = Type4(0.2, 1.0, 0.5)
        assert d.pdf(1e-30) > 1e17
        assert d.pdf(0.0) == math.inf
        assert d.pdf(np.array([0.0, 1e-30]))[0] == math.inf

    def test_finite_limit_when_alpha_equals_kappa(self):
        # pdf(0) = (2 kappa beta)^(1/kappa) at alpha = kappa
        d = Type4(0.5, 1.0, 0.5)
        assert d.pdf(0.0) == pytest.approx(1.0, rel=1e-15)
        assert Type4(0.5, 1.3, 0.5).pdf(0.0) == pytest.approx(1.3**2, rel=1e-14)

    def test_normalized_with_a_pole_at_the_origin(self):
        assert integrate_pdf(Type4(0.4, 1.3, 0.5)) == pytest.approx(1.0, abs=1e-8)


class TestHazardRateFarTail:
    def test_no_overflow_past_u_squared(self):
        # h = alpha beta x^(alpha-1)/sqrt(1 + u^2) ~ alpha/(kappa x)
        d = Type2(1.5, 1.0, 0.3)
        x = 1e110
        assert d.hazard_rate(x) == pytest.approx(1.5 / (0.3 * x), rel=1e-12, abs=0.0)
        assert d.hazard(x) == d.hazard_rate(x)
        xs = np.array([1.0, 1e110, 1e150])
        assert np.allclose(d.hazard_rate(xs)[1:], 1.5 / (0.3 * xs[1:]), rtol=1e-12, atol=0.0)

    def test_type3_matches_type2_rate(self):
        x = np.geomspace(1e-3, 1e120, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h3 = Type3(1.5, 1.0, 2.0, 0.3).hazard_rate(x)
        assert np.array_equal(h3, Type2(1.5, 1.0, 0.3).hazard_rate(x))
        assert np.all(h3 > 0.0)

"""The Type I share at nu = 1 is elementary: I_s(a, 1) = s^a turns both
incomplete Beta terms into powers, and the upper share is
kappa_exp(-y) (sqrt(1 + k^2 y^2) + k^2 y).  Type1 and KappaErlang(1, ...)
take it in log form, so both sides keep their relative precision from
y = 1e-300 to 1e300 and for every kappa, also below KAPPA_SWITCH and where
k y underflows."""

import math

import mpmath
import numpy as np
import pytest

from kappadist import KappaErlang, Type1

EPS = np.finfo(float).eps
KAPPAS = [1e-300, 1e-20, 1e-8, 9e-5, 1e-3, 0.3, 0.9, 0.999]
YS = np.concatenate([np.geomspace(1e-300, 1e300, 121), np.geomspace(1e-3, 1e3, 25)])


def _mp_shares(y, kappa):
    """50-digit (cdf, survival, log survival) of the law kappa_exp(-y)/M_k(1)."""
    with mpmath.workdps(50):
        y, k = mpmath.mpf(y), mpmath.mpf(kappa)
        u = k * y
        # log(sqrt(1 + u^2) + k u), through log1p so that the O(k u) term survives
        log_s = -y if kappa == 0.0 else -mpmath.asinh(u) / k + mpmath.log1p(u * u / (mpmath.sqrt(1 + u * u) + 1) + k * u)
        return float(-mpmath.expm1(log_s)), float(mpmath.exp(log_s)), float(log_s)


@pytest.mark.parametrize("family", [lambda k: Type1(1.0, 1.0, 1.0, k), lambda k: KappaErlang(1, 1.0, k)],
                         ids=["Type1", "KappaErlang"])
@pytest.mark.parametrize("kappa", KAPPAS)
def test_nu_one_share_against_mpmath(family, kappa):
    d = family(kappa)
    cdf, sf = d.cdf(YS), d.survival(YS)
    assert np.array_equal(cdf, [d.cdf(float(y)) for y in YS])
    for y, c, s in zip(YS, cdf, sf):
        ref_c, ref_s, log_s = _mp_shares(y, kappa)
        for got, ref in ((c, ref_c), (s, ref_s)):
            # each side from log S, good to a few eps of |log S|, and to one
            # step of the subnormal grid below the normal range
            assert abs(got - ref) <= 4.0 * EPS * max(1.0, -log_s) * ref + 2.0**-1074, (y, got, ref)
            if y <= 100.0 and ref >= np.finfo(float).tiny:
                assert abs(got - ref) <= 1e-13 * ref, (y, got, ref)


def test_where_kappa_y_underflows():
    # k y = 1e-600 is 0 in floats; the share is y (1 - k^2) to rounding
    d = Type1(1.0, 1.0, 1.0, 1e-300)
    assert d.cdf(1e-300) == pytest.approx(1e-300, rel=2 * EPS)
    assert KappaErlang(1, 1.0, 1e-300).cdf(1e-300) == pytest.approx(1e-300, rel=2 * EPS)


@pytest.mark.parametrize("kappa", [1e-8, 9e-5])
def test_exact_below_kappa_switch(kappa):
    # the classical Gamma shares used below KAPPA_SWITCH are O(k^2) off:
    # at k = 9e-5 survival(200) by 1.1e-2 and cdf(1e-12) by 8.1e-9
    d = Type1(1.0, 1.0, 1.0, kappa)
    assert d.survival(200.0) == pytest.approx(_mp_shares(200.0, kappa)[1], rel=1e-13, abs=0.0)
    assert d.cdf(1e-12) == pytest.approx(_mp_shares(1e-12, kappa)[0], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("kappa", [0.0, 1e-310, 0.3])
def test_ends_and_other_powers(kappa):
    d = Type1(2.5, 0.7, 1.0, kappa)
    assert d.cdf(0.0) == 0.0 and d.survival(0.0) == 1.0
    assert d.cdf(math.inf) == 1.0 and d.survival(math.inf) == 0.0
    x = np.array([0.1, 1.0, 3.0])
    ref = np.array([_mp_shares(0.7 * v**2.5, kappa)[1] for v in x])
    np.testing.assert_allclose(d.survival(x), ref, rtol=1e-14, atol=0.0)
    # alpha < 0 swaps the sides
    d = Type1(-2.5, 0.7, 1.0, kappa)
    ref = np.array([_mp_shares(0.7 * v**-2.5, kappa)[0] for v in x])
    np.testing.assert_allclose(d.survival(x), ref, rtol=1e-14, atol=0.0)

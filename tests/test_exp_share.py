"""The Type I share at an integral nu = n is a finite sum: I_s(b, 1) = s^b,
and I_s(b, n) = s^b sum_(j<n) (b)_j (1-s)^j/j! (DLMF 8.17(iv)).  At nu = 1
both incomplete Beta terms are powers, and the upper share is
kappa_exp(-y) (sqrt(1 + k^2 y^2) + k^2 y).  Type1 and KappaErlang take the
share in log form, so the upper one keeps its relative precision from
y = 1e-300 to 1e300 and for every kappa, also below KAPPA_SWITCH and where
k y underflows; so does the lower one at nu = 1, and at n >= 2 wherever it
is at least 2^-10, below which it is the incomplete-Beta form (past order 8,
the lower share is that form from KAPPA_SWITCH up and where kappa^2 n^3 <
2^-40)."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from kappadist import KappaErlang, Type1

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny
KAPPAS = [1e-300, 1e-20, 1e-8, 9e-5, 1e-3, 0.3, 0.9, 0.999]
YS = np.concatenate([np.geomspace(1e-300, 1e300, 121), np.geomspace(1e-3, 1e3, 25)])
ORDERS = [
    (n, k)
    for n in (*range(1, 13), 32, 64)
    for k in (0.0, 1e-310, 1e-300, 1e-20, 1e-8, 9e-5, 1e-3, 0.3, 1.0 / n - 1e-5)
    if n * k < 1.0
]


def _mp_shares(y, kappa):
    """50-digit (cdf, survival, log survival) of the law kappa_exp(-y)/M_k(1)."""
    with mpmath.workdps(50):
        y, k = mpmath.mpf(y), mpmath.mpf(kappa)
        u = k * y
        # log(sqrt(1 + u^2) + k u), through log1p so that the O(k u) term survives
        log_s = -y if kappa == 0.0 else -mpmath.asinh(u) / k + mpmath.log1p(u * u / (mpmath.sqrt(1 + u * u) + 1) + k * u)
        return float(-mpmath.expm1(log_s)), float(mpmath.exp(log_s)), float(log_s)


def _mp_log_upper(y, kappa, n):
    """60-digit log of the upper share at order n, from the finite sum
    s^a [w1 T_a + w2 s T_(a+1)], T_b = sum_(j<n) (b)_j (1-s)^j/j!, through
    log1p(T - 1) so that the small terms survive."""
    with mpmath.workdps(60):
        y, k = mpmath.mpf(y), mpmath.mpf(kappa)
        if kappa == 0.0:
            return -y + mpmath.log1p(sum(y**j / mpmath.factorial(j) for j in range(1, n)))
        u = k * y
        w = mpmath.asinh(u)
        t = 2 * u / (mpmath.sqrt(1 + u * u) + u)  # 1 - s
        a = 1 / (2 * k) - mpmath.mpf(n) / 2

        def rest(b):  # T_b - 1
            c = total = mpmath.mpf(1)
            for j in range(n - 1):
                c *= (b + j) * t / (j + 1)
                total += c
            return total - 1

        w1, w2 = (1 + n * k) / 2, (1 - n * k) / 2
        # w1 T_a + w2 s T_(a+1) - 1, with s - 1 = expm1(-2w)
        inner = w1 * rest(a) + w2 * rest(a + 1) + w2 * mpmath.expm1(-2 * w) * (1 + rest(a + 1))
        return -2 * a * w + mpmath.log1p(inner)


def test_sum_reference_is_the_beta_mixture():
    # the reference's identity against mpmath's incomplete Beta functions
    for n, kappa in ((2, 0.3), (3, 0.1), (5, 0.19)):
        with mpmath.workdps(40):
            k = mpmath.mpf(kappa)
            a = 1 / (2 * k) - mpmath.mpf(n) / 2
            for y in (0.05, 1.0, 7.0, 60.0):
                s = mpmath.exp(-2 * mpmath.asinh(k * y))
                mix = ((1 + n * k) * mpmath.betainc(a, n, 0, s, regularized=True)
                       + (1 - n * k) * mpmath.betainc(a + 1, n, 0, s, regularized=True)) / 2
                assert mpmath.exp(_mp_log_upper(y, kappa, n)) == pytest.approx(mix, rel=1e-30)


@pytest.mark.parametrize("n, kappa", ORDERS, ids=[f"n={n}-k={k:g}" for n, k in ORDERS])
def test_integer_order_shares_against_mpmath(n, kappa):
    d = KappaErlang(n, 1.0, kappa)
    ys = np.concatenate([[0.0], YS, [math.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cdf, sf = d.cdf(ys), d.survival(ys)
        assert np.array_equal(cdf, [d.cdf(float(y)) for y in ys])
    assert (cdf[0], sf[0], cdf[-1], sf[-1]) == (0.0, 1.0, 1.0, 0.0)
    for y, c, s in zip(YS, cdf[1:-1], sf[1:-1]):
        log_s = _mp_log_upper(y, kappa, n)
        with mpmath.workdps(60):
            ref_s, ref_c = float(mpmath.exp(log_s)), float(-mpmath.expm1(log_s))
        # the upper share from log S, good to a few eps of |log S| per term
        assert abs(s - ref_s) <= 4.0 * n * EPS * max(1.0, -float(log_s)) * ref_s + 2.0**-1074, (y, s, ref_s)
        if y <= 100.0 and ref_s >= TINY:
            assert abs(s - ref_s) <= 1e-13 * ref_s, (y, s, ref_s)
        # 1 - S gives up at most the 10 bits that the switch to betainc at
        # 2^-10 allows; past order 8 log S's terms, each about y, cancel over
        # more of them
        if ref_c >= 2.0**-10:
            bits = 2.0**10 if n <= 8 else 2.0**11 * max(1.0, y)
            assert abs(c - ref_c) <= bits * EPS * ref_c, (y, c, ref_c)


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

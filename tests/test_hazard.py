"""The hazard over the whole half line: pdf/survival in the bulk, the log
form where the pdf underflows first, and the power-law tail's (a - 1)/x
where the survival underflows too."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from kappadist import KappaErlang, KappaLogistic, KappaNormal, Type1, Type2, Type3, Type4, Type5

FAR = np.array([1e50, 1e100, 1e200, 1e300, np.inf])

POWER_TAILS = [
    Type1(1.5, 1.0, 1.0, 0.3),
    Type3(1.5, 1.0, 2.0, 0.3),
    Type3(-1.5, 1.0, 0.5, 0.9),
    Type4(1.5, 1.0, 0.3),
    Type5(2, 1.0, 0.3),
    KappaErlang(2, 1.0, 0.3),
    KappaNormal(1.0, 0.3),
    Type2(-1.5, 1.0, 0.3),
    Type2(1.5, 1.0, 0.3),  # the closed hazard rate
]


@pytest.mark.parametrize("d", POWER_TAILS, ids=repr)
def test_far_tail_hazard_is_a_minus_one_over_x(d):
    a = d._pdf_tail_power()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = d.hazard(FAR)
        scalars = [d.hazard(float(x)) for x in FAR]
    np.testing.assert_allclose(h, (a - 1.0) / FAR, rtol=1e-12, atol=0.0)
    assert h[-1] == 0.0
    assert np.array_equal(h, scalars)


@pytest.mark.parametrize("d", [Type1(1.5, 1.0, 1.0, 0.0)], ids=repr)
def test_no_tail_power_keeps_inf(d):
    # kappa = 0: the survival underflows beyond every power
    assert d.hazard(1e300) == math.inf
    assert d.hazard(math.inf) == math.inf


def test_exponential_tail_keeps_its_rate():
    # every Type V order is the exponential law at kappa = 0
    d = Type5(2, 1.3, 0.0)
    assert d.hazard(1e300) == 1.3
    assert d.hazard(math.inf) == 1.3


def test_bulk_hazard_is_pdf_over_survival():
    d = Type1(1.5, 1.0, 1.0, 0.3)
    x = np.geomspace(1e-3, 1e3, 200)
    assert np.array_equal(d.hazard(x), d.pdf(x) / d.survival(x))


class TestHazardRateEnds:
    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_zero_at_infinity(self):
        assert Type2(1.5, 1.0, 0.3).hazard(math.inf) == 0.0
        assert Type3(1.5, 1.0, 2.0, 0.3).hazard_rate(math.inf) == 0.0

    def test_classical_where_y_overflows(self):
        # h = alpha beta x^(alpha - 1), with no 0 * inf from kappa y
        assert Type2(1.5, 1.0, 0.0).hazard_rate(1e300) == pytest.approx(1.5e150, rel=1e-15)
        assert Type2(1.5, 1.0, 0.0).hazard_rate(math.inf) == math.inf

    def test_deformed_where_y_overflows(self):
        # u = kappa y past the largest float: h = alpha/(kappa x)
        d = Type2(2.0, 1.0, 0.3)
        assert d.hazard_rate(1e300) == pytest.approx(2.0 / (0.3 * 1e300), rel=1e-15)
        x = np.array([1.0, 1e100, 1e200, 1e300])
        assert np.array_equal(d.hazard_rate(x), [d.hazard_rate(float(v)) for v in x])


class TestHazardRateBelowZeroAlpha:
    @pytest.mark.parametrize("x", [1e-130, 1e-200])
    @pytest.mark.parametrize("alpha, kappa", [(-1.5, 0.3), (-2.5, 0.9)])
    def test_where_x_to_alpha_minus_one_overflows(self, alpha, kappa, x):
        # y = beta x^alpha is finite, x^(alpha-1) is not
        beta = 1.3
        with mpmath.workdps(40):
            a, b, k, xm = (mpmath.mpf(v) for v in (alpha, beta, kappa, x))
            y = b * xm**a
            expect = float(a * b * xm ** (a - 1) / mpmath.sqrt(1 + (k * y) ** 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = Type2(alpha, beta, kappa).hazard_rate(x)
        assert h == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("kappa", [0.0, 0.3, 0.9])
    def test_positive_alpha_keeps_its_bits(self, kappa):
        # alpha beta x^(alpha-1)/sqrt(1 + (kappa y)^2), in that order
        d = Type2(1.5, 1.3, kappa)
        x = np.geomspace(1e-100, 1e100, 401)
        h = 1.5 * 1.3 * np.power(x, 0.5)
        if kappa > 0.0:
            h = h / np.hypot(1.0, kappa * (1.3 * np.power(x, 1.5)))
        assert np.array_equal(d.hazard_rate(x), h)


def _mp_type3_hazard(x, alpha, beta, lam, kappa):
    # pdf/S = h/(1 + (lambda-1) E), h = alpha beta x^(alpha-1)/sqrt(1 + (k y)^2), y = beta x^alpha
    with mpmath.workdps(40):
        a, b, lam, k, x = (mpmath.mpf(v) for v in (alpha, beta, lam, kappa, x))
        y = b * x**a
        log_e = -y if kappa == 0.0 else -mpmath.asinh(k * y) / k
        h = a * b * x ** (a - 1) / mpmath.sqrt(1 + (k * y) ** 2)
        return float(h / (1 + (lam - 1) * mpmath.exp(log_e)))


@pytest.mark.parametrize("alpha", [0.7, 1.5])
@pytest.mark.parametrize("kappa", [0.0, 0.3, 0.9])
@pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])
def test_type3_hazard_against_mpmath(lam, kappa, alpha):
    # closed for alpha > 0: h/(1 + (lambda-1) E) needs no survival, so it holds
    # where S underflows, where pdf/S reads half the true value at lambda = 2
    # and inf at kappa = 0
    d = Type3(alpha, 1.3, lam, kappa)
    x = np.logspace(-300, 300, 121)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = d.hazard(x)
    assert np.array_equal(h, [d.hazard(float(v)) for v in x])
    ref = np.array([_mp_type3_hazard(v, alpha, 1.3, lam, kappa) for v in x])
    keep = ref >= np.finfo(float).tiny
    np.testing.assert_allclose(h[keep], ref[keep], rtol=1e-13, atol=0.0)


def _mp_logistic_hazard(x, beta, kappa, loc):
    # pdf/S = beta F/sqrt(1 + u^2), F = 1/(1 + E), E = exp_k(-z), u = k z, z = beta (x - loc)
    with mpmath.workdps(40):
        b, k = mpmath.mpf(beta), mpmath.mpf(kappa)
        z = b * (mpmath.mpf(x) - mpmath.mpf(loc))
        log_e = -z if kappa == 0.0 else -mpmath.asinh(k * z) / k
        return b / ((1 + mpmath.exp(log_e)) * mpmath.sqrt(1 + (k * z) ** 2))


_MAGNITUDES = np.logspace(-300, 300, 121)
LOGISTIC_X = np.concatenate(
    [-_MAGNITUDES[::-1], [-0.0, 0.0], _MAGNITUDES, [-800.0, -720.0, -700.0, 700.0, 720.0, 800.0]]
)


@pytest.mark.parametrize("loc", [0.0, -1000.0])
@pytest.mark.parametrize("kappa", [0.0, 1e-8, 0.3, 0.9])
def test_logistic_hazard_against_mpmath(kappa, loc):
    # closed: E cancels, so the far right tail reads beta/sqrt(1 + u^2),
    # not a ratio of two underflowed values
    d = KappaLogistic(1.0, kappa, loc=loc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = d.hazard(LOGISTIC_X)
    assert np.array_equal(h, [d.hazard(float(x)) for x in LOGISTIC_X])
    tiny = np.finfo(float).tiny
    for x, got in zip(LOGISTIC_X, h):
        ref = _mp_logistic_hazard(x, 1.0, kappa, loc)
        if ref < tiny:  # below the normal range both read about 0
            assert 0.0 <= got <= tiny, x
        else:
            assert abs(got - ref) <= 1e-12 * ref, x


def test_logistic_hazard_where_survival_underflows():
    assert KappaLogistic(1.0, 0.0).hazard(800.0) == 1.0
    assert KappaLogistic(1.0, 1e-8).hazard(800.0) == pytest.approx(1.0, rel=1e-10)
    d = KappaLogistic(1.0, 1e-8, loc=-1000.0)
    assert d.hazard(0.0) == d.hazard(-0.0) == pytest.approx(1.0, rel=1e-9)
    assert KappaLogistic(1.0, 0.0).hazard(math.inf) == 1.0
    assert KappaLogistic(1.0, 0.3).hazard(math.inf) == 0.0
    assert KappaLogistic(1.0, 0.3).hazard(-math.inf) == 0.0
    assert math.isnan(KappaLogistic(1.0, 0.3).hazard(math.nan))

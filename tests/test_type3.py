import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from kappadist import (
    DomainError,
    KappaLogistic,
    MomentDivergesError,
    Type2,
    Type3,
    kappa_log,
    oracle,
)
from conftest import integrate_pdf, ks_statistic

GRID = [
    # (alpha, beta, lam, kappa): bosonic, fermionic, classical, alpha < 0
    (1.0, 1.0, 2.0, 0.3),
    (2.0, 1.5, 0.5, 0.25),
    (1.5, 1.0, 3.0, 0.4),
    (0.8, 2.0, 0.7, 0.45),
    (1.0, 1.0, 2.0, 0.0),
    (-1.0, 1.0, 2.0, 0.3),
    (-1.5, 1.0, 0.5, 0.4),
]


class TestDensity:
    @pytest.mark.parametrize("params", GRID)
    def test_normalization(self, params):
        assert integrate_pdf(Type3(*params)) == pytest.approx(1.0, abs=1e-8)

    def test_lambda_one_is_type2(self):
        a, b, k = 1.7, 1.2, 0.35
        d3 = Type3(a, b, 1.0, k)
        d2 = Type2(a, b, k)
        x = np.array([0.2, 0.9, 2.4, 6.0])
        np.testing.assert_allclose(d3.pdf(x), d2.pdf(x), rtol=1e-12)
        np.testing.assert_allclose(d3.cdf(x), d2.cdf(x), rtol=1e-12)
        np.testing.assert_allclose(d3.cum_hazard(x), d2.cum_hazard(x), rtol=1e-12)

    def test_pdf_matches_cdf_derivative(self):
        for params in [(1.0, 1.0, 2.0, 0.3), (2.0, 1.5, 0.5, 0.25), (-1.0, 1.0, 2.0, 0.3)]:
            d = Type3(*params)
            for x in (0.5, 1.3, 3.1):
                fd = oracle.differentiate(d.cdf, x, order=1)
                assert d.pdf(x) == pytest.approx(fd.value, rel=1e-8, abs=1e-11)

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            Type3(1.0, 1.0, 0.0, 0.3)
        with pytest.raises(DomainError):
            Type3(1.0, 1.0, -2.0, 0.3)
        with pytest.raises(DomainError):
            Type3(0.0, 1.0, 1.0, 0.3)


class TestRateEquation:
    @pytest.mark.parametrize("params", GRID[:5])
    def test_residual_small(self, params):
        d = Type3(*params)
        for x in (0.4, 1.1, 2.8):
            assert abs(d.rate_residual(x)) < 1e-7


class TestQuantile:
    @pytest.mark.parametrize("params", GRID)
    def test_roundtrip(self, params):
        d = Type3(*params)
        ps = np.array([0.001, 0.2, 0.5, 0.85, 0.999])
        np.testing.assert_allclose(d.cdf(d.quantile(ps)), ps, rtol=1e-11, atol=1e-12)

    def test_median_bosonic_fermionic_shift(self):
        # lambda > 1 thickens the tail: fermionic median above the lambda=1 one
        a, b, k = 1.0, 1.0, 0.3
        m1 = Type3(a, b, 1.0, k).quantile(0.5)
        assert Type3(a, b, 2.0, k).quantile(0.5) > m1
        assert Type3(a, b, 0.5, k).quantile(0.5) < m1


class TestMoments:
    def test_quadrature_moments_exist_in_window(self):
        d = Type3(2.0, 1.0, 2.0, 0.4)  # window m < 5
        m1 = d.raw_moment(1)
        m2 = d.raw_moment(2)
        assert 0 < m1 < math.sqrt(m2)

    def test_divergence_window(self):
        d = Type3(1.0, 1.0, 2.0, 0.3)
        with pytest.raises(MomentDivergesError) as exc:
            d.raw_moment(4)
        assert "alpha/kappa" in str(exc.value)

    @pytest.mark.parametrize("k", [1e-8, 1e-5, 1e-3, 0.01, 0.02])
    def test_small_kappa_against_survival_integral(self, k):
        """<x^m> = beta^(-r) int S(t^(1/r)) dt with r = m/alpha (from
        int m x^(m-1) S dx); the oracle's tail substitution used to under-
        or overflow at tail powers 1 + alpha/kappa this large."""
        a, b, lam = 2.5, 1.0, 2.0
        d = Type3(a, b, lam, k)
        for m in (1.0, 1.5, 2.0):
            r = m / a
            with mpmath.workdps(20):
                kk = mpmath.mpf(k)

                def survival(t):
                    y = b * t ** (1 / mpmath.mpf(r))
                    e = mpmath.exp(-mpmath.asinh(kk * y) / kk)
                    return lam * e / (1 + (lam - 1) * e)

                expect = mpmath.mpf(b) ** -r * mpmath.quad(survival, [0, 1, 10, mpmath.inf])
            assert d.raw_moment(m) == pytest.approx(float(expect), rel=1e-9), m

    def test_lambda_one_matches_type2_moment(self):
        d3 = Type3(2.0, 1.5, 1.0, 0.3)
        d2 = Type2(2.0, 1.5, 0.3)
        assert d3.raw_moment(1) == pytest.approx(d2.raw_moment(1), rel=1e-8)


class TestSampling:
    def test_ks(self):
        d = Type3(1.5, 1.0, 2.0, 0.3)
        draws = d.sample(20000, 5)
        assert ks_statistic(draws, d.cdf) < 1.63 / math.sqrt(20000)


class TestKappaLogistic:
    def test_normalizes_on_real_line(self):
        d = KappaLogistic(1.5, 0.4)
        val, _ = integrate.quad(d.pdf, -np.inf, np.inf, epsabs=1e-10, epsrel=1e-10)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_cdf_at_location(self):
        d = KappaLogistic(2.0, 0.3, loc=1.7)
        assert d.cdf(1.7) == pytest.approx(0.5, rel=1e-13)
        assert d.mode().x == 1.7

    def test_quantile_closed_form(self):
        d = KappaLogistic(2.0, 0.3, loc=-0.5)
        for p in (0.05, 0.5, 0.95):
            expect = -0.5 + kappa_log(p / (1 - p), 0.3) / 2.0
            assert d.quantile(p) == pytest.approx(expect, rel=1e-12)
            assert d.cdf(d.quantile(p)) == pytest.approx(p, rel=1e-12)

    def test_classical_limit_is_logistic(self):
        d = KappaLogistic(1.0, 0.0)
        x = np.linspace(-4, 4, 9)
        np.testing.assert_allclose(d.cdf(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)

    def test_moments_not_provided(self):
        with pytest.raises(DomainError):
            KappaLogistic(1.0, 0.3).raw_moment(1)


def _mp_log_e(x, alpha, beta, kappa):
    """50-digit log kappa_exp(-beta x^alpha)."""
    k, y = mpmath.mpf(kappa), mpmath.mpf(beta) * mpmath.mpf(x) ** alpha
    return -y if k == 0 else -mpmath.asinh(k * y) / k


class TestTailsFromLogE:
    """Type III (and Type II = Type III at lambda = 1) evaluated from log E
    keep relative precision where E is close to 0 or 1; 50-digit mpmath."""

    def test_type2_cdf_near_origin(self):
        with mpmath.workdps(50):
            expect = float(-mpmath.expm1(_mp_log_e(1e-12, 1.5, 1.0, 0.3)))
        assert Type2(1.5, 1.0, 0.3).cdf(1e-12) == pytest.approx(expect, rel=1e-14, abs=0.0)

    def test_type2_alpha_negative_survival_far_out(self):
        with mpmath.workdps(50):
            expect = float(-mpmath.expm1(_mp_log_e(1e8, -1.5, 1.0, 0.3)))
        assert Type2(-1.5, 1.0, 0.3).survival(1e8) == pytest.approx(expect, rel=1e-14, abs=0.0)

    def test_type3_alpha_negative_cdf_near_origin(self):
        with mpmath.workdps(50):
            e = mpmath.exp(_mp_log_e(1e-3, -1.5, 1.0, 0.3))
            expect = float(2 * e / (1 + e))
        assert Type3(-1.5, 1.0, 2.0, 0.3).cdf(1e-3) == pytest.approx(expect, rel=1e-13, abs=0.0)

    def test_pdf_at_origin_limits(self):
        assert Type3(-1.0, 1.0, 2.0, 0.0).pdf(0.0) == 0.0  # essential zero
        # alpha < 0, |alpha| = kappa: lambda (|alpha|/k) (2 k beta)^(-1/k) = 2
        assert Type3(-0.5, 1.0, 2.0, 0.5).pdf(0.0) == pytest.approx(2.0, rel=1e-15)

    def test_logpdf_far_tail(self):
        x, a, b, lam, k = 1e60, 1.5, 1.0, 2.0, 0.3
        with mpmath.workdps(50):
            le = _mp_log_e(x, a, b, k)
            u = k * b * mpmath.mpf(x) ** a
            expect = float(
                mpmath.log(lam * a * b)
                + (a - 1) * mpmath.log(x)
                - mpmath.log(mpmath.sqrt(1 + u * u))
                + le
                - 2 * mpmath.log1p((lam - 1) * mpmath.exp(le))
            )
        got = Type3(a, b, lam, k).logpdf(x)
        assert math.isfinite(got) and got == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("x", [1e110, 1e200])
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_logpdf_past_u_overflow(self, lam, x):
        # u = k beta x^alpha is past 1.3e154, where u*u overflows
        a, b, k = 1.5, 1.0, 0.3
        with mpmath.workdps(50):
            le = _mp_log_e(x, a, b, k)
            u = k * b * mpmath.mpf(x) ** a
            expect = float(
                mpmath.log(lam * a * b)
                + (a - 1) * mpmath.log(x)
                - mpmath.log(mpmath.sqrt(1 + u * u))
                + le
                - 2 * mpmath.log1p((lam - 1) * mpmath.exp(le))
            )
        d = Type2(a, b, k) if lam == 1.0 else Type3(a, b, lam, k)
        assert d.logpdf(x) == pytest.approx(expect, rel=1e-13)

    def test_classical_density_where_y_overflows(self):
        # kappa = 0: beta x^alpha = inf, where k * y used to read 0 * inf
        assert Type2(2.5, 1.0, 0.0).logpdf(1e200) == -np.inf
        assert Type2(-2.5, 1.0, 0.0).logpdf(1e-200) == -np.inf
        assert Type3(2.5, 1.0, 2.0, 0.0).pdf(1e200) == 0.0

    @pytest.mark.parametrize("d", [Type2(1.5, 1.0, 0.3), Type3(1.5, 1.0, 2.0, 0.3)], ids=repr)
    def test_density_at_infinity(self, d):
        assert d.pdf(np.inf) == 0.0
        assert d.logpdf(np.inf) == -np.inf
        assert np.array_equal(d.logpdf(np.array([np.inf, np.inf])), [-np.inf, -np.inf])

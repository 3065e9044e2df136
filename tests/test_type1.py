import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammaincc, gammaln
from scipy.stats import norm as normal_dist

from kappadist import (
    DomainError,
    KappaErlang,
    KappaNormal,
    MomentDivergesError,
    Type1,
    VarianceDivergesError,
    erlang_polynomials,
    oracle,
)
from conftest import integrate_pdf, ks_statistic

GRID = [
    # (alpha, beta, nu, kappa) spanning singular heads and alpha < 0
    (1.0, 1.0, 1.0, 0.25),
    (2.0, 1.5, 0.5, 0.3),
    (0.5, 2.0, 1.2, 0.4),
    (1.0, 0.7, 2.5, 0.2),
    (3.0, 1.0, 0.2, 0.6),
    (-1.0, 1.0, 1.5, 0.3),
    (-2.0, 2.0, 0.8, 0.45),
    (1.0, 1.0, 1.0, 0.0),
    (2.0, 1.0, 0.5, 0.0),
]


class TestValidation:
    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            Type1(0.0, 1.0, 1.0, 0.3)
        with pytest.raises(DomainError):
            Type1(1.0, -1.0, 1.0, 0.3)
        with pytest.raises(DomainError):
            Type1(1.0, 1.0, 0.0, 0.3)
        with pytest.raises(DomainError):
            Type1(1.0, 1.0, 4.0, 0.3)  # nu >= 1/kappa


class TestDensity:
    @pytest.mark.parametrize("params", GRID)
    def test_normalization(self, params):
        assert integrate_pdf(Type1(*params)) == pytest.approx(1.0, abs=1e-8)

    def test_exponential_member_prefactor(self):
        # alpha = nu = 1: pdf(0) = (1 - kappa^2) beta
        for k, b in ((0.25, 1.0), (0.5, 2.0)):
            d = Type1(1.0, b, 1.0, k)
            assert d.pdf(0.0) == pytest.approx((1.0 - k * k) * b, rel=1e-12)

    def test_pdf_matches_cdf_derivative(self):
        for params in [(1.0, 1.0, 1.0, 0.25), (2.0, 1.5, 0.5, 0.3), (-1.0, 1.0, 1.5, 0.3)]:
            d = Type1(*params)
            for x in (0.4, 1.1, 2.7):
                fd = oracle.differentiate(d.cdf, x, order=1)
                assert d.pdf(x) == pytest.approx(fd.value, rel=1e-7, abs=1e-10)

    def test_cdf_against_quadrature(self):
        # closed incomplete-Beta route vs direct integration of the pdf
        from scipy import integrate

        d = Type1(1.5, 1.2, 0.8, 0.35)
        for x in (0.2, 0.9, 2.5):
            direct, _ = integrate.quad(d.pdf, 0.0, x, epsabs=1e-12, epsrel=1e-12)
            assert d.cdf(x) == pytest.approx(direct, rel=1e-10)

    def test_pareto_tail_law(self):
        # pdf ~ x^{-(1 + alpha/kappa - alpha nu)} for large x
        a, b, nu, k = 1.5, 1.0, 0.9, 0.3
        d = Type1(a, b, nu, k)
        slope_expect = -(1.0 + a / k - a * nu)
        x1, x2 = 1e5, 1e6
        slope = (d.logpdf(x2) - d.logpdf(x1)) / (math.log(x2) - math.log(x1))
        assert slope == pytest.approx(slope_expect, rel=1e-4)


class TestMoments:
    @pytest.mark.parametrize("params", GRID[:7])
    def test_closed_vs_quadrature(self, params):
        d = Type1(*params)
        for m in (1, 2):
            try:
                closed = d.raw_moment(m)
            except MomentDivergesError:
                continue
            quad = d._moment_by_quadrature(m)
            assert closed == pytest.approx(quad, rel=1e-8)

    def test_exponential_member_mean(self):
        # alpha = nu = beta = 1: mean = (1 - kappa^2)/(1 - 4 kappa^2)
        d = Type1(1.0, 1.0, 1.0, 0.25)
        assert d.mean() == pytest.approx((1 - 0.0625) / (1 - 4 * 0.0625), rel=1e-12)

    def test_divergence_window(self):
        d = Type1(1.0, 1.0, 1.0, 0.3)  # window: 0 < 1 + m < 1/0.3
        with pytest.raises(MomentDivergesError) as exc:
            d.raw_moment(3)
        assert "nu + m/alpha" in str(exc.value)
        d2 = Type1(-1.0, 1.0, 1.5, 0.3)  # needs 1.5 - m > 0
        with pytest.raises(MomentDivergesError):
            d2.raw_moment(2)


class TestShape:
    def test_mode_closed_vs_argmax(self):
        for params in [(1.0, 1.0, 2.0, 0.2), (2.0, 1.5, 1.5, 0.3), (3.0, 1.0, 0.8, 0.25)]:
            d = Type1(*params)
            res = d.mode()
            assert res.kind == "interior"
            hi = d.quantile(1.0 - 1e-9)
            xnum = oracle.argmax(d.pdf, 1e-12 * hi, hi, tol=1e-12)
            assert res.x == pytest.approx(xnum, abs=1e-6 * max(1.0, xnum))

    def test_mode_markers(self):
        assert Type1(1.0, 1.0, 0.5, 0.3).mode().kind == "pole"
        res = Type1(1.0, 1.0, 1.0, 0.3).mode()
        assert res.kind == "monotone"
        assert res.pdf_at_origin == pytest.approx((1 - 0.09) * 1.0, rel=1e-12)

    def test_sampling_ks(self):
        d = Type1(1.0, 1.0, 2.0, 0.2)
        draws = d.sample(20000, 7)
        assert ks_statistic(draws, d.cdf) < 1.63 / math.sqrt(20000)


class TestErlang:
    def test_printed_low_order_members(self):
        k = 0.2
        # n = 2: R = 1 + 2 k^2 x^2, Q = x
        p2 = erlang_polynomials(2, k)
        np.testing.assert_allclose(
            p2.norm * p2.c, [1.0, 0.0, 2.0 * k * k], rtol=1e-13, atol=1e-16
        )
        np.testing.assert_allclose(p2.q, [0.0, 1.0], rtol=1e-13, atol=1e-16)
        # n = 3: R = x + (3/2) k^2 (1 - k^2) x^3, Q = 1 + (1/2)(1 - k^2) x^2
        p3 = erlang_polynomials(3, k)
        np.testing.assert_allclose(
            p3.norm * p3.c,
            [0.0, 1.0, 0.0, 1.5 * k * k * (1 - k * k)],
            rtol=1e-13,
            atol=1e-16,
        )
        np.testing.assert_allclose(
            p3.q, [1.0, 0.0, 0.5 * (1 - k * k)], rtol=1e-13, atol=1e-16
        )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ansatz_derivative_identity(self, n):
        k = min(0.9 / n, 0.3)
        d = KappaErlang(n, 1.0, k)
        for x in (0.3, 1.0, 2.5, 6.0):
            fd = oracle.differentiate(d.cdf, x, order=1)
            assert fd.value == pytest.approx(d.pdf(x), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_classical_limit_is_erlang(self, n):
        d = KappaErlang(n, 1.3, 0.0)
        for x in (0.5, 1.5, 4.0):
            assert d.survival(x) == pytest.approx(float(gammaincc(n, 1.3 * x)), rel=1e-12)

    def test_closed_cdf_matches_general_route(self):
        d = KappaErlang(3, 2.0, 0.2)
        general = Type1(1.0, 2.0, 3.0, 0.2)
        x = np.array([0.1, 0.6, 1.4, 3.3])
        np.testing.assert_allclose(d.cdf(x), general.cdf(x), rtol=1e-10, atol=1e-12)

    def test_order_validation(self):
        with pytest.raises(DomainError):
            erlang_polynomials(4, 0.25)  # n*kappa = 1
        with pytest.raises(DomainError):
            erlang_polynomials(0, 0.2)
        with pytest.raises(DomainError):
            erlang_polynomials(5, 0.2 + 1e-14)  # within 1e-12 of the pole 1/5


class TestKappaNormal:
    def test_normalizes_on_real_line(self):
        from scipy import integrate

        d = KappaNormal(1.5, 0.4)
        val, _ = integrate.quad(d.pdf, 0.0, np.inf, epsabs=1e-11, epsrel=1e-11)
        assert 2.0 * val == pytest.approx(1.0, abs=1e-9)

    def test_classical_limit(self):
        d = KappaNormal(0.5, 0.0)  # beta = 1/(2 sigma^2) with sigma = 1
        x = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(d.pdf(x), normal_dist.pdf(x), rtol=1e-12)
        assert d.variance() == pytest.approx(1.0)

    def test_variance_closed_vs_quadrature(self):
        from scipy import integrate

        d = KappaNormal(1.0, 0.3)
        quad, _ = integrate.quad(
            lambda x: x * x * d.pdf(x), 0.0, np.inf, epsabs=1e-11, epsrel=1e-11
        )
        assert d.variance() == pytest.approx(2.0 * quad, rel=1e-8)
        assert d.mean() == 0.0

    def test_variance_divergence(self):
        with pytest.raises(VarianceDivergesError):
            KappaNormal(1.0, 0.7).variance()


def _mp_upper_share(nu, kappa, y):
    """50-digit share of y = beta x^alpha above y, from an exact s."""
    with mpmath.workdps(50):
        k, nu, y = mpmath.mpf(kappa), mpmath.mpf(nu), mpmath.mpf(y)
        s = 1 / (k * y + mpmath.sqrt(1 + (k * y) ** 2)) ** 2
        a = 1 / (2 * k) - nu / 2
        w1, w2 = (a + nu) / (2 * a + nu), a / (2 * a + nu)
        return float(
            w1 * mpmath.betainc(a, nu, 0, s, regularized=True)
            + w2 * mpmath.betainc(a + 1, nu, 0, s, regularized=True)
        )


class TestDeepTail:
    """Past u = kappa beta x^alpha ~ 1e154 the share comes from log s."""

    @pytest.mark.parametrize("x", [1e-103, 1e-110, 1e-150])
    def test_alpha_negative_cdf_against_mpmath(self, x):
        d = Type1(-1.5, 1.0, 1.0, 0.95)
        expect = _mp_upper_share(1.0, 0.95, mpmath.mpf(x) ** -1.5)
        assert d.cdf(x) == pytest.approx(expect, rel=1e-12, abs=0.0)
        assert d.survival(x) == pytest.approx(1.0 - expect, rel=1e-15)

    @pytest.mark.parametrize("x", [1e103, 1e110])
    def test_alpha_positive_survival_against_mpmath(self, x):
        d = Type1(1.5, 1.0, 0.8, 0.95)
        expect = _mp_upper_share(0.8, 0.95, mpmath.mpf(x) ** 1.5)
        assert d.survival(x) == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_quantile_lands_on_the_cdf(self):
        d = Type1(-1.5, 1.0, 1.0, 0.95)
        for p in (1e-9, 1e-10):
            assert d.cdf(d.quantile(p)) == pytest.approx(p, rel=1e-12, abs=0.0)


class TestDensityAtInfinity:
    """The density is 0 at infinity; the log form must not read 0 * inf
    (KappaNormal: alpha nu - 1 = 0) or inf - inf (alpha nu > 1)."""

    @pytest.mark.parametrize(
        "d",
        [KappaNormal(1.0, 0.3), Type1(2.5, 1.0, 0.5, 0.3), Type1(1.0, 1.0, 2.0, 0.3),
         KappaErlang(2, 1.0, 0.3)],
        ids=repr,
    )
    def test_pdf_zero_logpdf_minus_inf(self, d):
        ends = [-np.inf, np.inf] if d.support_real_line else [np.inf]
        for x in ends:
            assert d.pdf(x) == 0.0
            assert d.logpdf(x) == -np.inf
        assert np.array_equal(d.pdf(np.array(ends)), np.zeros(len(ends)))
        assert np.array_equal(d.logpdf(np.array(ends)), np.full(len(ends), -np.inf))

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
    kappa_exp,
    oracle,
)
from kappadist.core import _gamma_share
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
        # the general route is the 40-digit Beta mixture of y = beta x
        d = KappaErlang(3, 2.0, 0.2)
        x = np.array([0.1, 0.6, 1.4, 3.3])
        general = [_mp_shares(3.0, 0.2, 2.0 * v)[1] for v in x]
        np.testing.assert_allclose(d.cdf(x), general, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_survival_is_the_printed_polynomial(self, n):
        # the paper's S = [R + Q sqrt(1 + k^2 z^2)] kappa_exp(-z) as the oracle
        # of the finite-sum share
        k = min(0.9 / n, 0.3)
        p = erlang_polynomials(n, k)
        d = KappaErlang(n, 1.0, k)
        for z in (0.1, 1.0, 5.0, 30.0):
            expect = (p.r_value(z) + p.q_value(z) * math.sqrt(1.0 + (k * z) ** 2)) * kappa_exp(-z, k)
            assert d.survival(z) == pytest.approx(expect, rel=1e-13, abs=0.0), z

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_laws_next_to_a_pole_of_the_polynomials(self, n):
        # erlang_polynomials refuses kappa within 1e-12 of 1/m; the law is a
        # Type I law there all the same, with a = 1/2k - n/2 of order 1e-12
        k = 1.0 / n - 1e-13
        d = KappaErlang(n, 1.0, k)
        x = np.array([1e-3, 0.3, 2.0, 40.0, 1e6, 1e100])
        expect = np.array([_mp_shares(float(n), k, v) for v in x])
        np.testing.assert_allclose(d.survival(x), expect[:, 0], rtol=1e-13, atol=0.0)
        # the reference's 1 - s keeps no digit of s = r^2 at x = 1e100
        np.testing.assert_allclose(d.cdf(x[:-1]), expect[:-1, 1], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(d.cdf(x) + d.survival(x), 1.0, rtol=0.0, atol=1e-15)

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


def _mp_shares(nu, kappa, y):
    """40-digit (upper, lower) shares of y, each from its own incomplete Beta."""
    with mpmath.workdps(40):
        k, nu, y = mpmath.mpf(kappa), mpmath.mpf(nu), mpmath.mpf(y)
        u = k * y
        r = 1 / (u + mpmath.sqrt(1 + u * u))
        s = r * r
        a = 1 / (2 * k) - nu / 2
        w1, w2 = (a + nu) / (2 * a + nu), a / (2 * a + nu)

        def ib(p, q, x):
            return mpmath.betainc(p, q, 0, x, regularized=True)

        upper = w1 * ib(a, nu, s) + w2 * ib(a + 1, nu, s)
        lower = w1 * ib(nu, a, 1 - s) + w2 * ib(nu, a + 1, 1 - s)
        return float(upper), float(lower)


class TestSharesAtSmallKappa:
    """At small kappa the Beta law of s sits close to 1; the share is split
    at its mean, so the upper tail is no longer 1 - (lower share)."""

    @pytest.mark.parametrize("k", [0.9, 0.3, 0.1, 0.02, 0.01])
    def test_both_shares_against_mpmath(self, k):
        ys = np.geomspace(1e-3, 1e3, 25)
        for nu in (0.5, 2.0, 5.0):
            if not nu * k < 1.0:
                continue
            refs = np.array([_mp_shares(nu, k, y) for y in ys])
            for got, ref in ((_gamma_share(ys, nu, k, True), refs[:, 0]),
                             (_gamma_share(ys, nu, k, False), refs[:, 1])):
                keep = ref >= np.finfo(float).tiny  # below it no double holds the digits
                err = np.abs(got[keep] / ref[keep] - 1.0)
                assert err.max() <= 1e-13, (nu, err.max())

    @pytest.mark.parametrize("k", [0.01, 0.02])
    @pytest.mark.parametrize("a, nu", [(1.0, 2.0), (1.5, 0.5), (-1.5, 2.0)])
    def test_tail_round_trip(self, a, nu, k):
        # the survival the solver inverts, and the 40-digit one at its root
        d = Type1(a, 1.0, nu, k)
        for e in range(1, 54, 4):  # 1 - 2^-53 is the last double below 1
            q = 2.0**-e
            x = d.quantile(1.0 - q)
            assert d.survival(x) == pytest.approx(q, rel=1e-11, abs=0.0), e
            upper, lower = _mp_shares(nu, k, mpmath.mpf(x) ** a)
            assert (upper if a > 0.0 else lower) == pytest.approx(q, rel=1e-11, abs=0.0), e

    @pytest.mark.parametrize("k", [1e-3, 0.02, 0.3])
    def test_kappa_normal_lower_tail(self, k):
        # left of 0 the cdf is half the half-line survival, not 1/2 minus
        # half the share: KappaNormal(1, 1e-3).cdf(-8) read 0
        b = 1.3
        d = KappaNormal(b, k)
        for x in (-0.5, -3.0, -8.0, -20.0):
            expect = 0.5 * _mp_shares(0.5, k, b * x * x)[0]
            assert d.cdf(x) == pytest.approx(expect, rel=1e-12, abs=0.0), x
            assert d.survival(-x) == d.cdf(x)
            assert d.quantile(d.cdf(x)) == pytest.approx(x, rel=1e-12), x

    def test_far_tail_matches_erlang(self):
        # 1 - lower read 0.0 here
        assert Type1(1.0, 1.0, 2.0, 1e-3).survival(60.0) == pytest.approx(
            _mp_shares(2.0, 1e-3, 60.0)[0], rel=1e-12, abs=0.0
        )


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


class TestErlangOracle:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_survival_against_mpmath_tail_integral(self, n):
        """The closed Erlang survival against 50-digit quadrature of the
        density's tail over its total; x = sinh(s)/k turns kappa_exp(-x)
        into exp(-s/k), so both integrands decay exponentially."""
        kappa = min(0.9 / n, 0.3)
        d = KappaErlang(n, 1.0, kappa)
        with mpmath.workdps(50):
            k = mpmath.mpf(kappa)

            def f(s):
                return (mpmath.sinh(s) / k) ** (n - 1) * mpmath.exp(-s / k) * mpmath.cosh(s)

            total = mpmath.quad(f, [0, mpmath.inf])
            for z in (0.1, 1.0, 5.0, 30.0):
                expect = float(mpmath.quad(f, [mpmath.asinh(k * z), mpmath.inf]) / total)
                assert d.survival(z) == pytest.approx(expect, rel=1e-13)


class TestErlangFarTail:
    @pytest.mark.parametrize("x", [1e90, 1e95, 1e98, 1e100, 1e150, 1e200])
    def test_survival_where_kappa_exp_leaves_the_normal_range(self, x):
        # the paper's polynomial body times kappa_exp(-x) loses its digits once
        # the latter is subnormal; the share in log form does not
        got = KappaErlang(2, 1.0, 0.3).survival(x)
        assert got == pytest.approx(_mp_upper_share(2.0, 0.3, x), rel=1e-12, abs=0.0)

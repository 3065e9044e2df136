import math

import mpmath
import numpy as np
import pytest

from kappadist import (
    DegenerateFamilyError,
    Distribution,
    DomainError,
    MomentDivergesError,
    Type4,
    kappa_exp,
    oracle,
)
from conftest import integrate_pdf, ks_statistic

GRID = [
    (1.0, 1.0, 0.5),
    (2.0, 1.5, 0.3),
    (0.7, 2.0, 0.6),
    (1.5, 0.5, 0.8),
    (3.0, 1.0, 0.2),
]


class TestValidation:
    def test_no_classical_limit(self):
        with pytest.raises(DegenerateFamilyError):
            Type4(1.0, 1.0, 0.0)
        with pytest.raises(DegenerateFamilyError):
            Type4(1.0, 1.0, 1e-6)
        with pytest.raises(DegenerateFamilyError):
            Type4(1.0, 1.0, 9e-4)

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            Type4(-1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            Type4(1.0, 0.0, 0.5)


class TestDensity:
    @pytest.mark.parametrize("params", GRID)
    def test_normalization(self, params):
        assert integrate_pdf(Type4(*params)) == pytest.approx(1.0, abs=1e-8)

    def test_cdf_closed_form(self):
        a, b, k = 1.5, 1.2, 0.4
        d = Type4(a, b, k)
        for x in (0.3, 1.0, 2.7):
            y = b * x**a
            expect = (2 * k * b) ** (1 / k) * x ** (a / k) * kappa_exp(-y, k)
            assert d.cdf(x) == pytest.approx(expect, rel=1e-12)
        assert d.cdf(0.0) == 0.0

    def test_pdf_matches_cdf_derivative(self):
        for params in GRID[:3]:
            d = Type4(*params)
            for x in (0.4, 1.1, 3.0):
                fd = oracle.differentiate(d.cdf, x, order=1)
                assert d.pdf(x) == pytest.approx(fd.value, rel=1e-8, abs=1e-11)

    def test_survival_tail_constant(self):
        # 1 - P ~ x^(-2 alpha) / (4 kappa^3 beta^2)
        a, b, k = 1.0, 1.0, 0.5
        d = Type4(a, b, k)
        x = 1e5
        assert d.survival(x) * x ** (2 * a) == pytest.approx(
            1.0 / (4 * k**3 * b * b), rel=1e-4
        )


class TestMoments:
    @pytest.mark.parametrize("params", GRID)
    def test_closed_vs_quadrature(self, params):
        d = Type4(*params)
        for m in (0.5, 1):
            if not m < 2 * d.alpha:
                continue
            assert d.raw_moment(m) == pytest.approx(
                d._moment_by_quadrature(m), rel=1e-8
            )

    def test_divergence_window(self):
        d = Type4(1.0, 1.0, 0.5)
        with pytest.raises(MomentDivergesError) as exc:
            d.raw_moment(2)
        assert "2*alpha" in str(exc.value)
        # pdf ~ x^(alpha/kappa - 1) = x at the origin: <x^-1> exists, <x^-2.5> does not
        assert d.raw_moment(-1) == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert d.raw_moment(-1) == pytest.approx(d._moment_by_quadrature(-1), rel=1e-12)
        with pytest.raises(MomentDivergesError, match="m > -alpha/kappa"):
            d.raw_moment(-2.5)


class TestQuantileAndSampling:
    @pytest.mark.parametrize("params", GRID)
    def test_roundtrip(self, params):
        d = Type4(*params)
        for p in (0.0, 0.001, 0.3, 0.9, 0.9999):
            assert d.cdf(d.quantile(p)) == pytest.approx(p, rel=1e-10, abs=1e-12)

    def test_array_quantile_matches_scalar(self):
        d = Type4(1.5, 1.0, 0.4)
        ps = np.array([0.1, 0.5, 0.95])
        arr = d.quantile(ps)
        for p, xa in zip(ps, arr):
            assert d.quantile(float(p)) == pytest.approx(float(xa), rel=1e-9)

    def test_sampling_ks(self):
        d = Type4(2.0, 1.0, 0.4)
        draws = d.sample(20000, 13)
        assert ks_statistic(draws, d.cdf) < 1.63 / math.sqrt(20000)

    @pytest.mark.parametrize("params", GRID)
    def test_closed_form_matches_solver(self, params):
        # the exact inverse against the generic log-space solver
        d = Type4(*params)
        ps = np.array([1e-300, 1e-12, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-12, 1.0 - 2.0**-53])
        np.testing.assert_allclose(d.quantile(ps), Distribution.quantile(d, ps), rtol=1e-13)

    def test_mode_is_interior(self):
        res = Type4(1.0, 1.0, 0.5).mode()
        assert res.kind == "interior" and res.x > 0.0


class TestFarTail:
    @pytest.mark.parametrize("u", [1e154, 1e160, 1e200, 1e250, 1e300])
    @pytest.mark.parametrize("alpha, kappa", [(1.5, 0.3), (2.5, 0.9)])
    def test_logpdf_past_u_overflow(self, alpha, kappa, u):
        # u = k beta x^alpha past 1.3e154, where u*u overflows
        x = (u / kappa) ** (1.0 / alpha)
        # pdf = (alpha/x) (1/k) P (1 - u/sqrt(1 + u^2)), P = (1 - r^2)^(1/k),
        # r = exp(-asinh(u)); enough digits to hold 1 - u/sqrt(1 + u^2) as is
        with mpmath.workdps(2 * int(math.log10(u)) + 60):
            k, xm = mpmath.mpf(kappa), mpmath.mpf(x)
            um = k * xm**alpha
            r2 = mpmath.exp(-2 * mpmath.asinh(um))
            expect = float(
                mpmath.log(alpha / (k * xm))
                + mpmath.log(1 - r2) / k
                + mpmath.log(1 - um / mpmath.sqrt(1 + um * um))
            )
        assert Type4(alpha, 1.0, kappa).logpdf(x) == pytest.approx(expect, rel=1e-13)
        assert Type4(alpha, 1.0, kappa).logpdf(np.array([x]))[0] == pytest.approx(expect, rel=1e-13)

    def test_logpdf_at_1e62(self):
        # 400-digit mpmath value; u = 0.3e155
        assert Type4(2.5, 1.0, 0.3).logpdf(1e62) == pytest.approx(-852.72659262949298, rel=1e-14)

    @pytest.mark.parametrize("kappa", [0.3, 0.9])
    def test_cdf_monotone_beyond_cancellation_point(self, kappa):
        d = Type4(1.5, 1.0, kappa)
        x = np.geomspace(1e2, 1e8, 10**4)
        assert np.all(np.diff(d.cdf(x)) >= 0.0)
        assert np.all(np.diff(d.survival(x)) <= 0.0)

    def test_limits_at_infinity(self):
        d = Type4(1.5, 1.0, 0.5)
        assert d.cdf(np.inf) == 1.0 and d.survival(np.inf) == 0.0

    @pytest.mark.parametrize("kappa", [0.3, 0.9])
    def test_survival_against_mpmath(self, kappa):
        d = Type4(1.5, 1.0, kappa)
        with mpmath.workdps(50):
            k = mpmath.mpf(kappa)
            u = k * mpmath.mpf(10) ** 9  # k beta x^alpha at x = 1e6
            exact = -mpmath.expm1((mpmath.log(2 * u) - mpmath.asinh(u)) / k)
            assert d.survival(1e6) == pytest.approx(float(exact), rel=1e-12, abs=0.0)


class TestMomentOracle:
    @pytest.mark.parametrize("alpha", [0.7, 1.5, 2.5])
    @pytest.mark.parametrize("kappa", [0.1, 0.3, 0.6, 0.9])
    def test_raw_moment_against_mpmath_survival_integral(self, alpha, kappa):
        """<x^m> = beta^(-q) <Y^q>, q = m/alpha, with <Y^q> the 50-digit
        integral of q y^(q-1) S_Y(y); y = sinh(s)/k makes the cdf
        (1 - e^(-2s))^(1/k), and below s = 1 the integral is taken as
        y1^q minus that of q y^(q-1) times the cdf, free of the y^(q-1)
        singularity."""
        beta = 1.3
        d = Type4(alpha, beta, kappa)
        for m in (0.1, alpha, 0.99 * 2.0 * alpha):
            with mpmath.workdps(50):
                k, q = mpmath.mpf(kappa), mpmath.mpf(m) / alpha

                def weight(s):
                    return q * (mpmath.sinh(s) / k) ** (q - 1) * mpmath.cosh(s) / k

                def log_cdf(s):
                    return mpmath.log1p(-mpmath.exp(-2 * s)) / k

                head = (mpmath.sinh(1) / k) ** q - mpmath.quad(
                    lambda s: weight(s) * mpmath.exp(log_cdf(s)), [0, 1]
                )
                tail = mpmath.quad(lambda s: -weight(s) * mpmath.expm1(log_cdf(s)), [1, mpmath.inf])
                expect = float(mpmath.mpf(beta) ** -q * (head + tail))
            assert d.raw_moment(m) == pytest.approx(expect, rel=1e-12)

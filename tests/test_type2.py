import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from kappadist import (
    DomainError,
    MomentDivergesError,
    Type2,
    kappa_exp,
    kappa_log,
    oracle,
)
from conftest import integrate_pdf, ks_statistic, mp_log_mellin_ratio

GRID = [
    (1.0, 1.0, 0.25),
    (2.0, 1.0, 0.3),
    (0.7, 2.0, 0.45),
    (3.5, 0.5, 0.2),
    (1.0, 1.0, 0.0),
    (2.5, 1.5, 0.0),
    (-1.0, 1.0, 0.3),
    (-2.0, 1.5, 0.5),
]


class TestDensity:
    @pytest.mark.parametrize("params", GRID)
    def test_normalization(self, params):
        assert integrate_pdf(Type2(*params)) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("params", GRID[:6])
    def test_survival_is_deformed_exponential(self, params):
        d = Type2(*params)
        x = np.array([0.2, 0.8, 1.7, 4.0])
        expect = kappa_exp(-d.beta * x**d.alpha, d.kappa)
        np.testing.assert_allclose(d.survival(x), expect, rtol=1e-13)

    def test_alpha_negative_swaps_roles(self):
        d = Type2(-1.5, 1.0, 0.3)
        x = np.array([0.5, 1.0, 3.0])
        expect = kappa_exp(-x**-1.5, 0.3)
        np.testing.assert_allclose(d.cdf(x), expect, rtol=1e-13)
        assert d.cdf(1e-9) < 1e-6 and d.cdf(1e9) > 1 - 1e-6

    def test_pdf_matches_cdf_derivative(self):
        for params in [(2.0, 1.0, 0.3), (0.7, 2.0, 0.45), (-1.5, 1.0, 0.3)]:
            d = Type2(*params)
            for x in (0.4, 1.2, 2.9):
                fd = oracle.differentiate(d.cdf, x, order=1)
                assert d.pdf(x) == pytest.approx(fd.value, rel=1e-8, abs=1e-11)


class TestHazard:
    def test_pdf_equals_hazard_times_survival(self):
        d = Type2(2.3, 1.4, 0.35)
        x = np.linspace(0.1, 5.0, 17)
        np.testing.assert_allclose(
            d.pdf(x), d.hazard_rate(x) * d.survival(x), rtol=1e-12
        )

    def test_survival_is_exp_of_minus_cum_hazard(self):
        for params in GRID[:6]:
            d = Type2(*params)
            x = np.array([0.3, 1.0, 2.5, 8.0])
            np.testing.assert_allclose(
                d.survival(x), np.exp(-np.asarray(d.cum_hazard(x))), rtol=1e-12
            )

    def test_cum_hazard_closed_form(self):
        d = Type2(2.0, 1.5, 0.4)
        x = 1.7
        y = 1.5 * x**2.0
        assert d.cum_hazard(x) == pytest.approx(math.asinh(0.4 * y) / 0.4, rel=1e-13)

    def test_cum_hazard_is_integral_of_hazard(self):
        d = Type2(1.5, 1.0, 0.3)
        val, _ = integrate.quad(d.hazard_rate, 0.0, 2.0, epsabs=1e-12, epsrel=1e-12)
        assert d.cum_hazard(2.0) == pytest.approx(val, rel=1e-10)


class TestQuantile:
    @pytest.mark.parametrize("params", GRID)
    def test_roundtrip(self, params):
        d = Type2(*params)
        ps = np.array([0.001, 0.1, 0.5, 0.9, 0.9999])
        np.testing.assert_allclose(d.cdf(d.quantile(ps)), ps, rtol=1e-12, atol=1e-13)

    def test_median_closed_form(self):
        # median = (ln_k 2 / beta)^(1/alpha), consistent with the quantile
        for a, b, k in [(2.0, 1.5, 0.4), (1.0, 1.0, 0.25)]:
            d = Type2(a, b, k)
            expect = (kappa_log(2.0, k) / b) ** (1.0 / a)
            assert d.quantile(0.5) == pytest.approx(expect, rel=1e-13)
            assert d.survival(expect) == pytest.approx(0.5, rel=1e-13)


class TestMoments:
    @pytest.mark.parametrize("params", GRID[:6])
    def test_closed_vs_quadrature(self, params):
        d = Type2(*params)
        for m in (1, 2):
            try:
                closed = d.raw_moment(m)
            except MomentDivergesError:
                continue
            assert closed == pytest.approx(d._moment_by_quadrature(m), rel=1e-8)

    def test_exponential_member_moments(self):
        # alpha = beta = 1: <x> = 1/(1 - kappa^2)... via the master integral
        d = Type2(1.0, 1.0, 0.25)
        quad = d._moment_by_quadrature(1)
        assert d.mean() == pytest.approx(quad, rel=1e-9)

    def test_divergence_window(self):
        d = Type2(1.0, 1.0, 0.3)  # needs m < alpha/kappa = 10/3
        with pytest.raises(MomentDivergesError) as exc:
            d.raw_moment(4)
        assert "alpha/kappa" in str(exc.value)
        with pytest.raises(MomentDivergesError):
            Type2(-1.0, 1.0, 0.3).raw_moment(1.5)  # m/alpha <= -1


class TestInequality:
    def test_gini_printed_value(self):
        # alpha = 1: G = (2 + kappa^2)/(4 - kappa^2); 0.6 at kappa = 1/2
        assert Type2(1.0, 1.0, 0.5).gini() == pytest.approx(0.6, rel=1e-12)
        for k in (0.1, 0.3, 0.45):
            expect = (2.0 + k * k) / (4.0 - k * k)
            assert Type2(1.0, 2.0, k).gini() == pytest.approx(expect, rel=1e-10)

    def test_gini_against_defining_integral(self):
        # G = 1 - (1/mean) * integral_0^inf S(x)^2 dx
        for a, b, k in [(1.0, 1.0, 0.4), (2.0, 1.5, 0.3), (1.5, 1.0, 0.0)]:
            d = Type2(a, b, k)
            res = oracle.integrate_semiaxis(
                lambda x: d.survival(x) ** 2,
                tol=1e-10,
                scale=d.quantile(0.9),
                tail_power=(2.0 * a / k) if k > 0 else None,
            )
            assert d.gini() == pytest.approx(1.0 - res.value / d.mean(), rel=1e-7)

    @pytest.mark.parametrize("a, k", [(1.2, 1e-5), (1.0, 1e-8), (3.5, 0.2), (2.5, 0.9)])
    def test_gini_against_mpmath(self, a, k):
        # 1 - (a+k)/(a+k/2) G(1/k - c) G(1/2k + c)/(G(1/k + c) G(1/2k - c)), c = 1/2a
        with mpmath.workdps(40):
            am, km = mpmath.mpf(a), mpmath.mpf(k)
            c = 1 / (2 * am)
            lg = mpmath.loggamma
            h = 1 / (2 * km)
            t = mpmath.exp(lg(1 / km - c) - lg(1 / km + c) + lg(h + c) - lg(h - c))
            expect = float(1 - (am + km) / (am + km / 2) * t)
        assert Type2(a, 1.0, k).gini() == pytest.approx(expect, rel=1e-14)

    def test_gini_classical_limit(self):
        assert Type2(2.0, 1.0, 0.0).gini() == pytest.approx(1.0 - 2.0**-0.5, rel=1e-13)

    def test_gini_requires_mean(self):
        with pytest.raises(MomentDivergesError):
            Type2(0.3, 1.0, 0.4).gini()

    def test_lorenz_endpoints_and_shape(self):
        d = Type2(1.0, 2.0, 0.4)
        assert d.lorenz(0.0) == 0.0
        assert d.lorenz(1.0) == 1.0
        ps = np.linspace(0.0, 1.0, 21)
        L = d.lorenz(ps)
        assert np.all(np.diff(L) >= 0.0)
        assert np.all(L <= ps + 1e-13)

    def test_lorenz_classical_limit(self):
        ps = np.linspace(0.01, 0.99, 25)
        expect = ps + (1.0 - ps) * np.log1p(-ps)
        got = Type2(1.0, 1.0, 1e-5).lorenz(ps)
        np.testing.assert_allclose(got, expect, atol=1e-4)
        # the 1 - (1-P)(1-s) subtraction costs ~3 ulp near P = 0
        np.testing.assert_allclose(
            Type2(1.0, 1.0, 0.0).lorenz(ps), expect, rtol=1e-9, atol=1e-14
        )

    def test_lorenz_from_partial_moments(self):
        # L(P) = (1/mean) integral_0^q(P) x pdf(x) dx
        d = Type2(1.0, 1.0, 0.3)
        for p in (0.25, 0.6, 0.9):
            q = d.quantile(p)
            val, _ = integrate.quad(
                lambda x: x * d.pdf(x), 0.0, q, epsabs=1e-12, epsrel=1e-12
            )
            assert d.lorenz(p) == pytest.approx(val / d.mean(), rel=1e-9)

    def test_lorenz_requires_alpha_one(self):
        with pytest.raises(DomainError):
            Type2(2.0, 1.0, 0.3).lorenz(0.5)


class TestShape:
    def test_mode_closed_vs_argmax(self):
        for a, b, k in [(3.0, 2.0, 0.25), (2.0, 1.0, 0.4), (1.7, 0.8, 0.0)]:
            d = Type2(a, b, k)
            res = d.mode()
            assert res.kind == "interior"
            hi = d.quantile(1.0 - 1e-9)
            xnum = oracle.argmax(d.pdf, 1e-12 * hi, hi, tol=1e-12)
            assert res.x == pytest.approx(xnum, abs=1e-6 * max(1.0, xnum))

    def test_mode_markers(self):
        assert Type2(1.0, 2.0, 0.3).mode().kind == "monotone"
        assert Type2(0.5, 1.0, 0.3).mode().kind == "pole"

    def test_sampling_ks(self):
        d = Type2(2.0, 1.0, 0.3)
        draws = d.sample(20000, 11)
        assert ks_statistic(draws, d.cdf) < 1.63 / math.sqrt(20000)


class TestMellinMoments:
    """<x^m> = Gamma(1+r) beta^(-r) M_k(r)/Gamma(r), r = m/alpha > -1, for
    either sign of alpha and never by quadrature."""

    def test_never_quadrature_and_matches_mpmath(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("Type II moments must not integrate")

        monkeypatch.setattr(oracle, "integrate_semiaxis", no_quadrature)
        b = 1.3
        for k in (0.0, 1e-8, 1e-5, 1e-3, 0.3, 0.6, 0.9):
            for a in (-0.5, -1.5, -2.5, 0.7, 2.5):
                d = Type2(a, b, k)
                top = abs(a) if a < 0.0 else (a / k if k > 0.0 else 20.0)
                for m in (0.01, 0.3, 0.5, 1.0, 1.7, 0.5 * top, 0.9 * top, 0.999 * top):
                    if not m < min(top, 20.0):
                        continue
                    r = m / a
                    with mpmath.workdps(40):
                        expect = mpmath.exp(
                            mpmath.loggamma(1 + mpmath.mpf(r))
                            - r * mpmath.log(b)
                            + mp_log_mellin_ratio(r, k)
                        )
                    assert d.raw_moment(m) == pytest.approx(float(expect), rel=1e-12), (a, k, m)

    @pytest.mark.parametrize("k", [0.0, 1e-5, 0.6])
    @pytest.mark.parametrize("a", [-0.5, -1.5, -2.5])
    def test_alpha_negative_against_density_integral(self, a, k):
        """<x^m> = beta^(-r) int y^r g(y) dy with g = -d/dy kappa_exp(-y),
        the law of y = beta x^alpha, integrated by mpmath under
        y = t^(1/(1+r)), which removes the y^r singularity."""
        b = 1.3
        d = Type2(a, b, k)
        for m in (0.1 * abs(a), 0.9 * abs(a)):
            r = m / a
            with mpmath.workdps(20):
                kk = mpmath.mpf(k)

                def integrand(t):
                    y = t ** (1 / (1 + mpmath.mpf(r)))
                    if kk == 0:
                        return mpmath.exp(-y)
                    return mpmath.exp(-mpmath.asinh(kk * y) / kk) / mpmath.sqrt(1 + (kk * y) ** 2)

                total = mpmath.quad(integrand, [0, 1, 10, 100, mpmath.inf]) / (1 + r)
                expect = mpmath.mpf(b) ** -r * total
            assert d.raw_moment(m) == pytest.approx(float(expect), rel=1e-12), m

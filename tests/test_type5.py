import math

import mpmath
import numpy as np
import pytest

from kappadist import (
    DomainError,
    MomentDivergesError,
    Type2,
    Type5,
    UnsupportedOrderError,
    VarianceDivergesError,
    oracle,
)
from conftest import TYPE5_HIGH_ORDERS, integrate_pdf, ks_statistic, mp_log_mellin_ratio, mp_xi

GRID = [
    (1, 1.0, 0.3),
    (2, 1.5, 0.4),
    (3, 0.8, 0.25),
    (2, 1.0, 0.0),
    (3, 2.0, 0.6),
    (4, 1.2, 0.45),
    (6, 0.9, 0.22),
    (8, 0.7, 0.16),
]


class TestValidation:
    def test_supported_orders(self):
        for n in (0, -1):
            with pytest.raises(UnsupportedOrderError):
                Type5(n, 1.0, 0.3)
        # n = 4 needs kappa < 1/2; n = 9 is past the implemented orders
        for n, k in ((4, 0.5), (9, 0.01)):
            with pytest.raises(UnsupportedOrderError):
                Type5(n, 1.0, k)
        with pytest.raises(DomainError):
            Type5(2, -1.0, 0.3)


class TestDensity:
    @pytest.mark.parametrize("params", GRID)
    def test_normalization(self, params):
        assert integrate_pdf(Type5(*params)) == pytest.approx(1.0, abs=1e-8)

    def test_order_one_is_type2(self):
        d5 = Type5(1, 1.3, 0.35)
        d2 = Type2(1.0, 1.3, 0.35)
        x = np.array([0.2, 0.9, 2.4, 7.0])
        np.testing.assert_allclose(d5.pdf(x), d2.pdf(x), rtol=1e-12)
        np.testing.assert_allclose(d5.cdf(x), d2.cdf(x), rtol=1e-12)

    @pytest.mark.parametrize("params", GRID)
    def test_pdf_matches_cdf_derivative(self, params):
        d = Type5(*params)
        for x in (0.3, 1.0, 2.6):
            fd = oracle.differentiate(d.cdf, x, order=1)
            assert d.pdf(x) == pytest.approx(fd.value, rel=1e-8, abs=1e-11)

    def test_classical_limit_is_exponential_for_all_orders(self):
        # every derivative of e^(-beta x) is proportional to itself
        for n in (1, 2, 3):
            d = Type5(n, 1.4, 0.0)
            x = np.linspace(0.1, 4.0, 9)
            np.testing.assert_allclose(d.pdf(x), 1.4 * np.exp(-1.4 * x), rtol=1e-12)

    def test_tail_exponent(self):
        n, b, k = 3, 1.0, 0.25
        d = Type5(n, b, k)
        assert d.tail_exponent() == -n - 1.0 / k
        x1, x2 = 1e5, 1e6
        slope = (d.logpdf(x2) - d.logpdf(x1)) / (math.log(x2) - math.log(x1))
        assert slope == pytest.approx(d.tail_exponent(), rel=1e-4)
        with pytest.raises(DomainError):
            Type5(2, 1.0, 0.0).tail_exponent()


class TestMoments:
    def test_derivative_identity_low_orders(self):
        # <x^m> = m!/beta^m for m <= n-1, independent of kappa
        for n, b, k in [(2, 1.5, 0.4), (3, 0.8, 0.25), (3, 2.0, 0.6)]:
            d = Type5(n, b, k)
            for m in range(n):
                assert d.raw_moment(m) == pytest.approx(
                    math.factorial(m) / b**m, rel=1e-13
                )

    def test_identity_against_quadrature(self):
        d = Type5(3, 0.8, 0.25)
        for m in (1, 2):
            assert d.raw_moment(m) == pytest.approx(
                d._moment_by_quadrature(m), rel=1e-8
            )

    def test_closed_means_and_variances(self):
        b = 1.3
        d1 = Type5(1, b, 0.3)
        assert d1.mean() == pytest.approx(1.0 / (b * (1 - 0.09)), rel=1e-13)
        assert d1.variance() == pytest.approx(
            (1 + 2 * 0.3**4) / ((1 - 4 * 0.09) * (1 - 0.09) ** 2) / b**2, rel=1e-13
        )
        d2 = Type5(2, b, 0.4)
        assert d2.mean() == pytest.approx(1.0 / b, rel=1e-13)
        assert d2.variance() == pytest.approx((1 + 0.16) / (1 - 0.16) / b**2, rel=1e-13)
        d3 = Type5(3, b, 0.25)
        assert d3.mean() == pytest.approx(1.0 / b, rel=1e-13)
        assert d3.variance() == pytest.approx(1.0 / b**2, rel=1e-13)

    def test_variance_against_quadrature(self):
        d = Type5(2, 1.5, 0.4)
        m1 = d._moment_by_quadrature(1)
        m2 = d._moment_by_quadrature(2)
        assert d.variance() == pytest.approx(m2 - m1 * m1, rel=1e-7)

    def test_divergence_window(self):
        # window: m < n - 1 + 1/kappa
        with pytest.raises(MomentDivergesError) as exc:
            Type5(1, 1.0, 0.5).raw_moment(2)
        assert "n - 1 + 1/kappa" in str(exc.value)
        with pytest.raises(VarianceDivergesError):
            Type5(1, 1.0, 0.5).variance()
        # n = 2, kappa = 0.5 keeps the variance finite (window m < 3)
        assert Type5(2, 1.0, 0.5).variance() > 0.0
        with pytest.raises(MomentDivergesError):
            Type5(2, 1.0, 0.5).raw_moment(3)


class TestShapeAndSampling:
    def test_mode_classification(self):
        for params in GRID:
            d = Type5(*params)
            res = d.mode()
            x = np.linspace(0.0, 6.0 / d.beta, 40)
            if res.kind == "monotone":
                assert res.pdf_at_origin == pytest.approx(d.pdf(0.0), rel=1e-12)
                assert np.all(np.diff(d.pdf(x)) < 0.0)
            else:
                assert res.kind == "interior"
                assert d.pdf(res.x) > d.pdf(0.0)

    def test_order_three_mode_moves_interior_at_large_kappa(self):
        # the density slope at the origin flips sign at kappa = 1/2 for n = 3
        assert Type5(3, 1.0, 0.49).mode().kind == "monotone"
        res = Type5(3, 1.0, 0.6).mode()
        assert res.kind == "interior"
        fd = oracle.differentiate(Type5(3, 1.0, 0.6).pdf, res.x, order=1)
        assert abs(fd.value) < 1e-7

    def test_sampling_ks(self):
        d = Type5(3, 1.0, 0.3)
        draws = d.sample(20000, 17)
        assert ks_statistic(draws, d.cdf) < 1.63 / math.sqrt(20000)


class TestLimitsAtInfinity:
    @pytest.mark.parametrize("n, k", [(3, 0.4), (3, 0.9), (1, 0.0), (2, 0.0), (3, 0.0)])
    def test_cdf_and_survival_at_inf(self, n, k):
        d = Type5(n, 1.3, k)
        assert d.cdf(math.inf) == 1.0
        assert d.survival(math.inf) == 0.0
        np.testing.assert_array_equal(d.cdf(np.array([0.0, math.inf])), [0.0, 1.0])

    @pytest.mark.parametrize("k", [0.0, 0.3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_limits_where_beta_x_overflows(self, n, k):
        # beta x = 1e600 at x = 1e300 raises no overflow warning (an error
        # under the test configuration); every function reads its limit
        d = Type5(n, 1e300, k)
        for x in (1e300, math.inf):
            assert d.pdf(x) == 0.0 and d.logpdf(x) == -math.inf
            assert d.cdf(x) == 1.0 and d.survival(x) == 0.0
            # every order is exponential at k = 0; else pdf ~ x^-(n + 1/k)
            want = d.beta if k == 0.0 else (n - 1.0 + 1.0 / k) / x
            assert d.hazard(x) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("k", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hazard_is_pdf_over_survival(self, n, k):
        d = Type5(n, 1.3, k)
        x = np.array([0.0, 0.01, 0.5, 3.0, 40.0])
        np.testing.assert_allclose(d.hazard(x), d.pdf(x) / d.survival(x), rtol=1e-14)


def _mp_survival(n, beta, kappa, x):
    """Order-n Type V survival g^(n-1)(x)/g^(n-1)(0), from its printed closed form."""
    k = mpmath.mpf(kappa)
    z = beta * x
    u = k * z
    e = mpmath.exp(-mpmath.asinh(u) / k) if k else mpmath.exp(-z)
    g = 1 + u * u
    return [e, e / mpmath.sqrt(g), e / g * (1 + k * u / mpmath.sqrt(g))][n - 1]


def _moment_orders(n, k):
    """Integer and non-integer orders across the window m < n - 1 + 1/kappa,
    up to 40 (far larger orders overflow a double at small kappa)."""
    top = n - 1.0 + 1.0 / k if k > 0.0 else 6.0
    ms = [0.0, 0.01, 0.5, 1.0, 1.5, 2.0, 2.5, 3.7, 0.5 * top, 0.9 * top, 0.999 * top]
    return sorted({m for m in ms if m < top and m <= 40.0})


class TestMellinMoments:
    """<x^m> = Gamma(1+m) beta^(-m) M_k(m+1-n)/Gamma(m+1-n), never by quadrature."""

    def test_never_quadrature_and_matches_mpmath(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("Type V moments must not integrate")

        monkeypatch.setattr(oracle, "integrate_semiaxis", no_quadrature)
        b = 1.3
        for k in (0.0, 1e-8, 1e-5, 1e-3, 0.3, 0.6, 0.9):
            for n in (1, 2, 3):
                d = Type5(n, b, k)
                for m in _moment_orders(n, k):
                    with mpmath.workdps(40):
                        expect = mpmath.exp(
                            mpmath.loggamma(1 + mpmath.mpf(m))
                            - m * mpmath.log(b)
                            + mp_log_mellin_ratio(m + 1 - n, k)
                        )
                    assert d.raw_moment(m) == pytest.approx(float(expect), rel=1e-12), (n, k, m)

    @pytest.mark.parametrize("k", [1e-5, 0.3, 0.6])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_against_survival_integral(self, n, k):
        """<x^m> = int m x^(m-1) S_n(x) dx, where mpmath's quadrature of
        the tail x^(m-n-1/kappa) is reliable (m < n - 2 + 1/kappa)."""
        b = 1.3
        d = Type5(n, b, k)
        for m in (0.5, 1.5, 2.5):
            if not m < n - 2.0 + 1.0 / k:
                continue
            with mpmath.workdps(20):
                expect = mpmath.quad(
                    lambda x: m * x ** (m - 1) * _mp_survival(n, b, k, x),
                    [0, 1, 10, 100, mpmath.inf],
                )
            assert d.raw_moment(m) == pytest.approx(float(expect), rel=1e-12), m

    def test_small_kappa_mean(self):
        # the quadrature this replaces gave 0.515 here
        d = Type5(1, 1.3, 1e-5)
        assert d.raw_moment(1) == d.mean()
        assert d.mean() == pytest.approx(1.0 / (1.3 * (1.0 - 1e-10)), rel=1e-14, abs=0.0)


def _mp_generatrix_derivative(kappa, z, order):
    """d^order/dz^order of exp_k(-z) at z, by 60-digit mpmath differentiation."""
    k = mpmath.mpf(kappa)

    def g(s):
        return mpmath.exp(-mpmath.asinh(k * s) / k) if k else mpmath.exp(-s)

    return mpmath.diff(g, mpmath.mpf(z), order)


class TestNearKappaEdges:
    """Values whose constant terms 1 - k^2 and 1 - 4k^2 vanish at an edge of
    kappa, against derivatives of the generatrix: S_n(z) = g^(n-1)(z) up to
    a constant with g = exp_k(-z), g''(0) = 1, so pdf_3 = -beta g'''(z)."""

    @pytest.mark.parametrize("k", [0.50000001, 0.5000001, 0.500001, 0.6, 0.9, 0.999])
    def test_order_three_mode_against_mpmath(self, k):
        # the mode is where g'''' vanishes: P_5(0) = (1 - 2k)(1 + 2k) -> 0 at k = 1/2
        b = 1.3
        x = Type5(3, b, k).mode().x
        with mpmath.workdps(60):
            root = mpmath.findroot(lambda z: _mp_generatrix_derivative(k, z, 4), mpmath.mpf(b * x))
            assert x == pytest.approx(float(root / b), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("k", [0.999, 0.999999, 1.0 - 1e-8])
    def test_order_three_pdf_and_hazard_near_origin(self, k):
        # pdf(0) = beta (1 - k^2) -> 0 as k -> 1
        b = 1.3
        d = Type5(3, b, k)
        x = np.array([0.0, 1e-300, 1e-12, 1e-6, 1e-3, 0.1])
        pdf, hazard = d.pdf(x), d.hazard(x)
        for xi, p, h in zip(x, pdf, hazard):
            with mpmath.workdps(60):
                g3 = _mp_generatrix_derivative(k, b * xi, 3)
                expect_p = -b * g3
                expect_h = expect_p / _mp_generatrix_derivative(k, b * xi, 2)
            assert p == pytest.approx(float(expect_p), rel=1e-14, abs=0.0), xi
            assert h == pytest.approx(float(expect_h), rel=1e-14, abs=0.0), xi

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hazard_where_kappa_beta_underflows(self, n):
        # k beta is 0 at k = 1e-320, beta = 1e-300, but k (beta x) is not: no 0 * inf
        d = Type5(n, 1e-300, 1e-320)
        assert d.hazard(math.inf) == 0.0
        assert d.hazard(1e300) == pytest.approx(1e-300, rel=1e-15, abs=0.0)


class TestHigherOrders:
    """Orders 4 to 8 inside their windows kappa < 1/(n - 2), against mpmath
    derivatives of the generatrix g = exp_k(-z): S_n = g^(n-1)(z)/g^(n-1)(0)
    and pdf_n = -beta g^(n)(z)/g^(n-1)(0)."""

    @pytest.mark.parametrize("n, k", TYPE5_HIGH_ORDERS)
    def test_survival_and_pdf_against_mpmath(self, n, k):
        b = 1.3
        d = Type5(n, b, k)
        x = np.array([0.0, 1e-6, 0.1, 1.0, 5.0, 30.0, 1e3])
        survival, cdf, pdf = d.survival(x), d.cdf(x), d.pdf(x)
        # near the origin the cdf -expm1(log S) sums log S ~ -beta x P_(n+1)(0)/P_n(0)
        # from terms of size beta x, so it keeps eps P_n(0)/P_(n+1)(0) relative
        cdf_rel = 1e-13 + 16.0 * np.finfo(float).eps * float(mp_xi(n - 1, k) / mp_xi(n, k))
        with mpmath.workdps(60):
            g0 = _mp_generatrix_derivative(k, 0, n - 1)
            for i, xi in enumerate(x):
                expect_s = _mp_generatrix_derivative(k, b * xi, n - 1) / g0
                expect_p = -b * _mp_generatrix_derivative(k, b * xi, n) / g0
                assert survival[i] == pytest.approx(float(expect_s), rel=1e-13, abs=0.0), xi
                assert pdf[i] == pytest.approx(float(expect_p), rel=1e-13, abs=0.0), xi
                assert cdf[i] == pytest.approx(float(1 - expect_s), rel=cdf_rel, abs=0.0), xi

    def test_window_edges(self):
        for n in range(4, 9):
            edge = 1.0 / (n - 2)
            assert Type5(n, 1.0, edge * (1.0 - 1e-12)).pdf(0.0) > 0.0
            for k in (edge * (1.0 + 1e-12), 0.99):
                with pytest.raises(UnsupportedOrderError, match=r"kappa < 1/\(n - 2\)"):
                    Type5(n, 1.0, k)
        for n, edge in ((4, 0.5), (6, 0.25)):  # exact in binary: P_(n+1)(0) = 0
            with pytest.raises(UnsupportedOrderError):
                Type5(n, 1.0, edge)
        assert Type5(8, 1.0, 0.0).pdf(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    @pytest.mark.parametrize("n, k", TYPE5_HIGH_ORDERS)
    def test_moments_against_quadrature(self, n, k):
        b = 1.3
        d = Type5(n, b, k)
        for m in (0.5, 1.0, 2.0, 2.5):
            assert d.raw_moment(m) == pytest.approx(d._moment_by_quadrature(m), rel=1e-8), m

    @pytest.mark.parametrize("n, k", TYPE5_HIGH_ORDERS)
    def test_integer_moments(self, n, k):
        # <x^m> = m! xi(n-1-m)/(xi(n-1) beta^m) for m <= n - 1: P_n(0) = xi(n-1)
        # is the constant the moments of the orders n <= 3 never needed
        b = 1.3
        d = Type5(n, b, k)
        for m in range(n):
            expect = math.factorial(m) * mp_xi(n - 1 - m, k) / mp_xi(n - 1, k) / mpmath.mpf(b) ** m
            assert d.raw_moment(m) == pytest.approx(float(expect), rel=1e-13), m

    @pytest.mark.parametrize("n, k", TYPE5_HIGH_ORDERS)
    def test_moments_against_mpmath(self, n, k):
        b = 1.3
        d = Type5(n, b, k)
        for m in _moment_orders(n, k):
            with mpmath.workdps(40):
                expect = mpmath.exp(
                    mpmath.loggamma(1 + mpmath.mpf(m))
                    - m * mpmath.log(b)
                    + mp_log_mellin_ratio(m + 1 - n, k)
                    - mpmath.log(mp_xi(n - 1, k))
                )
            assert d.raw_moment(m) == pytest.approx(float(expect), rel=1e-12), m

    @pytest.mark.parametrize(
        "n, k", [(n, f / (n - 2)) for n in range(4, 9) for f in ((n - 2) / (n - 1) * (1.0 + 1e-6), 0.98, 0.9999)]
    )
    def test_mode_against_mpmath(self, n, k):
        # past kappa = 1/(n - 1), P_(n+2)(0) = xi(n + 1) < 0: the density rises
        # from the origin and peaks where g^(n+1) vanishes
        b = 1.3
        res = Type5(n, b, k).mode()
        assert res.kind == "interior"
        with mpmath.workdps(60):
            root = mpmath.findroot(lambda z: _mp_generatrix_derivative(k, z, n + 1), mpmath.mpf(b * res.x))
        assert res.x == pytest.approx(float(root / b), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_monotone_below_the_modes_turn(self, n):
        d = Type5(n, 1.3, 0.999 / (n - 1))
        res = d.mode()
        assert res.kind == "monotone"
        assert res.pdf_at_origin == pytest.approx(1.3 * float(mp_xi(n, d.kappa) / mp_xi(n - 1, d.kappa)), rel=1e-14)

    @pytest.mark.parametrize("n, k", [(n, f / (n - 2)) for n in range(4, 9) for f in (0.5, 0.9999)])
    def test_sampling_ks(self, n, k):
        d = Type5(n, 1.0, k)
        draws = d.sample(20000, 17)
        assert ks_statistic(draws, d.cdf) < 1.63 / math.sqrt(20000)

    @pytest.mark.parametrize("n, k", [(5, 0.3), (8, 0.16)])
    def test_hazard_is_pdf_over_survival(self, n, k):
        d = Type5(n, 1.3, k)
        x = np.array([0.0, 0.01, 0.5, 3.0, 40.0])
        np.testing.assert_allclose(d.hazard(x), d.pdf(x) / d.survival(x), rtol=1e-14)
        assert d.hazard(1e300) == pytest.approx((n - 1.0 + 1.0 / k) / 1e300, rel=1e-15, abs=0.0)

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import erf, gamma

from kappadist import (
    DomainError,
    kappa_erf,
    kappa_exp,
    kappa_exp_tail_exponent,
    kappa_log,
    log_mellin_kappa,
    mellin_kappa,
)
from kappadist.core import kappa_erf_prefactor, log_kappa_exp


class TestKappaExp:
    def test_matches_direct_formula(self):
        x = np.linspace(-50.0, 50.0, 401)
        for k in np.arange(0.1, 1.0, 0.1):
            direct = (np.sqrt(1.0 + (k * x) ** 2) + k * x) ** (1.0 / k)
            got = kappa_exp(x, k)
            assert np.allclose(got, direct, rtol=1e-12, atol=0.0)

    def test_reciprocal_identity(self):
        x = np.linspace(0.0, 50.0, 101)
        for k in (0.1, 0.3, 0.5, 0.7, 0.9):
            prod = kappa_exp(x, k) * kappa_exp(-x, k)
            assert np.allclose(prod, 1.0, rtol=1e-12)

    def test_classical_limit_is_exact_exp(self):
        x = np.linspace(-30.0, 30.0, 61)
        assert np.array_equal(kappa_exp(x, 0.0), np.exp(x))

    def test_small_kappa_tracks_exp(self):
        x = np.linspace(-5.0, 5.0, 41)
        assert np.allclose(kappa_exp(x, 1e-8), np.exp(x), rtol=1e-12)

    def test_pareto_tails(self):
        for k in (0.2, 0.5, 0.8):
            x = 1e4 / k  # so kappa*x = 1e4
            assert kappa_exp(x, k) == pytest.approx((2.0 * k * x) ** (1.0 / k), rel=1e-3)
            assert kappa_exp(-x, k) == pytest.approx((2.0 * k * x) ** (-1.0 / k), rel=1e-3)

    def test_tail_exponent_helper(self):
        e, pref = kappa_exp_tail_exponent(0.25, +1)
        assert e == 4.0 and pref == pytest.approx(0.5**4)
        e, _ = kappa_exp_tail_exponent(0.25, -1)
        assert e == -4.0
        with pytest.raises(DomainError):
            kappa_exp_tail_exponent(0.0, +1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            kappa_exp(np.inf, 0.3)
        with pytest.raises(DomainError):
            kappa_exp(1.0, 1.0)
        with pytest.raises(DomainError):
            kappa_exp(1.0, -0.1)

    @given(
        st.floats(-100.0, 100.0),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_log_inverts_exp(self, x, k):
        t = kappa_exp(x, k)
        if 0.0 < t < np.inf:
            assert kappa_log(t, k) == pytest.approx(x, rel=1e-9, abs=1e-9)

    def test_log_kappa_exp_stable(self):
        assert log_kappa_exp(1e8, 0.5) == pytest.approx(np.arcsinh(0.5e8) / 0.5)
        assert log_kappa_exp(3.0, 0.0) == 3.0


class TestKappaLog:
    def test_classical(self):
        t = np.array([0.5, 1.0, 2.0, 10.0])
        assert np.allclose(kappa_log(t, 0.0), np.log(t))

    def test_closed_form(self):
        for k in (0.2, 0.6):
            for t in (0.3, 1.0, 7.5):
                assert kappa_log(t, k) == pytest.approx((t**k - t**-k) / (2 * k), rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            kappa_log(0.0, 0.3)
        with pytest.raises(DomainError):
            kappa_log(-1.0, 0.3)


class TestMellin:
    def test_order_one_at_half(self):
        # exact rational value of the transform at r = 1, kappa = 1/2
        assert mellin_kappa(1.0, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_classical_limit_is_gamma(self):
        for r in (0.3, 1.0, 2.5, 4.0):
            assert mellin_kappa(r, 1e-6) == pytest.approx(gamma(r), rel=1e-6)

    @pytest.mark.parametrize("k", [0.1, 0.25, 0.4, 0.6])
    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 1.5])
    def test_against_quadrature(self, k, r):
        if r >= 1.0 / k:
            pytest.skip("outside convergence strip")
        a = 1.0 / k - r  # integrand tail ~ x^(r - 1 - 1/k)

        def integrand(x):
            return x ** (r - 1.0) * kappa_exp(-x, k)

        head, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
        tail, _ = integrate.quad(
            lambda t: integrand(t ** (-1.0 / a)) * (t ** (-1.0 / a - 1.0) / a),
            0.0,
            1.0,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        assert mellin_kappa(r, k) == pytest.approx(head + tail, rel=1e-8)

    def test_divergence_errors(self):
        with pytest.raises(DomainError):
            mellin_kappa(2.0, 0.5)
        with pytest.raises(DomainError):
            mellin_kappa(-1.0, 0.3)
        with pytest.raises(DomainError):
            mellin_kappa(0.0, 0.3)


def _mp_log_mellin(r, kappa):
    """40-digit log M_k(r) from its Gamma-function form."""
    with mpmath.workdps(40):
        r, k = mpmath.mpf(r), mpmath.mpf(kappa)
        z = 1 / (2 * k)
        return float(
            -r * mpmath.log(2 * k)
            - mpmath.log1p(k * r)
            + mpmath.loggamma(z - r / 2)
            - mpmath.loggamma(z + r / 2)
            + mpmath.loggamma(r)
        )


class TestMellinSmallKappa:
    """The Gamma ratio keeps its O(kappa^2 r^3) deviation from Gamma(r) at
    every kappa; the classical value alone is off by ~1e-9 at kappa = 1e-5."""

    @pytest.mark.parametrize("k", [1e-8, 1e-5, 5e-5, 1e-4, 1e-3, 0.2])
    @pytest.mark.parametrize("r", [0.01, 0.5, 1.0, 2.5, 4.0])
    def test_against_mpmath(self, k, r):
        assert log_mellin_kappa(r, k) == pytest.approx(_mp_log_mellin(r, k), rel=0.0, abs=2e-15)

    @pytest.mark.parametrize("k", [1e-8, 1e-6, 1e-3, 0.3, 0.9])
    def test_erf_prefactor_is_gamma_half_over_mellin_half(self, k):
        expect = math.exp(0.5 * math.log(math.pi) - _mp_log_mellin(0.5, k))
        assert kappa_erf_prefactor(k) == pytest.approx(expect, rel=2e-15)


class TestKappaErf:
    def test_classical(self):
        for x in (-1.5, 0.0, 0.7):
            assert kappa_erf(x, 0.0) == pytest.approx(float(erf(x)), rel=1e-12)

    def test_odd_and_saturating(self):
        k = 0.4
        assert kappa_erf(1.3, k) == pytest.approx(-kappa_erf(-1.3, k), rel=1e-10)
        assert kappa_erf(math.inf, k) == pytest.approx(1.0, rel=1e-9)
        assert kappa_erf(-math.inf, k) == pytest.approx(-1.0, rel=1e-9)
        assert kappa_erf(0.0, k) == 0.0

    def test_small_kappa_limit(self):
        # prefactor -> 1 and values -> erf as kappa -> 0
        assert kappa_erf_prefactor(1e-4) == pytest.approx(1.0, abs=1e-4)
        for x in (0.5, 1.0, 2.0):
            assert kappa_erf(x, 1e-4) == pytest.approx(float(erf(x)), rel=1e-3)

    def test_monotone_in_x(self):
        k = 0.6
        xs = np.linspace(-3, 3, 13)
        vals = [kappa_erf(float(x), k) for x in xs]
        assert np.all(np.diff(vals) > 0)


def _mp_kappa_erf(x, kappa):
    """50-digit quadrature of prefactor (2/sqrt(pi)) int_0^x kappa_exp(-t^2) dt."""
    with mpmath.workdps(50):
        k = mpmath.mpf(kappa)
        z = 1 / (2 * k)
        c = (1 + k / 2) * mpmath.sqrt(2 * k) * mpmath.gamma(z + mpmath.mpf(1) / 4)
        c = c / mpmath.gamma(z - mpmath.mpf(1) / 4) * 2 / mpmath.sqrt(mpmath.pi)
        f = lambda t: mpmath.exp(-mpmath.asinh(k * t * t) / k)
        x = mpmath.mpf(x)
        return float(c * mpmath.quad(f, [0, 1, x] if x > 1 else [0, x]))


class TestKappaErfExact:
    """kappa_erf is the exact Type I share at alpha = 2, nu = 1/2."""

    @pytest.mark.parametrize(
        "x, k", [(1e4, 0.7), (1e3, 0.95), (1e2, 0.9), (1e5, 0.99), (0.5, 1e-4), (2.0, 1e-4)]
    )
    def test_against_mpmath(self, x, k):
        expect = _mp_kappa_erf(x, k)
        assert kappa_erf(x, k) == pytest.approx(expect, rel=4e-15, abs=0.0)
        assert kappa_erf(-x, k) == pytest.approx(-expect, rel=4e-15, abs=0.0)

    @pytest.mark.parametrize("k", [1e-4, 0.3, 0.99])
    def test_limits_without_warnings(self, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kappa_erf(math.inf, k) == 1.0
            assert kappa_erf(-math.inf, k) == -1.0
            assert kappa_erf(1e300, k) == 1.0

    def test_array_and_nan(self):
        xs = np.array([-2.0, 0.0, 0.4, math.inf])
        got = kappa_erf(xs, 0.4)
        assert got.shape == xs.shape
        for x, g in zip(xs, got):
            assert g == kappa_erf(float(x), 0.4)
        # where x^2 underflows the value is the slope at the origin times x
        slope = 2.0 / math.sqrt(math.pi) * kappa_erf_prefactor(0.4)
        assert kappa_erf(-1e-200, 0.4) == pytest.approx(-slope * 1e-200, rel=1e-15)
        with pytest.raises(DomainError):
            kappa_erf(math.nan, 0.4)
        with pytest.raises(DomainError):
            kappa_erf(np.array([0.1, math.nan]), 0.4)

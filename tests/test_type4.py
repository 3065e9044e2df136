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
        with pytest.raises(MomentDivergesError):
            d.raw_moment(-1)


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

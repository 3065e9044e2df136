"""Inversion layer: the log-space quantile solver, the closed-form
inverses and inverse-transform sampling, including the heavy-tail regime
kappa >= 0.9."""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from kappadist import (
    Distribution,
    KappaErlang,
    NoConvergenceError,
    Type1,
    Type2,
    Type3,
    Type4,
    Type5,
)
from conftest import ks_statistic

N = 20000
KS_COEF = 2.694  # Kolmogorov critical value at p ~ 1e-6: sqrt(ln(2/1e-6)/2)


# every half-line family at the heavy-tail end
HEAVY_TAIL = [
    d
    for k in (0.9, 0.95)
    for d in (
        Type1(1.5, 1.0, 1.0, k),
        Type2(1.5, 1.0, k),
        Type3(1.5, 1.0, 2.0, k),
        Type4(1.5, 1.0, k),
        Type5(3, 1.0, k),
        KappaErlang(1, 1.0, k),
    )
]


# families inverted by the generic solver, light and heavy tails, alpha < 0
SOLVER_FAMILIES = [
    Type1(1.5, 1.0, 1.0, 0.9),
    Type1(1.5, 1.0, 1.0, 0.3),
    Type1(-1.5, 1.0, 1.0, 0.9),
    Type1(0.5, 2.0, 1.2, 0.6),
    Type5(3, 1.0, 0.9),
    Type5(2, 1.0, 0.3),
    KappaErlang(1, 1.0, 0.9),
    KappaErlang(3, 1.0, 0.3),
]


def type1_mixture_sample(alpha, beta, nu, kappa, size, rng):
    """Exact Type1 draws that share no code with the library.

    With y = beta x^alpha the survival of y is the incomplete-Beta mixture
    w1 I_s(a, nu) + w2 I_s(a + 1, nu), s = (sqrt(1 + k^2 y^2) - k y)^2,
    a = 1/(2k) - nu/2, so s is drawn from w1 Beta(a, nu) + w2 Beta(a + 1, nu)
    and mapped back by y = (s^-1/2 - s^1/2)/(2k), x = (y/beta)^(1/alpha)
    (composition and transformation, Devroye 1986).
    """
    a = 0.5 / kappa - 0.5 * nu
    w1 = (a + nu) / (2.0 * a + nu)
    first = rng.random(size) < w1
    s = np.where(first, rng.beta(a, nu, size), rng.beta(a + 1.0, nu, size))
    y = (s**-0.5 - s**0.5) / (2.0 * kappa)
    return (y / beta) ** (1.0 / alpha)


class TestHeavyTailSampling:
    @pytest.mark.parametrize("d", HEAVY_TAIL, ids=repr)
    def test_ks_and_distinct_draws(self, d):
        draws = d.sample(N, 4000)
        assert np.all(np.isfinite(draws)) and np.all(draws >= 0.0)
        assert ks_statistic(draws, d.cdf) <= KS_COEF / math.sqrt(N)
        assert np.unique(draws).size >= 0.999 * N


class TestMixtureOracle:
    @pytest.mark.parametrize(
        "params",
        [(1.5, 1.0, 1.0, 0.9), (-1.5, 1.0, 1.0, 0.9), (-1.0, 2.0, 0.8, 0.5), (2.0, 0.5, 1.5, 0.3)],
    )
    def test_two_sample_ks_against_type1_sample(self, params):
        d = Type1(*params)
        oracle = type1_mixture_sample(*params, N, np.random.default_rng(11))
        assert ks_statistic(oracle, d.cdf) <= KS_COEF / math.sqrt(N)
        draws = d.sample(N, 12)
        dist = stats.ks_2samp(oracle, draws).statistic
        assert dist <= KS_COEF * math.sqrt(2.0 / N)


class TestRoundTrip:
    @pytest.mark.parametrize("d", SOLVER_FAMILIES, ids=repr)
    def test_log_quantile_of_cdf(self, d):
        x = np.geomspace(1e-6, 1e12, 400)
        p = d.cdf(x)
        # light tails reach p = 1 (no quantile) inside the grid; where the
        # rounding of p alone moves its quantile by more than 1e-13 in log x,
        # that amount is allowed on top (the survival tests cover that tail)
        keep = p < 1.0
        x, p = x[keep], p[keep]
        pinned = np.spacing(p) / (x * d.pdf(x))
        err = np.abs(np.log(d.quantile(p)) - np.log(x))
        assert np.all(err <= 1e-12 + 2.0 * np.where(pinned > 1e-13, pinned, 0.0))
        assert np.count_nonzero(pinned <= 1e-13) >= 100

    @pytest.mark.parametrize("d", SOLVER_FAMILIES, ids=repr)
    def test_survival_of_upper_quantiles(self, d):
        k = np.arange(1, 54)
        p = 1.0 - 2.0**-k  # exact in floating point
        s = d.survival(d.quantile(p))
        np.testing.assert_allclose(s, 2.0**-k, rtol=1e-12, atol=0.0)


class TestExtremeTailAndScalarPath:
    FAMILIES = [
        Type1(1.5, 1.0, 1.0, 0.9),
        Type4(1.5, 1.0, 0.5),
        Type5(3, 1.0, 0.9),
        KappaErlang(1, 1.0, 0.9),
        Type2(1.5, 1.0, 0.3),
        Type2(-1.5, 1.0, 0.9),
        Type3(1.5, 1.0, 2.0, 0.9),
        Type3(-1.5, 1.0, 0.5, 0.3),
    ]
    PS = np.array([1e-300, 2.0**-64, 1e-9, 0.3, 0.5, 0.9, 1.0 - 1e-9, 1.0 - 2.0**-53])

    @pytest.mark.parametrize("d", FAMILIES, ids=repr)
    def test_survival_at_one_minus_two_to_minus_53(self, d):
        x = d.quantile(1.0 - 2.0**-53)
        assert d.survival(x) == pytest.approx(2.0**-53, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("d", FAMILIES, ids=repr)
    def test_scalar_and_array_bitwise_equal(self, d):
        arr = d.quantile(self.PS)
        for p, xa in zip(self.PS, arr):
            assert d.quantile(float(p)) == xa

    @pytest.mark.parametrize("d", FAMILIES, ids=repr)
    def test_lower_tail_relative_residual(self, d):
        ps = self.PS[self.PS < 0.5]
        np.testing.assert_allclose(d.cdf(d.quantile(ps)), ps, rtol=1e-12, atol=0.0)

    def test_zero_and_shapes(self):
        d = Type5(2, 1.0, 0.4)
        assert d.quantile(0.0) == 0.0
        grid = np.array([[0.0, 0.25], [0.5, 0.75]])
        out = d.quantile(grid)
        assert out.shape == (2, 2) and out[0, 0] == 0.0
        assert d.quantile(np.array([])).shape == (0,)


class _BrokenCdf(Distribution):
    """A cdf that is NaN everywhere: no root exists."""

    def cdf(self, x):
        return np.full(np.shape(x), np.nan)

    def survival(self, x):
        return np.full(np.shape(x), np.nan)

    def pdf(self, x):
        return np.ones(np.shape(x))

    def get_params(self):
        return {}


def test_unconverged_quantile_raises():
    with pytest.raises(NoConvergenceError):
        _BrokenCdf().quantile(np.array([0.2, 0.7]))


class TestLowerTailEvaluation:
    """cdf near the origin keeps relative precision (the solver's
    residual is log cdf there), checked against 50-digit mpmath."""

    @staticmethod
    def type1_lower_fraction(nu, kappa, y):
        # share of y = beta x^alpha below y: 1 - w1 I_s(a, nu) - w2 I_s(a+1, nu)
        with mpmath.workdps(50):
            k, nu, y = mpmath.mpf(kappa), mpmath.mpf(nu), mpmath.mpf(y)
            s = (mpmath.sqrt(1 + (k * y) ** 2) - k * y) ** 2
            a = 1 / (2 * k) - nu / 2
            w1, w2 = (a + nu) / (2 * a + nu), a / (2 * a + nu)
            up = w1 * mpmath.betainc(a, nu, 0, s, regularized=True) + w2 * mpmath.betainc(
                a + 1, nu, 0, s, regularized=True
            )
            return float(1 - up)

    @pytest.mark.parametrize("x", [1e-6, 1e-3, 0.3])
    def test_type1_and_erlang(self, x):
        d = Type1(1.5, 1.0, 1.0, 0.9)
        assert d.cdf(x) == pytest.approx(self.type1_lower_fraction(1.0, 0.9, x**1.5), rel=1e-12, abs=0.0)
        # alpha < 0: the lower share of y is the survival at large x
        d = Type1(-1.5, 1.0, 1.0, 0.9)
        expect = self.type1_lower_fraction(1.0, 0.9, (1.0 / x) ** -1.5)
        assert d.survival(1.0 / x) == pytest.approx(expect, rel=1e-12, abs=0.0)
        d = KappaErlang(3, 1.0, 0.3)
        assert d.cdf(x) == pytest.approx(self.type1_lower_fraction(3.0, 0.3, x), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("x", [1e-6, 1e-3, 0.3])
    def test_type5(self, n, x):
        d = Type5(n, 1.0, 0.9)
        with mpmath.workdps(50):
            k, z = mpmath.mpf(0.9), mpmath.mpf(x)
            u = k * z
            g = 1 + u * u
            e = mpmath.exp(-mpmath.asinh(u) / k)
            body = {1: 1, 2: 1 / mpmath.sqrt(g), 3: 1 / g + k * u / g**1.5}[n]
            expect = float(1 - e * body)
        assert d.cdf(x) == pytest.approx(expect, rel=1e-12, abs=0.0)

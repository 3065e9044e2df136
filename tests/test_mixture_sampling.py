"""Exact draws: the Beta mixture behind the Type I law (Type1, KappaErlang
and KappaNormal) against inverse-transform draws and binned counts, the
share of draws past the largest float, and the other families' draws,
which stay the inverse transform bit for bit."""

import math

import numpy as np
import pytest
from scipy import stats

from kappadist import (
    Distribution,
    KappaErlang,
    KappaLogistic,
    KappaNormal,
    Type1,
    Type2,
    Type3,
    Type4,
    Type5,
    as_generator,
)

N = 20000
KS_COEF = 2.694  # Kolmogorov critical value at p ~ 1e-6: sqrt(ln(2/1e-6)/2)
FLOAT_MAX = np.finfo(float).max
KAPPAS = (0.0, 1e-3, 0.3, 0.9, 0.95)

MIXTURE = [
    *(Type1(alpha, 1.0, 1.0, k) for alpha in (1.5, -2.0) for k in KAPPAS),
    Type1(1.0, 1.0, 1.05, 0.95),  # a = 0.0013: 15% of the draws lie past the largest float
    KappaErlang(3, 2.0, 0.3),
    *(KappaNormal(1.0, k) for k in KAPPAS),
]


@pytest.mark.parametrize("d", MIXTURE, ids=repr)
def test_two_sample_ks_against_inverse_transform(d):
    draws = d.sample(N, 31)
    reference = Distribution._draw(d, as_generator(32), N)  # the base class's quantile(u)
    assert stats.ks_2samp(draws, reference).statistic <= KS_COEF * math.sqrt(2.0 / N)
    assert np.unique(draws[np.isfinite(draws)]).size == np.count_nonzero(np.isfinite(draws))


def test_vanishing_kappa():
    # 1/2k overflows below the smallest normal kappa: the classical law's draws
    classical = Type1(1.5, 1.0, 2.0, 0.0)
    assert np.array_equal(Type1(1.5, 1.0, 2.0, 1e-320).sample(1000, 3), classical.sample(1000, 3))
    d = Type1(1.5, 1.0, 2.0, 1e-300)  # a = 5e299
    assert stats.kstest(d.sample(N, 3), classical.cdf).statistic <= KS_COEF / math.sqrt(N)


def test_share_of_draws_past_the_largest_float():
    d = Type1(1.0, 1.0, 1.05, 0.95)
    n = 200000
    p = d.survival(FLOAT_MAX)
    share = np.count_nonzero(np.isinf(d.sample(n, 9))) / n
    assert abs(share - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)


@pytest.mark.parametrize(
    "d",
    [Type1(1.5, 1.0, 2.0, 1e-3), Type1(-2.0, 1.0, 0.5, 0.3), Type1(1.0, 1.0, 1.0, 0.95)],
    ids=repr,
)
def test_binned_chi_square(d):
    n, bins = 100000, 50
    edges = d.quantile(np.arange(1, bins) / bins)
    counts = np.bincount(np.searchsorted(edges, d.sample(n, 5)), minlength=bins)
    expect = n / bins
    chi2 = float(np.sum((counts - expect) ** 2) / expect)
    assert chi2 <= stats.chi2.isf(1e-6, bins - 1)


@pytest.mark.parametrize(
    "d",
    [Type1(1.0, 1.0, 2.0, 0.2), Type1(-2.0, 1.3, 3.0, 0.1), KappaErlang(2, 2.0, 0.2)],
    ids=repr,
)
def test_mean_within_five_standard_errors(d):
    draws = d.sample(400000, 8)
    se = math.sqrt(d.variance() / draws.size)
    assert abs(draws.mean() - d.mean()) <= 5.0 * se


def test_fair_sign_of_symmetrized_draws():
    n = 400000
    draws = KappaNormal(1.0, 0.9).sample(n, 6)
    assert abs(np.count_nonzero(draws < 0.0) / n - 0.5) <= 5.0 * math.sqrt(0.25 / n)


@pytest.mark.parametrize(
    "d", [Type1(1.5, 1.0, 1.0, 0.9), KappaErlang(2, 1.0, 0.3), KappaNormal(1.0, 0.6)], ids=repr
)
def test_no_solver_behind_the_draws(d, monkeypatch):
    def refuse(self, target, upper):
        raise AssertionError("sampling ran the quantile solver")

    monkeypatch.setattr(Distribution, "_solve_quantile", refuse)
    draws = d.sample(1000, 3)
    assert draws.shape == (1000,) and np.all(np.isfinite(draws))


@pytest.mark.parametrize(
    "d",
    [
        Type2(1.5, 1.0, 0.3),
        Type2(-1.5, 1.0, 0.9),
        Type3(1.5, 1.0, 2.0, 0.3),
        Type4(1.5, 1.0, 0.9),
        Type5(3, 1.0, 0.3),
        KappaLogistic(1.0, 0.3),
    ],
    ids=repr,
)
@pytest.mark.parametrize("seed", [0, 17])
def test_other_families_keep_the_inverse_transform(d, seed):
    gen = as_generator(seed)
    u = gen.random(5000)
    u[u == 0.0] = 2.0**-64
    assert np.array_equal(d.sample(5000, seed), d.quantile(u))


def test_same_seed_same_draws():
    d = KappaNormal(1.0, 0.3)
    assert np.array_equal(d.sample(100, 4), d.sample(100, 4))
    assert not np.array_equal(d.sample(100, 4), d.sample(100, 5))


class TestQuantilePastTheLargestFloat:
    """Type1(1, 1, 1.05, 0.95) puts 15% of its mass past the largest float."""

    d = Type1(1.0, 1.0, 1.05, 0.95)

    def test_every_such_p_is_inf_in_both_paths(self):
        edge = self.d.cdf(FLOAT_MAX)
        p = np.linspace(edge, 1.0, 2002)[1:-1]
        x = self.d.quantile(p)
        assert np.all(x == math.inf)
        assert all(self.d.quantile(float(v)) == math.inf for v in p[::97])

    def test_survival_side(self):
        share = self.d.survival(FLOAT_MAX)
        s = np.array([0.9 * share, 0.5 * share, 1e-30])
        assert np.all(self.d._quantile(s, upper=True) == math.inf)

    def test_roots_below_it_stay_finite(self):
        x = np.array([1e300, 1e307, 1.5e308])
        p = self.d.cdf(x)
        np.testing.assert_allclose(self.d.quantile(p), x, rtol=1e-10)

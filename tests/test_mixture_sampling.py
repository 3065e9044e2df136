"""Exact draws: the Beta mixture behind the Type I law (Type1, KappaErlang
and KappaNormal) and its Gamma kernel, the Type V rejection in
a = arcsinh(k beta x), each against inverse-transform draws and binned
counts; the share of draws past the largest float; no family's draws run
the quantile solver; and the families with a closed quantile (Type2,
Type3, Type4, KappaLogistic), whose draws stay the inverse transform bit
for bit."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.special import gammainc

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
from conftest import TYPE5_HIGH_ORDERS, mp_type5_ladder
from kappadist.core import _gamma_share_log_draw, _log_gamma_draw

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


@pytest.mark.parametrize("d", [KappaNormal(1.0, 0.3), Type5(3, 1.0, 0.9)], ids=repr)
def test_same_seed_same_draws(d):
    assert np.array_equal(d.sample(100, 4), d.sample(100, 4))
    assert not np.array_equal(d.sample(100, 4), d.sample(100, 5))


EVERY_FAMILY = [
    *(Type1(alpha, 1.3, nu, k) for alpha, nu in ((1.5, 1.0), (-2.0, 0.5)) for k in (0.0, 0.3, 0.9)),
    *(Type2(alpha, 1.3, k) for alpha in (1.5, -1.5, -0.9) for k in (0.0, 0.3, 0.9)),
    *(Type3(alpha, 1.3, lam, k) for alpha, lam in ((1.5, 2.0), (-1.5, 0.5)) for k in (0.0, 0.3, 0.9)),
    *(Type4(alpha, 1.3, k) for alpha in (1.5, 0.2) for k in (0.3, 0.9)),
    *(Type5(n, 1.3, k) for n in (1, 2, 3) for k in (0.0, 0.3, 0.9)),
    *(Type5(n, 1.3, k) for n, k in TYPE5_HIGH_ORDERS),
    *(KappaErlang(n, 1.3, k) for n in (1, 3) for k in (0.0, 0.3)),
    *(KappaNormal(1.3, k) for k in (0.0, 0.9)),
    *(KappaLogistic(1.3, k) for k in (0.0, 0.9)),
]


@pytest.mark.parametrize("d", EVERY_FAMILY, ids=repr)
def test_no_family_samples_through_the_solver(d, monkeypatch):
    def refuse(self, target, upper):
        raise AssertionError("sampling ran the quantile solver")

    monkeypatch.setattr(Distribution, "_solve_quantile", refuse)
    draws = d.sample(2000, 3)
    assert draws.shape == (2000,) and np.count_nonzero(np.isnan(draws)) == 0


# -- Type V: rejection in a = arcsinh(k beta x) --------------------------------------

TYPE5_KAPPAS = (0.0, 1e-3, 0.3, 0.9, 0.99)


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in (1, 2, 3) for k in TYPE5_KAPPAS] + [(n, k) for n, k in TYPE5_HIGH_ORDERS if k > 1e-3]
)
def test_type5_two_sample_ks_against_inverse_transform(n, k):
    d = Type5(n, 1.3, k)
    draws = d.sample(N, 31)
    reference = Distribution._draw(d, as_generator(32), N)
    assert stats.ks_2samp(draws, reference).statistic <= KS_COEF * math.sqrt(2.0 / N)
    assert np.unique(draws).size == N


@pytest.mark.parametrize("k", [0.3, 0.9])
@pytest.mark.parametrize("n", [2, 3])
def test_type5_binned_chi_square(n, k):
    d = Type5(n, 1.0, k)
    size, bins = 100000, 50
    edges = d.quantile(np.arange(1, bins) / bins)
    counts = np.bincount(np.searchsorted(edges, d.sample(size, 5)), minlength=bins)
    expect = size / bins
    chi2 = float(np.sum((counts - expect) ** 2) / expect)
    assert chi2 <= stats.chi2.isf(1e-6, bins - 1)


@pytest.mark.parametrize(
    "d", [Type5(1, 1.0, 0.3), Type5(2, 0.7, 0.3), Type5(3, 2.0, 0.45), Type5(3, 1.0, 0.0)], ids=repr
)
def test_type5_mean_within_five_standard_errors(d):
    draws = d.sample(400000, 8)
    se = math.sqrt(d.variance() / draws.size)
    assert abs(draws.mean() - d.mean()) <= 5.0 * se


@pytest.mark.parametrize("k", [1e-320, 1e-300])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_type5_vanishing_kappa_is_exponential(n, k):
    # a = k E is subnormal or far below rounding: the draws keep every digit of E
    assert stats.kstest(Type5(n, 1.0, k).sample(N, 3), "expon").statistic <= KS_COEF / math.sqrt(N)


BOUND_KAPPAS = (1e-8, 1e-3, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999)


def _mp_rho_max(n, k):
    """40-digit maximum of rho_n = (1 - t^2)^((n-1)/2) P_(n+1)(t)/P_n(0) over
    [0, 1), at the root there of (1 - t^2) P' - (n - 1) t P, P = P_(n+1)."""
    if n == 1:
        return mpmath.mpf(1)
    ladder = mp_type5_ladder(n + 1, k)
    with mpmath.workdps(40):
        p = ladder[n] + [0, 0]
        f = [p[1]] + [(i + 1) * p[i + 1] - (n + i - 2) * p[i - 1] for i in range(1, n + 1)]
        roots = mpmath.polyroots(f[::-1], maxsteps=400, extraprec=120)
        t = max(mpmath.re(r) for r in roots if abs(mpmath.im(r)) < 1e-25 and 0 < mpmath.re(r) < 1)
        return (1 - t * t) ** (mpmath.mpf(n - 1) / 2) * mpmath.polyval(ladder[n][::-1], t) / ladder[n - 1][0]


@pytest.mark.parametrize(
    "n, k",
    [(n, k) for n in (1, 2, 3) for k in BOUND_KAPPAS]
    + [(n, f / (n - 2)) for n in range(4, 9) for f in (1e-8, 0.1, 0.5, 0.9, 0.99, 0.999)],
)
def test_type5_rejection_bound(n, k):
    d = Type5(n, 1.0, k)
    t = np.linspace(0.0, 1.0, 10**6, endpoint=False)
    assert np.max(d._rho(t)) <= d._rho_bound
    assert mpmath.mpf(d._rho_bound) >= _mp_rho_max(n, k)
    assert d._rho_bound <= _mp_rho_max(n, k) * (1.0 + 1e-11)  # the margin only


@pytest.mark.parametrize(
    "d", [Type5(3, 1.0, 0.999), Type5(2, 1e-310, 0.9), Type5(3, 1e300, 1e-320), Type5(1, 1.0, 5e-324)],
    ids=repr,
)
def test_type5_draws_raise_no_warning(d):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = d.sample(N, 2)
    assert np.count_nonzero(np.isnan(draws) | (draws < 0.0)) == 0


# -- the Gamma kernel of the Type I mixture -------------------------------------------


def _log_gamma_cdf(ell, shape):
    """P(log G <= ell) for G ~ Gamma(shape); below ell = -50 the leading term
    x^shape/Gamma(shape + 1) of the regularized share, exact to 1e-21."""
    ell = np.asarray(ell)
    with np.errstate(over="ignore", under="ignore"):
        lead = np.exp(shape * ell - math.lgamma(shape + 1.0))
        return np.where(ell < -50.0, lead, gammainc(shape, np.exp(np.maximum(ell, -50.0))))


@pytest.mark.parametrize("shape", [1e-3, 0.5, 1.0, 1.5, 40.0])
def test_gamma_kernel_against_scipy(shape):
    log_g = _log_gamma_draw(as_generator(11), shape, N)
    crit = KS_COEF / math.sqrt(N)
    assert stats.kstest(log_g, lambda ell: _log_gamma_cdf(ell, shape)).statistic <= crit
    if shape >= 0.5:  # no draw underflows: the Gamma law itself
        assert stats.kstest(np.exp(log_g), stats.gamma(shape).cdf).statistic <= crit


class _ZeroGamma:
    """A generator whose call-th standard_gamma draws start with an exact zero."""

    def __init__(self, call):
        self.gen, self.call, self.calls = as_generator(5), call, 0

    def random(self, size):
        return self.gen.random(size)

    def standard_gamma(self, shape, size):
        g = self.gen.standard_gamma(shape, size)
        self.calls += 1
        if self.calls == self.call and g.size:
            g[0] = 0.0
        return g


@pytest.mark.parametrize("call, end", [(1, math.inf), (3, -math.inf)])
def test_zero_gamma_draw_lands_on_an_end(call, end):
    # calls: G_a on the first component's mask, G_(a+1) on the rest, then G_nu;
    # at nu = 1 and k = 0.3 every shape is at least 1, so G is drawn directly
    gen = _ZeroGamma(call)
    log_y = _gamma_share_log_draw(gen, 64, 1.0, 0.3)
    assert np.count_nonzero(np.isnan(log_y)) == 0
    assert end in log_y
    x = Type1(1.5, 1.0, 1.0, 0.3)._draw(_ZeroGamma(call), 64)
    assert np.count_nonzero(np.isnan(x)) == 0 and (0.0 if end < 0.0 else math.inf) in x


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

"""Exact draws: the Beta mixture behind the Type I law (Type1, KappaErlang
and KappaNormal), taken at an integral nu up to core._DRAW_ORDERS from n
exponentials and at any other nu from its Gamma kernel, and the Type V
rejection in a = arcsinh(k beta x), each against inverse-transform draws
and binned counts; the share of draws past the largest float; no family's
draws run the quantile solver; and the families with a closed quantile
(Type2, Type3, Type4, KappaLogistic), whose draws stay the inverse
transform bit for bit."""

import math
import warnings
from fractions import Fraction

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
from kappadist import core
from kappadist.core import _DRAW_ORDERS, _gamma_share_log_draw, _log_gamma_draw
from kappadist.framework import PowerTransformed

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


def _integral_kappas(n):
    """A vanishing kappa, a moderate one and one next to the pole n kappa = 1."""
    return (1e-8, 0.3 if 0.3 * n < 1.0 else 0.5 / n, 1.0 / n - 1e-6)


# the exponential route, its last order and the first order past it, which
# takes the Gamma kernel; at beta = 1, since next to the pole most of the
# mass lies past the largest float, where beta x overflows for a beta > 1
INTEGRAL = [
    *(KappaErlang(n, 1.0, k) for n in (1, 2, 5, _DRAW_ORDERS, _DRAW_ORDERS + 1) for k in _integral_kappas(n)),
    KappaErlang(1, 1.3, 0.9),
    Type1(-2.0, 1.3, 2.0, 0.3),
]


@pytest.mark.parametrize("d", INTEGRAL, ids=repr)
def test_integral_order_two_sample_ks(d):
    draws = d.sample(N, 31)
    reference = Distribution._draw(d, as_generator(32), N)
    assert stats.ks_2samp(draws, reference).statistic <= KS_COEF * math.sqrt(2.0 / N)
    assert np.unique(draws[np.isfinite(draws)]).size == np.count_nonzero(np.isfinite(draws))


@pytest.mark.parametrize("d", INTEGRAL, ids=repr)
def test_integral_order_binned_chi_square(d):
    # up to 50 bins of equal probability below the largest float, each
    # expecting at least 50 draws, and one bin for the draws past it: next
    # to the pole most of the mass lies there
    n = 400000
    draws = d.sample(n, 5)
    below, past = d.cdf(FLOAT_MAX), d.survival(FLOAT_MAX)
    bins = int(min(50, n * below / 50.0))
    edges = d.quantile(below * np.arange(1, bins) / bins)
    finite = draws[np.isfinite(draws)]
    counts = np.append(np.bincount(np.searchsorted(edges, finite), minlength=bins), n - finite.size)
    expect = np.append(np.full(bins, n * below / bins), max(n * past, 1e-300))
    chi2 = float(np.sum((counts - expect) ** 2 / expect))
    assert chi2 <= stats.chi2.isf(1e-6, bins)


@pytest.mark.parametrize(
    "d",
    [
        KappaErlang(1, 1.0, 0.9974),  # 16% of the mass past the largest float
        KappaErlang(2, 1.0, 0.4993),  # 14%
        Type1(1.0, 1.0, float(_DRAW_ORDERS), 1.0 / _DRAW_ORDERS - 2e-5),  # 32% at nu = 9
    ],
    ids=repr,
)
def test_share_of_integral_order_draws_past_the_largest_float(d):
    n = 200000
    p = d.survival(FLOAT_MAX)
    share = np.count_nonzero(np.isinf(d.sample(n, 9))) / n
    assert abs(share - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)


class _Fixed:
    """A generator whose uniforms all read u and whose exponentials all read e."""

    def __init__(self, u, e):
        self.u, self.e = u, e

    def random(self, size):
        return np.full(size, self.u)

    def standard_exponential(self, size):
        return np.full(size, self.e)


@pytest.mark.parametrize("c", [0, 1])
@pytest.mark.parametrize(
    "n, k",
    [(1, 1e-300), (1, 0.3), (1, 1.0 - 1e-12), (2, 1e-9), (2, 0.5 - 1e-13), (3, 0.3), (9, 1.0 / 9.0 - 1e-12)],
)
@pytest.mark.parametrize("e", [1e-12, 1.0, 30.0])
def test_exponential_route_against_mpmath(n, k, c, e):
    # c = 0 where the uniform is below w1 = (1 + n k)/2: u = 0 takes it, u = 1 - 2^-53 the other
    gen = _Fixed(0.0 if c == 0 else 1.0 - 2.0**-53, e)
    log_y = _gamma_share_log_draw(gen, 4, float(n), k)
    with mpmath.workdps(60):
        kk = mpmath.mpf(k)
        t = sum(mpmath.mpf(e) / (1 + (2 * (i + c) - n) * kk) for i in range(n))
        ref = mpmath.log(mpmath.sinh(kk * t) / kk)
    assert np.all(np.abs(log_y - float(ref)) <= 4.0 * 2.0**-52 * max(1.0, abs(float(ref))))


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

    monkeypatch.setattr(PowerTransformed, "_y_solve", refuse)
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

    monkeypatch.setattr(PowerTransformed, "_y_solve", refuse)
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
    # at nu = 1.5 and k = 0.3, a = 0.92: G_a is G_(a+1) U^(1/a), which a zero
    # G_(a+1) makes zero, and the other two are drawn directly
    gen = _ZeroGamma(call)
    log_y = _gamma_share_log_draw(gen, 64, 1.5, 0.3)
    assert np.count_nonzero(np.isnan(log_y)) == 0
    assert end in log_y
    x = Type1(1.5, 1.0, 1.5, 0.3)._draw(_ZeroGamma(call), 64)
    assert np.count_nonzero(np.isnan(x)) == 0 and (0.0 if end < 0.0 else math.inf) in x


@pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
@pytest.mark.parametrize("nu", [1.0, 3.0])
@pytest.mark.parametrize("k", [1e-300, 0.3])
def test_zero_exponential_draws_land_on_the_origin(u, nu, k):
    # at an integral nu, T = sum E_i/(1 + (2(i + c) - nu) k) is 0, so log y = -inf
    assert np.all(_gamma_share_log_draw(_Fixed(u, 0.0), 8, nu, k) == -math.inf)
    for alpha, end in ((1.5, 0.0), (-2.0, math.inf)):
        assert np.all(Type1(alpha, 1.0, nu, k)._draw(_Fixed(u, 0.0), 8) == end)


@pytest.mark.parametrize("nu, k", [(0.5, 0.3), (2.5, 0.39999999), (float(_DRAW_ORDERS + 1), 0.1 - 1e-13)])
def test_gamma_route_shape_against_exact_rationals(nu, k, monkeypatch):
    # a = (1 - nu k)/2k; 1/2k - nu/2 read 3.5e-9 relative off at (2.5, 0.39999999)
    shapes = []

    def record(gen, shape, size):
        shapes.append(shape)
        return _log_gamma_draw(gen, shape, size)

    monkeypatch.setattr(core, "_log_gamma_draw", record)
    _gamma_share_log_draw(as_generator(1), 100, nu, k)
    exact = (1 - Fraction(nu) * Fraction(k)) / (2 * Fraction(k))
    assert abs(Fraction(shapes[0]) - exact) <= Fraction(2.0**-52) * exact
    assert shapes[1:] == [shapes[0] + 1.0, nu]


# seeded draws at a non-integral nu, recorded while the Gamma kernel's shape
# was formed as 1/2k - nu/2; formed from the exact nu k it moves by at most
# a few ulp, and the draws with it
PINNED = [
    (KappaNormal(1.3, 0.3), [-0.3169808680828893, -0.3349836729898274, 0.028740559504087593, 0.24455408200227885, -0.3464424889775476]),
    (Type1(1.5, 1.3, 0.5, 0.3), [0.21612785034935864, 0.23264739117990468, 0.008803599788070467, 0.1529325353400002, 0.24331835225634932]),
    (Type1(-2.0, 1.3, 1.5, 0.3), [2.936925295819351, 0.44520976620921776, 0.8501651181640388, 1.3721825655981443, 1.3373102328199906]),
    (KappaNormal(1.3, 0.6), [0.40132035090219553, -0.09982706643149321, 0.6587797080317838, 0.8656515221625826, -0.04361967236814292]),
    (Type1(1.5, 1.3, 0.5, 0.6), [0.2960203567930346, 0.046308894325573315, 0.573218613794574, 0.8250066756313053, 0.015354765879666367]),
    (Type1(-2.0, 1.3, 1.5, 0.6), [0.802400160124467, 0.9772383591085824, 0.03369625255375483, 0.07749934608445984, 0.6613383803643761]),
]


@pytest.mark.parametrize("d, ref", PINNED, ids=[repr(d) for d, _ in PINNED])
def test_non_integral_draws_are_pinned(d, ref):
    np.testing.assert_array_max_ulp(d.sample(5, 21), np.array(ref), maxulp=4)


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

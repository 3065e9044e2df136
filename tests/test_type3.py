import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from kappadist import (
    DomainError,
    KappaLogistic,
    MomentDivergesError,
    Type2,
    Type3,
    kappa_log,
    oracle,
)
from conftest import integrate_pdf, ks_statistic

GRID = [
    # (alpha, beta, lam, kappa): bosonic, fermionic, classical, alpha < 0
    (1.0, 1.0, 2.0, 0.3),
    (2.0, 1.5, 0.5, 0.25),
    (1.5, 1.0, 3.0, 0.4),
    (0.8, 2.0, 0.7, 0.45),
    (1.0, 1.0, 2.0, 0.0),
    (-1.0, 1.0, 2.0, 0.3),
    (-1.5, 1.0, 0.5, 0.4),
]


class TestDensity:
    @pytest.mark.parametrize("params", GRID)
    def test_normalization(self, params):
        assert integrate_pdf(Type3(*params)) == pytest.approx(1.0, abs=1e-8)

    def test_lambda_one_is_type2(self):
        a, b, k = 1.7, 1.2, 0.35
        d3 = Type3(a, b, 1.0, k)
        d2 = Type2(a, b, k)
        x = np.array([0.2, 0.9, 2.4, 6.0])
        np.testing.assert_allclose(d3.pdf(x), d2.pdf(x), rtol=1e-12)
        np.testing.assert_allclose(d3.cdf(x), d2.cdf(x), rtol=1e-12)
        np.testing.assert_allclose(d3.cum_hazard(x), d2.cum_hazard(x), rtol=1e-12)

    def test_pdf_matches_cdf_derivative(self):
        for params in [(1.0, 1.0, 2.0, 0.3), (2.0, 1.5, 0.5, 0.25), (-1.0, 1.0, 2.0, 0.3)]:
            d = Type3(*params)
            for x in (0.5, 1.3, 3.1):
                fd = oracle.differentiate(d.cdf, x, order=1)
                assert d.pdf(x) == pytest.approx(fd.value, rel=1e-8, abs=1e-11)

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            Type3(1.0, 1.0, 0.0, 0.3)
        with pytest.raises(DomainError):
            Type3(1.0, 1.0, -2.0, 0.3)
        with pytest.raises(DomainError):
            Type3(0.0, 1.0, 1.0, 0.3)


class TestRateEquation:
    @pytest.mark.parametrize("params", GRID[:5])
    def test_residual_small(self, params):
        d = Type3(*params)
        for x in (0.4, 1.1, 2.8):
            assert abs(d.rate_residual(x)) < 1e-7


class TestQuantile:
    @pytest.mark.parametrize("params", GRID)
    def test_roundtrip(self, params):
        d = Type3(*params)
        ps = np.array([0.001, 0.2, 0.5, 0.85, 0.999])
        np.testing.assert_allclose(d.cdf(d.quantile(ps)), ps, rtol=1e-11, atol=1e-12)

    def test_median_bosonic_fermionic_shift(self):
        # lambda > 1 thickens the tail: fermionic median above the lambda=1 one
        a, b, k = 1.0, 1.0, 0.3
        m1 = Type3(a, b, 1.0, k).quantile(0.5)
        assert Type3(a, b, 2.0, k).quantile(0.5) > m1
        assert Type3(a, b, 0.5, k).quantile(0.5) < m1


class TestMoments:
    def test_quadrature_moments_exist_in_window(self):
        d = Type3(2.0, 1.0, 2.0, 0.4)  # window m < 5
        m1 = d.raw_moment(1)
        m2 = d.raw_moment(2)
        assert 0 < m1 < math.sqrt(m2)

    def test_divergence_window(self):
        d = Type3(1.0, 1.0, 2.0, 0.3)
        with pytest.raises(MomentDivergesError) as exc:
            d.raw_moment(4)
        assert "alpha/kappa" in str(exc.value)

    @pytest.mark.parametrize("k", [1e-8, 1e-5, 1e-3, 0.01, 0.02])
    def test_small_kappa_against_survival_integral(self, k):
        """<x^m> = beta^(-r) int S(t^(1/r)) dt with r = m/alpha (from
        int m x^(m-1) S dx); the oracle's tail substitution used to under-
        or overflow at tail powers 1 + alpha/kappa this large."""
        a, b, lam = 2.5, 1.0, 2.0
        d = Type3(a, b, lam, k)
        for m in (1.0, 1.5, 2.0):
            r = m / a
            with mpmath.workdps(20):
                kk = mpmath.mpf(k)

                def survival(t):
                    y = b * t ** (1 / mpmath.mpf(r))
                    e = mpmath.exp(-mpmath.asinh(kk * y) / kk)
                    return lam * e / (1 + (lam - 1) * e)

                expect = mpmath.mpf(b) ** -r * mpmath.quad(survival, [0, 1, 10, mpmath.inf])
            assert d.raw_moment(m) == pytest.approx(float(expect), rel=1e-9), m

    def test_lambda_one_matches_type2_moment(self):
        d3 = Type3(2.0, 1.5, 1.0, 0.3)
        d2 = Type2(2.0, 1.5, 0.3)
        assert d3.raw_moment(1) == pytest.approx(d2.raw_moment(1), rel=1e-8)


class TestSampling:
    def test_ks(self):
        d = Type3(1.5, 1.0, 2.0, 0.3)
        draws = d.sample(20000, 5)
        assert ks_statistic(draws, d.cdf) < 1.63 / math.sqrt(20000)


class TestKappaLogistic:
    def test_normalizes_on_real_line(self):
        d = KappaLogistic(1.5, 0.4)
        val, _ = integrate.quad(d.pdf, -np.inf, np.inf, epsabs=1e-10, epsrel=1e-10)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_cdf_at_location(self):
        d = KappaLogistic(2.0, 0.3, loc=1.7)
        assert d.cdf(1.7) == pytest.approx(0.5, rel=1e-13)
        assert d.mode().x == 1.7

    def test_quantile_closed_form(self):
        d = KappaLogistic(2.0, 0.3, loc=-0.5)
        for p in (0.05, 0.5, 0.95):
            expect = -0.5 + kappa_log(p / (1 - p), 0.3) / 2.0
            assert d.quantile(p) == pytest.approx(expect, rel=1e-12)
            assert d.cdf(d.quantile(p)) == pytest.approx(p, rel=1e-12)

    def test_classical_limit_is_logistic(self):
        d = KappaLogistic(1.0, 0.0)
        x = np.linspace(-4, 4, 9)
        np.testing.assert_allclose(d.cdf(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)

    def test_moments_not_provided(self):
        with pytest.raises(DomainError):
            KappaLogistic(1.0, 0.3).raw_moment(1)

    @pytest.mark.parametrize("loc", [0.0, -1000.0])
    @pytest.mark.parametrize("kappa", [0.0, 1e-310, 0.3, 0.9])
    def test_is_the_reflection_of_type3(self, kappa, loc):
        # exp_k(z) exp_k(-z) = 1: the cdf 1/(1 + E) mirrors the Type III
        # survival 2E/(1 + E) at alpha = 1, lambda = 2, to the bit
        d = KappaLogistic(1.3, kappa, loc=loc)
        mirror = Type3(1.0, 1.3, 2.0, kappa).symmetrize()
        x = loc + np.array([-1e300, -800.0, -30.0, -1.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 30.0, 720.0, 1e300])
        x = np.append(x, [loc - 1e-12, loc + 1e-12, np.inf, -np.inf, np.nan])
        for name in ("pdf", "logpdf", "cdf", "survival"):
            got, want = getattr(d, name)(x), getattr(mirror, name)(x - loc)
            assert np.array_equal(got, want, equal_nan=True), name
            assert np.array_equal([getattr(d, name)(float(v)) for v in x], want, equal_nan=True), name

    @pytest.mark.parametrize("p", [0.5 - 1e-10, 0.5 + 1e-10, 0.5 - 1e-6, 0.5 + 1e-6, 0.5 - 2.0**-54])
    @pytest.mark.parametrize("kappa", [0.0, 0.3, 0.9])
    def test_quantile_near_the_median(self, kappa, p):
        # the share beyond the median, 2p - 1 or 2p, is exact: a kappa-log of
        # the rounded odds p/(1 - p) would keep only about eps/|p - 1/2| of it
        with mpmath.workdps(40):
            k, odds = mpmath.mpf(kappa), mpmath.mpf(p) / (1 - mpmath.mpf(p))
            log_odds = mpmath.log(odds)
            expect = float(log_odds if kappa == 0.0 else mpmath.sinh(k * log_odds) / k) / 1.3
        d = KappaLogistic(1.3, kappa)
        assert d.quantile(p) == pytest.approx(expect, rel=1e-15, abs=0.0)
        assert d._quantile(np.array([p]), upper=True)[0] == pytest.approx(-expect, rel=1e-15, abs=0.0)


def _mp_log_e(x, alpha, beta, kappa):
    """50-digit log kappa_exp(-beta x^alpha)."""
    k, y = mpmath.mpf(kappa), mpmath.mpf(beta) * mpmath.mpf(x) ** alpha
    return -y if k == 0 else -mpmath.asinh(k * y) / k


class TestTailsFromLogE:
    """Type III (and Type II = Type III at lambda = 1) evaluated from log E
    keep relative precision where E is close to 0 or 1; 50-digit mpmath."""

    def test_type2_cdf_near_origin(self):
        with mpmath.workdps(50):
            expect = float(-mpmath.expm1(_mp_log_e(1e-12, 1.5, 1.0, 0.3)))
        assert Type2(1.5, 1.0, 0.3).cdf(1e-12) == pytest.approx(expect, rel=1e-14, abs=0.0)

    def test_type2_alpha_negative_survival_far_out(self):
        with mpmath.workdps(50):
            expect = float(-mpmath.expm1(_mp_log_e(1e8, -1.5, 1.0, 0.3)))
        assert Type2(-1.5, 1.0, 0.3).survival(1e8) == pytest.approx(expect, rel=1e-14, abs=0.0)

    def test_type3_alpha_negative_cdf_near_origin(self):
        with mpmath.workdps(50):
            e = mpmath.exp(_mp_log_e(1e-3, -1.5, 1.0, 0.3))
            expect = float(2 * e / (1 + e))
        assert Type3(-1.5, 1.0, 2.0, 0.3).cdf(1e-3) == pytest.approx(expect, rel=1e-13, abs=0.0)

    def test_pdf_at_origin_limits(self):
        assert Type3(-1.0, 1.0, 2.0, 0.0).pdf(0.0) == 0.0  # essential zero
        # alpha < 0, |alpha| = kappa: lambda (|alpha|/k) (2 k beta)^(-1/k) = 2
        assert Type3(-0.5, 1.0, 2.0, 0.5).pdf(0.0) == pytest.approx(2.0, rel=1e-15)

    def test_logpdf_far_tail(self):
        x, a, b, lam, k = 1e60, 1.5, 1.0, 2.0, 0.3
        with mpmath.workdps(50):
            le = _mp_log_e(x, a, b, k)
            u = k * b * mpmath.mpf(x) ** a
            expect = float(
                mpmath.log(lam * a * b)
                + (a - 1) * mpmath.log(x)
                - mpmath.log(mpmath.sqrt(1 + u * u))
                + le
                - 2 * mpmath.log1p((lam - 1) * mpmath.exp(le))
            )
        got = Type3(a, b, lam, k).logpdf(x)
        assert math.isfinite(got) and got == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("x", [1e110, 1e200])
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_logpdf_past_u_overflow(self, lam, x):
        # u = k beta x^alpha is past 1.3e154, where u*u overflows
        a, b, k = 1.5, 1.0, 0.3
        with mpmath.workdps(50):
            le = _mp_log_e(x, a, b, k)
            u = k * b * mpmath.mpf(x) ** a
            expect = float(
                mpmath.log(lam * a * b)
                + (a - 1) * mpmath.log(x)
                - mpmath.log(mpmath.sqrt(1 + u * u))
                + le
                - 2 * mpmath.log1p((lam - 1) * mpmath.exp(le))
            )
        d = Type2(a, b, k) if lam == 1.0 else Type3(a, b, lam, k)
        assert d.logpdf(x) == pytest.approx(expect, rel=1e-13)

    def test_classical_density_where_y_overflows(self):
        # kappa = 0: beta x^alpha = inf, where k * y used to read 0 * inf
        assert Type2(2.5, 1.0, 0.0).logpdf(1e200) == -np.inf
        assert Type2(-2.5, 1.0, 0.0).logpdf(1e-200) == -np.inf
        assert Type3(2.5, 1.0, 2.0, 0.0).pdf(1e200) == 0.0

    @pytest.mark.parametrize("d", [Type2(1.5, 1.0, 0.3), Type3(1.5, 1.0, 2.0, 0.3)], ids=repr)
    def test_density_at_infinity(self, d):
        assert d.pdf(np.inf) == 0.0
        assert d.logpdf(np.inf) == -np.inf
        assert np.array_equal(d.logpdf(np.array([np.inf, np.inf])), [-np.inf, -np.inf])


class TestCumHazardEnds:
    """cum_hazard is +0.0 at the origin and +inf where the survival
    vanishes, at either sign of alpha, without a warning."""

    @pytest.mark.parametrize(
        "d",
        [Type2(-0.7, 2.0, 0.9), Type3(-1.5, 1.0, 0.5, 0.6), Type2(1.5, 1.0, 0.3), Type3(2.0, 1.0, 2.0, 0.0)],
        ids=repr,
    )
    def test_ends(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_origin = d.cum_hazard(0.0)
            far = d.cum_hazard(np.inf)
            arr = d.cum_hazard(np.array([0.0, 1.0, 1e300, np.inf]))
            # about 1035 for Type3(-1.5, 1, 0.5, 0.6); y = x^-1.5 underflows there
            big = d.cum_hazard(1e300)
        assert at_origin == 0.0 and math.copysign(1.0, at_origin) == 1.0
        assert far == math.inf
        assert math.copysign(1.0, arr[0]) == 1.0 and arr[0] == 0.0 and arr[-1] == math.inf
        assert arr[1] == pytest.approx(d.cum_hazard(1.0), rel=1e-15)
        assert big > 400.0 and arr[2] == big


@functools.lru_cache(maxsize=None)
def _mp_y_moment(r, lam, k):
    """30-digit <Y^r> of the law of Y = beta x^alpha: int r y^(r-1) S_Y dy
    for r > 0 and int -r y^(r-1) F_Y dy for -1 < r < 0.  In w = log y the
    integrand falls like exp(-rate |w|) at both ends; w = v/rate makes that
    rate 1."""
    with mpmath.workdps(30):
        r, k, lam = mpmath.mpf(r), mpmath.mpf(k), mpmath.mpf(lam)
        rate = min(r if r > 0 else 1 + r, 1 / k - r if r > 0 else -r)

        def f(v):
            w = v / rate
            log_e = -mpmath.asinh(k * mpmath.exp(w)) / k
            e = mpmath.exp(log_e)
            share = lam * e if r > 0 else -mpmath.expm1(log_e)  # S_Y or F_Y
            return abs(r) / rate * mpmath.exp(r * w) * share / (1 + (lam - 1) * e)

        return mpmath.quad(f, [-mpmath.inf, 0, mpmath.inf])


def _mp_type3_moment(b, lam, k, r):
    """<x^m> = beta^(-r) <Y^r> with r = m/alpha."""
    with mpmath.workdps(30):
        return float(mpmath.mpf(b) ** -r * _mp_y_moment(r, lam, k))


SERIES_ALPHAS = (2.5, 2.0, 1.5, -1.5, -2.5)
SERIES_KAPPAS = (0.1, 0.3, 0.9)
SERIES_LAMBDAS = (0.01, 0.05, 0.5, 1.0, 1.5, 1.99, 2.0)


class TestSeriesMoments:
    """For lambda <= 2 the moments are a series of Type II Mellin terms,
    summed directly (lambda <= 1) or accelerated (1 < lambda <= 2)."""

    @pytest.fixture
    def no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Type III moments at lambda <= 2 must not integrate")

        monkeypatch.setattr(oracle, "integrate_semiaxis", refuse)

    @pytest.mark.parametrize("k", SERIES_KAPPAS)
    @pytest.mark.parametrize("a", SERIES_ALPHAS)
    def test_against_mpmath(self, a, k, no_quadrature):
        # <x^m> depends on alpha only through r = m/alpha, so every alpha of
        # one sign shares the reference at r; r cycles through 5%, 50% and
        # 95% of its window (-1, 0) or (0, 1/kappa) along lambda
        b = 1.3
        for i, lam in enumerate(SERIES_LAMBDAS):
            f = (0.05, 0.5, 0.95)[(i + SERIES_KAPPAS.index(k)) % 3]
            r = -f if a < 0.0 else f / k
            expect = _mp_type3_moment(b, lam, k, r)
            assert Type3(a, b, lam, k).raw_moment(r * a) == pytest.approx(expect, rel=1e-12), (lam, r)

    def test_edge_of_the_negative_window(self, no_quadrature):
        # r = -0.999: the accelerated terms grow like (j+1)^0.999
        for lam in (1.99, 2.0):
            for k in SERIES_KAPPAS:
                expect = _mp_type3_moment(1.3, lam, k, -0.999)
                got = Type3(-1.5, 1.3, lam, k).raw_moment(0.999 * 1.5)
                assert got == pytest.approx(expect, rel=1e-12), (lam, k)

    def test_order_zero_is_one(self, no_quadrature):
        for lam in SERIES_LAMBDAS:
            assert Type3(2.5, 1.3, lam, 0.3).raw_moment(0) == 1.0
        assert Type2(2.5, 1.3, 0.1).raw_moment(0) == 1.0

    def test_beyond_lambda_two_integrates(self, monkeypatch):
        calls = []
        real = oracle.integrate_semiaxis

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "integrate_semiaxis", counted)
        d = Type3(2.5, 1.3, 5.0, 0.3)
        assert d.raw_moment(1.0) == pytest.approx(_mp_type3_moment(1.3, 5.0, 0.3, 0.4), rel=1e-9)
        assert calls == [1]


class TestSmallLambdaShares:
    """For lambda < 1 the denominator 1 + (lambda-1) E is summed as
    lambda E + (1 - E): near the origin, where E is close to 1, the
    difference form lost digits and the survival read 1 + 2^-52 at 0."""

    @pytest.mark.parametrize("lam", [0.01, 0.0625, 0.2, 0.7])
    def test_shares_against_mpmath(self, lam):
        k = 0.5
        d = Type3(1.0, 1.0, lam, k)
        xs = np.geomspace(1e-12, 1e3, 31)
        sf, cdf = d.survival(xs), d.cdf(xs)
        with mpmath.workdps(30):
            for x, s, c in zip(xs, sf, cdf):
                e = mpmath.exp(-mpmath.asinh(k * mpmath.mpf(x)) / k)
                den = 1 + (lam - 1) * e
                assert s == pytest.approx(float(lam * e / den), rel=2e-15, abs=0.0), x
                assert c == pytest.approx(float((1 - e) / den), rel=2e-15, abs=0.0), x
        assert d.survival(0.0) == 1.0 and d.cdf(0.0) == 0.0


class TestKappaLogisticUpperTail:
    @pytest.mark.parametrize("x", [40.0, 1e3, 1e10, 1e50])
    def test_survival_is_the_cdf_mirrored(self, x):
        d = KappaLogistic(1.0, 0.3)
        with mpmath.workdps(40):
            k, z = mpmath.mpf(0.3), mpmath.mpf(x)
            e = mpmath.exp(-mpmath.asinh(k * z) / k)
            expect = float(e / (1 + e))
        assert d.survival(x) == pytest.approx(expect, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("loc", [0.0, -1000.0])
    @pytest.mark.parametrize("kappa", [0.0, 1e-8, 0.3, 0.9])
    def test_shares_into_the_subnormals(self, kappa, loc):
        # past E = e^709.78 the shares are 1/E, which stays a float down to
        # 2^-1074: at kappa = 0, cdf(-720) = survival(720) = e^-720 = 2.03e-313
        d = KappaLogistic(1.0, kappa, loc=loc)
        x = loc + np.array([-800.0, -745.0, -740.0, -720.0, -709.0, -30.0, 0.0, 30.0, 709.0, 720.0, 740.0, 745.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cdf, sf = d.cdf(x), d.survival(x)
        assert np.array_equal(cdf, [d.cdf(float(v)) for v in x])
        for v, c, s in zip(x, cdf, sf):
            with mpmath.workdps(50):
                k, z = mpmath.mpf(kappa), mpmath.mpf(v) - mpmath.mpf(loc)
                log_e = -z if kappa == 0.0 else -mpmath.asinh(k * z) / k
                refs = float(1 / (1 + mpmath.exp(log_e))), float(1 / (1 + mpmath.exp(-log_e)))
            for got, ref in zip((c, s), refs):
                # relative below the normal range, then two steps of the subnormal grid
                assert abs(got - ref) <= 1e-13 * ref + 2.0**-1073, (v, got, ref)
        if kappa == 0.0:
            assert d.cdf(loc - 720.0) == d.survival(loc + 720.0) == pytest.approx(2.0322e-313, rel=1e-4)

    def test_far_tails_underflow_without_a_warning(self):
        # the true shares, about 1e-333, are below every normal float
        d = KappaLogistic(1.0, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0.0 <= d.survival(1e100) < 1e-300
            assert 0.0 <= d.cdf(-1e100) < 1e-300


def _mp_logistic(x, k):
    """50-digit log pdf and hazard of KappaLogistic(1, k) at x."""
    with mpmath.workdps(50):
        k, z = mpmath.mpf(k), mpmath.mpf(x)

        def e(t):
            return mpmath.exp(-mpmath.asinh(k * t) / k)

        pdf = e(z) / (mpmath.sqrt(1 + (k * z) ** 2) * (1 + e(z)) ** 2)
        return float(mpmath.log(pdf)), float(pdf * (1 + e(-z)))


class TestKappaLogisticLogDensity:
    """The density in log form holds far out on both sides, and the hazard
    follows the declared tail power pdf ~ x^-(1 + 1/kappa)."""

    @pytest.mark.parametrize("x", [1e3, 1e30, 1e90, 1e200, 1e300, -1e3, -1e30, -1e90, -1e200, -1e300])
    def test_logpdf_and_hazard_against_mpmath(self, x):
        d = KappaLogistic(1.0, 0.3)
        log_pdf, hazard = _mp_logistic(x, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.logpdf(x) == pytest.approx(log_pdf, rel=1e-14)
            assert d.hazard(x) == pytest.approx(hazard, rel=1e-12, abs=0.0)
            assert np.array_equal(d.logpdf(np.array([x])), [d.logpdf(x)])

    @pytest.mark.parametrize("k", [0.0, 0.3, 0.5, 0.9])
    def test_moments_stay_not_provided(self, k):
        d = KappaLogistic(1.0, k)
        for call in (lambda: d.raw_moment(2), d.variance, d.descriptive_stats, d.mean):
            with pytest.raises(DomainError, match="not provided"):
                call()

    def test_tail_power(self):
        assert KappaLogistic(2.0, 0.25)._pdf_tail_power() == 5.0
        assert KappaLogistic(2.0, 0.0)._pdf_tail_power() is None

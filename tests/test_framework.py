import math

import numpy as np
import pytest

from kappadist import (
    DomainError,
    KappaErlang,
    KappaLogistic,
    KappaNormal,
    MomentDivergesError,
    Type1,
    Type2,
    Type3,
    Type4,
    Type5,
    VarianceDivergesError,
    as_generator,
)


class TestRng:
    def test_accepts_seed_and_generator(self):
        g = as_generator(7)
        assert isinstance(g, np.random.Generator)
        assert as_generator(g) is g
        with pytest.raises(DomainError):
            as_generator("7")
        with pytest.raises(DomainError):
            as_generator(None)

    def test_rejects_bool_and_negative_seeds(self):
        with pytest.raises(DomainError):
            as_generator(True)
        with pytest.raises(DomainError):
            as_generator(-1)
        assert isinstance(as_generator(np.int32(4)), np.random.Generator)

    def test_sample_size_must_be_an_integer(self):
        d = Type2(2.0, 1.0, 0.3)
        for size in (2.5, 3.0, True, 0, -2):
            with pytest.raises(DomainError):
                d.sample(size, 1)
        assert np.array_equal(d.sample(np.int64(3), 5), d.sample(3, 5))

    def test_seed_reproducibility(self):
        d = Type2(2.0, 1.0, 0.3)
        a = d.sample(100, 1234)
        b = d.sample(100, 1234)
        assert np.array_equal(a, b)
        c = d.sample(100, 1235)
        assert not np.array_equal(a, c)


class TestQuantile:
    def test_scalar_and_array_agree(self):
        d = Type1(1.5, 2.0, 1.2, 0.3)
        ps = np.array([0.05, 0.3, 0.5, 0.9, 0.999])
        arr = d.quantile(ps)
        for p, xa in zip(ps, arr):
            assert d.quantile(float(p)) == pytest.approx(float(xa), rel=1e-9)

    def test_roundtrip(self):
        d = Type1(2.0, 1.0, 1.0, 0.4)
        for p in (0.0, 0.01, 0.5, 0.99):
            assert d.cdf(d.quantile(p)) == pytest.approx(p, abs=1e-12)

    def test_domain(self):
        d = Type2(1.0, 1.0, 0.2)
        with pytest.raises(DomainError):
            d.quantile(1.0)
        with pytest.raises(DomainError):
            d.quantile(-0.1)


class TestDescriptiveStats:
    def test_exponential_reference_values(self):
        # Type II at alpha=1, kappa=0 is the unit exponential:
        # mean 1, variance 1, CV 1, skewness 2, kurtosis 9
        d = Type2(1.0, 1.0, 0.0)
        s = d.descriptive_stats()
        assert s.mean == pytest.approx(1.0, rel=1e-9)
        assert s.variance == pytest.approx(1.0, rel=1e-8)
        assert s.coefficient_of_variation == pytest.approx(1.0, rel=1e-8)
        assert s.skewness == pytest.approx(2.0, rel=1e-7)
        assert s.kurtosis == pytest.approx(9.0, rel=1e-6)


class TestSymmetrize:
    def test_cdf_and_density(self):
        half = Type1(2.0, 1.0, 0.5, 0.3)
        sym = half.symmetrize()
        assert sym.cdf(0.0) == pytest.approx(0.5)
        for x in (0.3, 1.1):
            assert sym.pdf(x) == pytest.approx(sym.pdf(-x), rel=1e-12)
            assert sym.pdf(x) == pytest.approx(0.5 * half.pdf(x), rel=1e-12)
            assert sym.cdf(x) + sym.cdf(-x) == pytest.approx(1.0, rel=1e-12)

    def test_quantile_and_moments(self):
        sym = Type1(2.0, 1.0, 0.5, 0.3).symmetrize()
        for p in (0.01, 0.25, 0.5, 0.9):
            assert sym.cdf(sym.quantile(p)) == pytest.approx(p, abs=1e-10)
        assert sym.raw_moment(1) == 0.0
        assert sym.raw_moment(3) == 0.0
        assert sym.raw_moment(2) > 0.0

    def test_cannot_symmetrize_twice(self):
        sym = Type1(2.0, 1.0, 0.5, 0.3).symmetrize()
        with pytest.raises(DomainError):
            sym.symmetrize()
        with pytest.raises(DomainError):
            KappaNormal(1.0, 0.3).symmetrize()

    def test_sampling_through_symmetrizer(self):
        sym = Type1(2.0, 1.0, 0.5, 0.2).symmetrize()
        s = sym.sample(4000, 99)
        assert abs(np.mean(np.sign(s))) < 0.06


class TestRepr:
    def test_repr_shows_params(self):
        r = repr(Type2(2.0, 1.0, 0.3))
        assert "Type2" in r and "alpha=2.0" in r and "kappa=0.3" in r


EVERY_FAMILY = [
    Type1(1.5, 1.0, 0.8, 0.3),
    Type1(-1.5, 1.0, 0.8, 0.3),
    Type1(2.0, 1.0, 1.0, 0.0),
    KappaErlang(2, 1.0, 0.3),
    KappaErlang(3, 1.0, 0.0),
    KappaNormal(1.0, 0.3),
    Type2(1.5, 1.0, 0.3),
    Type2(-1.5, 1.0, 0.9),
    Type2(2.5, 1.0, 0.0),
    Type3(1.5, 1.0, 2.0, 0.3),
    Type3(-1.5, 1.0, 0.5, 0.0),
    KappaLogistic(1.0, 0.3),
    KappaLogistic(1.0, 0.0, loc=0.5),
    Type4(1.5, 1.0, 0.3),
    Type5(1, 1.0, 0.9),
    Type5(2, 1.0, 0.4),
    Type5(3, 1.0, 0.4),
    Type5(3, 1.0, 0.0),
    Type2(1.5, 1.0, 0.3).symmetrize(),
]


class TestLimits:
    """pdf/logpdf/cdf/survival at 0 and +-inf (-inf on the real line only),
    scalar and array, with RuntimeWarnings raised as errors."""

    @pytest.mark.parametrize("d", EVERY_FAMILY, ids=repr)
    def test_limits_at_infinity(self, d):
        ends = [(math.inf, 1.0)]
        if d.support_real_line:
            ends.append((-math.inf, 0.0))
        for x, cdf in ends:
            assert d.pdf(x) == 0.0
            assert d.logpdf(x) == -math.inf
            assert d.cdf(x) == cdf
            assert d.survival(x) == 1.0 - cdf
            xs = np.array([x, x])
            np.testing.assert_array_equal(d.pdf(xs), [0.0, 0.0])
            np.testing.assert_array_equal(d.logpdf(xs), [-math.inf, -math.inf])
            np.testing.assert_array_equal(d.cdf(xs), [cdf, cdf])
            np.testing.assert_array_equal(d.survival(xs), [1.0 - cdf, 1.0 - cdf])

    @pytest.mark.parametrize("d", EVERY_FAMILY, ids=repr)
    def test_values_at_origin(self, d):
        pdf, logpdf, cdf, survival = d.pdf(0.0), d.logpdf(0.0), d.cdf(0.0), d.survival(0.0)
        assert pdf >= 0.0 and pdf == math.exp(logpdf)
        if d.support_real_line:
            assert 0.0 < cdf < 1.0 and cdf + survival == 1.0
        else:
            assert (cdf, survival) == (0.0, 1.0)
        got = [f(np.zeros(2)) for f in (d.pdf, d.logpdf, d.cdf, d.survival)]
        np.testing.assert_array_equal(got, [[v, v] for v in (pdf, logpdf, cdf, survival)])


class TestVarianceDiverges:
    @pytest.mark.parametrize(
        "d",
        [
            Type1(2.0, 1.0, 0.5, 0.7),
            Type2(1.0, 1.0, 0.6),
            Type2(-1.5, 1.0, 0.3),
            Type4(0.8, 1.0, 0.3),
            Type5(1, 1.0, 0.5),
            KappaNormal(1.0, 0.7),
        ],
        ids=repr,
    )
    def test_outside_window(self, d):
        with pytest.raises(MomentDivergesError) as moment:
            d.raw_moment(2)
        with pytest.raises(VarianceDivergesError) as variance:
            d.variance()
        assert variance.value.constraint == moment.value.constraint


class TestSymmetricMomentOrders:
    def test_non_integer_order_is_a_domain_error(self):
        d = KappaNormal(1.0, 0.3)
        for m in (2.5, 1.5, 3.7, math.nan):
            with pytest.raises(DomainError):
                d.raw_moment(m)

    def test_integer_orders(self):
        d = KappaNormal(1.0, 0.3)
        assert d.raw_moment(2.0) == d.raw_moment(2) == d.half.raw_moment(2)
        assert d.raw_moment(3) == 0.0 and d.raw_moment(1.0) == 0.0
        assert d.raw_moment(0) == 1.0

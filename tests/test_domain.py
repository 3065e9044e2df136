"""The whole-domain input contract: x < 0 on a half line, NaN x, and
non-finite parameters."""

import math
import warnings

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
    kappa_exp,
)

HALF_LINE = [
    Type1(2.0, 1.0, 1.0, 0.3),
    Type1(-1.5, 1.0, 1.0, 0.9),
    Type2(2.0, 1.0, 0.9),
    Type2(-1.5, 1.0, 0.3),
    Type3(1.5, 1.0, 2.0, 0.3),
    Type4(1.0, 1.0, 0.3),
    Type5(3, 1.0, 0.3),
    KappaErlang(2, 1.0, 0.3),
]

# value of each method left of the support
BELOW = {"pdf": 0.0, "logpdf": -math.inf, "cdf": 0.0, "survival": 1.0, "hazard": 0.0}


@pytest.mark.parametrize("d", HALF_LINE, ids=repr)
def test_negative_x_is_outside_the_support(d):
    xs = np.array([-math.inf, -1e300, -2.0, -1e-300, -0.0, 0.5, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, below in BELOW.items():
            f = getattr(d, name)
            for x in (-1.0, -1e-300, -math.inf, np.float64(-2.0), -3, np.array(-4.0)):
                out = f(x)
                assert out == below and isinstance(out, float)
            arr = f(xs)
            assert np.all(arr[:4] == below)
            assert np.array_equal(arr[4:], f(np.abs(xs[4:])))
            assert f(np.full((2, 3), -1.0)).shape == (2, 3)


def test_hazard_rate_and_cum_hazard_vanish_left_of_the_support():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (Type2(1.5, 1.0, 0.3), Type3(0.7, 1.0, 2.0, 0.3)):
            assert d.hazard_rate(-1.0) == 0.0
            assert d.cum_hazard(-1.0) == 0.0
            assert np.array_equal(d.cum_hazard(np.array([-1.0, 0.0])), [0.0, 0.0])


@pytest.mark.parametrize(
    "d", HALF_LINE + [KappaNormal(1.0, 0.3), KappaLogistic(1.0, 0.3)], ids=repr
)
def test_nan_x_gives_nan(d):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in BELOW:
            f = getattr(d, name)
            assert math.isnan(f(math.nan))
            out = f(np.array([math.nan, -1.0, 1.0]))
            assert math.isnan(out[0]) and not math.isnan(out[2])


@pytest.mark.parametrize(
    "make",
    [
        lambda v: Type1(v, 1.0, 1.0, 0.3),
        lambda v: Type1(1.0, v, 1.0, 0.3),
        lambda v: Type1(1.0, 1.0, v, 0.3),
        lambda v: Type1(1.0, 1.0, v, 0.0),
        lambda v: Type2(1.0, v, 0.3),
        lambda v: Type3(1.0, 1.0, v, 0.3),
        lambda v: Type3(1.0, v, 2.0, 0.3),
        lambda v: Type4(v, 1.0, 0.3),
        lambda v: Type4(1.0, v, 0.3),
        lambda v: Type5(3, v, 0.3),
        lambda v: KappaErlang(2, v, 0.3),
        lambda v: KappaNormal(v, 0.3),
        lambda v: KappaLogistic(v, 0.3),
        lambda v: KappaLogistic(1.0, 0.3, loc=v),
        lambda v: Type2(1.0, 1.0, v),
    ],
)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_parameters_are_rejected(make, value):
    with pytest.raises(DomainError):
        make(value)


def test_kappa_exp_overflows_to_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kappa_exp(800.0, 1e-3) == math.inf
        assert np.array_equal(kappa_exp(np.array([800.0, 0.0]), 1e-3), [math.inf, 1.0])


@pytest.mark.parametrize("d", [Type2(-0.3, 1.3, 0.9), Type3(-0.3, 1.3, 2.0, 0.9)], ids=repr)
def test_negative_order_moment_diverging_at_the_origin_is_rejected(d):
    # pdf ~ x^(|alpha|/kappa - 1) at 0, so <x^m> needs m > alpha/kappa = -1/3
    with pytest.raises(MomentDivergesError, match="m > alpha/kappa"):
        d.raw_moment(-0.5)
    assert d.raw_moment(-0.2) > 0.0

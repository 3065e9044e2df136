"""Every family below the smallest normal kappa reads its classical values.

There kappa y is subnormal for an ordinary y, 1/2 kappa may overflow and
the deformation is far below rounding, so each value must equal the
kappa = 0 one to rounding; a large y still feels the deformation.
"""

import math

import pytest

from kappadist import (
    KappaErlang,
    KappaLogistic,
    KappaNormal,
    Type1,
    Type2,
    Type3,
    Type5,
    kappa_erf,
    kappa_log,
    log_mellin_kappa,
)
from kappadist.core import log_kappa_exp

KAPPAS = [5e-324, 1e-320, 1e-310, 2.2e-308, 1e-300]

FAMILIES = {
    "Type1": lambda k: Type1(1.5, 1.0, 2.0, k),
    "Type1(-alpha)": lambda k: Type1(-1.5, 1.0, 3.0, k),
    "KappaErlang": lambda k: KappaErlang(2, 1.0, k),
    "KappaNormal": lambda k: KappaNormal(1.0, k),
    "Type2": lambda k: Type2(1.5, 1.0, k),
    "Type2(-alpha)": lambda k: Type2(-3.5, 1.0, k),
    "Type3(lam<1)": lambda k: Type3(1.5, 1.0, 0.5, k),
    "Type3(lam>1)": lambda k: Type3(1.5, 1.0, 1.7, k),
    "Type5": lambda k: Type5(2, 1.0, k),
    "KappaLogistic": lambda k: KappaLogistic(1.0, k),
}

POINTS = [0.3, math.log(2.0), 1.0, 3.0]


def close(got, want, rel=1e-14):
    return got == want or abs(got - want) <= rel * abs(want)


@pytest.mark.parametrize("k", KAPPAS)
@pytest.mark.parametrize("name", FAMILIES)
def test_evaluation_is_classical(name, k):
    d, ref = FAMILIES[name](k), FAMILIES[name](0.0)
    for x in POINTS:
        for w in ("pdf", "cdf", "survival"):
            assert close(getattr(d, w)(x), getattr(ref, w)(x)), (w, x)
        # the log density has absolute precision where it is near 0
        assert abs(d.logpdf(x) - ref.logpdf(x)) <= 1e-14 * max(1.0, abs(ref.logpdf(x))), x
    for p in (0.1, 0.5, 0.9):
        assert close(d.quantile(p), ref.quantile(p)), p


@pytest.mark.parametrize("k", KAPPAS)
@pytest.mark.parametrize("name", [n for n in FAMILIES if n != "KappaLogistic"])
def test_moments_are_classical(name, k):
    d, ref = FAMILIES[name](k), FAMILIES[name](0.0)
    for m in (1, 2, 3):
        assert close(d.raw_moment(m), ref.raw_moment(m)), m


@pytest.mark.parametrize("k", KAPPAS)
@pytest.mark.parametrize("name", FAMILIES)
def test_mode_is_classical(name, k):
    got, want = FAMILIES[name](k).mode(), FAMILIES[name](0.0).mode()
    assert got.kind == want.kind
    assert close(got.x, want.x)


@pytest.mark.parametrize("k", KAPPAS)
def test_kernels_are_classical(k):
    for r in (0.5, 1.5, 3.0):
        assert close(log_mellin_kappa(r, k), math.lgamma(r)), r
    for x in (0.1, 1.0, 2.5):
        assert close(kappa_erf(x, k), math.erf(x)), x
    assert close(kappa_log(math.exp(3.0), k), 3.0)
    assert close(Type2(1.0, 1.0, k).lorenz(0.9), Type2(1.0, 1.0, 0.0).lorenz(0.9))


@pytest.mark.parametrize(
    "got, want",
    [
        (lambda: Type2(1.0, 1.0, 1e-320).cdf(math.log(2.0)), 0.5),
        (lambda: Type5(1, 1.0, 1e-320).cdf(math.log(2.0)), 0.5),
        (lambda: Type5(1, 1.0, 1e-320).quantile(0.5), math.log(2.0)),
        (lambda: log_mellin_kappa(1.5, 1e-320), math.lgamma(1.5)),
        (lambda: Type2(1.5, 1.0, 1e-320).raw_moment(1), math.gamma(1.0 + 1.0 / 1.5)),
    ],
)
def test_reported_values(got, want):
    assert close(got(), want)


def test_a_large_argument_still_feels_the_deformation():
    # kappa y is normal, so the deformation is O(1) and kept: no snap to kappa = 0
    for k, y in ((2e-308, 1e308), (1e-310, 1e308)):
        assert log_kappa_exp(-y, k) == pytest.approx(-math.asinh(k * y) / k, rel=1e-15)
        assert log_kappa_exp(-y, k) != -y

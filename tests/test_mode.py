"""One mode rule for every half-line family.

Distribution.mode reads the density's power at the origin: a negative
power is a pole; otherwise the family's closed argmax, or a search in
log x, gives the peak, and a peak no higher than pdf(0) means the
density falls from the origin.
"""

import inspect
import math

import mpmath
import numpy as np
import pytest

import kappadist
from kappadist import Distribution, KappaErlang, Type1, Type2, Type3, Type4, Type5

ALPHAS = (0.2, 0.5, 1.0, 2.5, -0.2, -0.5, -1.0, -2.5)
KAPPAS = (0.0, 0.3, 0.5, 0.9)


def _grid_objects():
    out = []
    for k in KAPPAS:
        for a in ALPHAS:
            out += [Type1(a, 1.0, nu, k) for nu in (0.5, 1.0, 2.0) if nu * k < 1.0]
            out.append(Type2(a, 1.0, k))
            out += [Type3(a, 1.0, lam, k) for lam in (0.5, 1.0, 2.0, 2.5, 3.0)]
            if a > 0.0 and k > 0.0:
                out.append(Type4(a, 1.0, k))
        out += [KappaErlang(n, 1.0, k) for n in (1, 2) if n * k < 1.0]
        out += [Type5(n, 1.0, k) for n in (1, 2, 3)]
    return out


GRID_OBJECTS = _grid_objects()


def test_grid_covers_every_family():
    # Type1 80, KappaErlang 6, Type2 32, Type3 160, Type4 12, Type5 12
    assert len(GRID_OBJECTS) == 302


@pytest.mark.parametrize("d", GRID_OBJECTS, ids=repr)
def test_mode_against_a_log_grid(d):
    res = d.mode()
    p0 = d.pdf(0.0)
    assert (res.kind == "pole") == (p0 == math.inf)
    if res.kind == "pole":
        assert res.pdf_at_origin == math.inf
        return
    g = np.geomspace(d.quantile(1e-12), d.quantile(1.0 - 1e-9), 10**4)
    pdf = d.pdf(g)
    if res.kind == "monotone":
        assert res.pdf_at_origin == p0 and math.isfinite(p0)
        assert np.all(pdf[1:] <= pdf[:-1] * (1.0 + 1e-12))
        assert pdf[0] <= p0 * (1.0 + 1e-12)
    else:
        assert res.kind == "interior"
        top = d.pdf(res.x)
        assert top > p0 * (1.0 + 1e-12)  # a rise above rounding
        assert top >= (1.0 - 1e-12) * pdf.max()
        assert top >= d.pdf(res.x * (1.0 - 1e-6)) and top >= d.pdf(res.x * (1.0 + 1e-6))


def _mp_type3_mode(a, b, lam, k, x0):
    """30-digit stationary point of the Type3 log density near x0.

    pdf = lam |y'| E / (sqrt(1 + (k y)^2) (1 + (lam - 1) E)^2) with
    y = b x^a and E = exp(-asinh(k y)/k), exp(-y) at k = 0.
    """
    with mpmath.workdps(30):
        a, b, lam, k = (mpmath.mpf(v) for v in (a, b, lam, k))

        def logpdf(x):
            y = b * x**a
            log_e = -y if k == 0 else -mpmath.asinh(k * y) / k
            return (
                mpmath.log(lam * abs(a) * b) + (a - 1) * mpmath.log(x) + log_e
                - mpmath.log(mpmath.sqrt(1 + (k * y) ** 2))
                - 2 * mpmath.log(1 + (lam - 1) * mpmath.exp(log_e))
            )

        return float(mpmath.findroot(lambda x: mpmath.diff(logpdf, x), x0))


class TestKnownShapes:
    """Densities whose shape at the origin follows from its power there."""

    @pytest.mark.parametrize(
        "d", [Type2(-0.2, 1.0, 0.5), Type3(-0.2, 1.0, 2.0, 0.5), Type4(0.2, 1.0, 0.5)], ids=repr
    )
    def test_negative_origin_power_is_a_pole(self, d):
        res = d.mode()
        assert res.kind == "pole" and res.pdf_at_origin == math.inf
        assert d.pdf(1e-30) > 1e15

    @pytest.mark.parametrize(
        "d, p0",
        [(Type2(-0.5, 1.0, 0.5), 1.0), (Type4(0.5, 1.0, 0.5), 1.0), (Type3(1.0, 1.0, 0.5, 0.3), 2.0)],
        ids=repr,
    )
    def test_falling_from_a_finite_origin_is_monotone(self, d, p0):
        res = d.mode()
        assert res.kind == "monotone"
        assert res.pdf_at_origin == pytest.approx(p0, rel=1e-14)

    @pytest.mark.parametrize(
        "d, x0",
        [
            (Type3(1.0, 1.0, 2.5, 0.5), 0.27),
            (Type2(-0.5, 1.0, 0.3), 0.076),
            (Type3(-0.5, 1.0, 2.0, 0.3), 0.061),
        ],
        ids=repr,
    )
    def test_interior_peak_against_mpmath(self, d, x0):
        res = d.mode()
        assert res.kind == "interior"
        ref = _mp_type3_mode(d.alpha, d.beta, d.lam, d.kappa, x0)
        assert res.x == pytest.approx(ref, rel=1e-7)

    def test_logistic_mode_at_zero_kappa_is_log_two(self):
        assert Type3(1.0, 1.0, 3.0, 0.0).mode().x == pytest.approx(math.log(2.0), rel=1e-7)

    @pytest.mark.parametrize("d", [Type2(-0.02, 1.0, 0.0), Type4(0.02, 1.0, 0.01)], ids=repr)
    def test_search_past_the_largest_float(self, d):
        # quantile(1 - 1e-9) is inf; the density vanishes at the origin
        assert d.quantile(1.0 - 1e-9) == math.inf and d.pdf(0.0) == 0.0
        res = d.mode()
        assert res.kind == "interior" and 0.0 < res.x < math.inf

    def test_peak_below_the_search_window_closed(self):
        # pdf = 0.02 x^-1.02 exp(-x^-0.02) peaks at 51^-50, where the cdf is
        # e^-51 ~ 7e-23, far below the window's lower end quantile(1e-12)
        d = Type2(-0.02, 1.0, 0.0)
        assert d.quantile(1e-12) > 1e-80
        res = d.mode()
        assert res.kind == "interior"
        # log pdf is flat to rounding within ~1e-6 of the peak in log x
        assert res.x == pytest.approx(51.0**-50, rel=1e-5, abs=0.0)

    def test_peak_below_the_search_window_mpmath(self):
        a, b, k = 0.02, 1.0, 0.01
        d = Type4(a, b, k)
        res = d.mode()
        assert res.kind == "interior" and res.x < 1e-3 * d.quantile(1e-12)
        with mpmath.workdps(30):
            a_, b_, k_ = (mpmath.mpf(v) for v in (a, b, k))

            def logpdf(t):  # log pdf at x = e^t: cdf (2kb)^(1/k) x^(a/k) E
                u = k_ * b_ * mpmath.exp(a_ * t)
                log_cdf = mpmath.log(2 * k_ * b_) / k_ + a_ / k_ * t - mpmath.asinh(u) / k_
                return log_cdf + mpmath.log(a_ / k_ * (1 - u / mpmath.sqrt(1 + u * u))) - t

            t_ref = mpmath.findroot(lambda t: mpmath.diff(logpdf, t), math.log(res.x))
        assert math.log(res.x) == pytest.approx(float(t_ref), rel=1e-8)

    @pytest.mark.parametrize(
        "d",
        [Type3(1.0, 1.0, 2.0, k) for k in KAPPAS] + [Type5(3, 1.0, 0.5)],
        ids=repr,
    )
    def test_flat_origin_is_monotone(self, d):
        # pdf'(0) = 0 and the density falls: the search's peak next to the
        # origin differs from pdf(0) only by rounding
        assert d.mode().kind == "monotone"


def _mp_type2_mode(a, b, k, x0):
    """40-digit root in log x of the Type2 log-density slope
    alpha - 1 - alpha (k^2 v^2 + v), v = y/sqrt(1 + (k y)^2), y = b x^alpha."""
    with mpmath.workdps(40):
        a, b, k = (mpmath.mpf(v) for v in (a, b, k))

        def slope(t):
            y = b * mpmath.exp(a * t)
            v = y / mpmath.sqrt(1 + (k * y) ** 2)
            return a - 1 - a * (k * k * v * v + v)

        return float(mpmath.exp(mpmath.findroot(slope, math.log(x0))))


@pytest.mark.parametrize("k", KAPPAS)
@pytest.mark.parametrize("a", [1.2, 2.5, 7.0, -0.02, -0.5, -1.0, -2.5])
def test_type2_closed_mode_against_mpmath(a, k):
    # one quadratic in v for both signs of alpha; |alpha| <= kappa is a
    # pole or, at |alpha| = kappa, monotone
    d = Type2(a, 1.3, k)
    res = d.mode()
    if a < 0.0 and not -a > k:
        assert res.kind == ("monotone" if -a == k else "pole")
        return
    assert res.kind == "interior"
    assert res.x == pytest.approx(_mp_type2_mode(a, 1.3, k, res.x), rel=1e-13)


def test_one_mode_rule():
    classes = [c for _, c in inspect.getmembers(kappadist, inspect.isclass) if issubclass(c, Distribution)]
    with_mode = {c.__name__ for c in classes if "mode" in vars(c)}
    assert with_mode == {"Distribution", "SymmetrizedDistribution", "KappaLogistic"}
    with_argmax = {c.__name__ for c in classes if "_argmax" in vars(c)}
    assert with_argmax == {"Distribution", "Type1", "Type2", "Type5"}

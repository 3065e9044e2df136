"""One mode rule for every half-line family.

Distribution.mode reads the density's power at the origin: a negative
power is a pole; otherwise the family's _argmax gives the peak, 0 where
the density falls from the origin.  Every power-transformed family finds
it as the root of d log pdf/d log x, and Type V as the root of a
polynomial, so each interior mode is exact to rounding.
"""

import inspect
import math

import mpmath
import numpy as np
import pytest

import kappadist
from conftest import TYPE5_HIGH_ORDERS, mp_type5_ladder
from kappadist import Distribution, KappaErlang, Type1, Type2, Type3, Type4, Type5, oracle
from kappadist.framework import PowerTransformed

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
    return out + [Type5(n, 1.0, k) for n, k in TYPE5_HIGH_ORDERS]


GRID_OBJECTS = _grid_objects()


def test_grid_covers_every_family():
    # Type1 80, KappaErlang 6, Type2 32, Type3 160, Type4 12, Type5 12 + 20
    assert len(GRID_OBJECTS) == 322


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


def _mp_log_pdf(d):
    """log pdf(e^t) up to a constant, as a function of t at mpmath precision,
    from each family's printed density: |alpha| y pdf_Y(y)/x with y = beta
    x^alpha for the power-transformed families, and beta S_(n+1)(beta x)
    for Type V, with the ladder polynomial P_(n+1)."""
    mp = mpmath
    if isinstance(d, Type5):
        b, k = mp.mpf(d.beta), mp.mpf(d.kappa)
        p = mp_type5_ladder(d.n + 1, d.kappa)[d.n][::-1]

        def log_pdf(t):
            u = k * b * mp.exp(t)
            log_e = -b * mp.exp(t) if k == 0 else -mp.asinh(u) / k
            tau = u / mp.sqrt(1 + u * u)
            return log_e - mp.mpf(d.n) / 2 * mp.log(1 + u * u) + mp.log(mp.polyval(p, tau))

        return log_pdf
    a, b, k = (mp.mpf(v) for v in (d.alpha, d.beta, d.kappa))

    def log_y_pdf(y):
        u = k * y
        log_e = -y if k == 0 else -mp.asinh(u) / k
        if isinstance(d, Type1):
            return mp.mpf(d.nu) * mp.log(y) + log_e
        if isinstance(d, Type3):
            lam = mp.mpf(d.lam)
            return mp.log(y) + log_e - mp.log(1 + u * u) / 2 - 2 * mp.log(1 + (lam - 1) * mp.exp(log_e))
        return (mp.log(2 * u) - mp.asinh(u)) / k + mp.log(1 - u / mp.sqrt(1 + u * u))  # Type4

    return lambda t: log_y_pdf(b * mp.exp(a * t)) - t


@pytest.mark.parametrize("d", GRID_OBJECTS, ids=repr)
def test_interior_mode_is_the_root_of_the_log_slope(d):
    res = d.mode()
    if res.kind != "interior":
        return
    with mpmath.workdps(40):
        log_pdf = _mp_log_pdf(d)
        t = mpmath.findroot(lambda t: mpmath.diff(log_pdf, t), math.log(res.x))
        ref = float(mpmath.exp(t))
    assert res.x == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_mode_needs_no_search_and_no_quantile(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("mode must not search or invert")

    monkeypatch.setattr(oracle, "argmax", forbidden)
    monkeypatch.setattr(PowerTransformed, "_y_solve", forbidden)
    kinds = {d.mode().kind for d in GRID_OBJECTS}
    assert kinds == {"pole", "monotone", "interior"}


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
        assert res.x == pytest.approx(ref, rel=1e-13)

    def test_logistic_mode_at_zero_kappa_is_log_two(self):
        assert Type3(1.0, 1.0, 3.0, 0.0).mode().x == pytest.approx(math.log(2.0), rel=1e-13)

    @pytest.mark.parametrize("d", [Type2(-0.02, 1.0, 0.0), Type4(0.02, 1.0, 0.01)], ids=repr)
    def test_peak_of_a_law_whose_upper_quantiles_are_inf(self, d):
        # quantile(1 - 1e-9) is inf; the density vanishes at the origin
        assert d.quantile(1.0 - 1e-9) == math.inf and d.pdf(0.0) == 0.0
        res = d.mode()
        assert res.kind == "interior" and 0.0 < res.x < math.inf

    def test_peak_far_below_the_lower_quantiles_closed(self):
        # pdf = 0.02 x^-1.02 exp(-x^-0.02) peaks at 51^-50, where the cdf is
        # e^-51 ~ 7e-23, far below quantile(1e-12)
        d = Type2(-0.02, 1.0, 0.0)
        assert d.quantile(1e-12) > 1e-80
        res = d.mode()
        assert res.kind == "interior"
        assert res.x == pytest.approx(51.0**-50, rel=1e-13, abs=0.0)

    def test_peak_far_below_the_lower_quantiles_mpmath(self):
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
        assert math.log(res.x) == pytest.approx(float(t_ref), rel=1e-13)

    @pytest.mark.parametrize(
        "d",
        [Type3(1.0, 1.0, 2.0, k) for k in KAPPAS] + [Type5(3, 1.0, 0.5)],
        ids=repr,
    )
    def test_flat_origin_is_monotone(self, d):
        # pdf'(0) = 0 and the density falls: the slope of log pdf tends to 0
        # from below at the origin, where rounding alone could lift it above 0
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
def test_type2_mode_against_mpmath(a, k):
    # one root of the slope for both signs of alpha; |alpha| <= kappa is a
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
    # PowerTransformed, the other owner of _argmax, is not exported
    with_argmax = {c.__name__ for c in classes if "_argmax" in vars(c)}
    assert with_argmax == {"Type5"}
    assert "_argmax" in vars(kappadist.framework.PowerTransformed)
    with_slope = {c.__name__ for c in classes if "_y_slope" in vars(c)}
    assert with_slope == {"Type1", "Type3", "Type4"}

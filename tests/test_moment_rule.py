"""One moment rule for every half-line family.

Distribution.check_moment_order reads the density's powers at both
ends: with pdf ~ x^e at the origin and pdf ~ x^-a in the tail, <X^m>
exists if and only if -1 - e < m < a - 1.  Each family only names the
paper's condition for the end that m crosses (moment_constraint).
"""

import inspect
import math

import pytest

import kappadist
from conftest import TYPE5_HIGH_ORDERS
from kappadist import (
    Distribution,
    DomainError,
    KappaErlang,
    KappaNormal,
    MomentDivergesError,
    NoConvergenceError,
    Type1,
    Type2,
    Type3,
    Type4,
    Type5,
)


def test_one_moment_rule():
    classes = [c for _, c in inspect.getmembers(kappadist, inspect.isclass) if issubclass(c, Distribution)]
    with_check = {c.__name__ for c in classes if "check_moment_order" in vars(c)}
    assert with_check == {"Distribution", "SymmetrizedDistribution", "KappaLogistic"}
    for c in classes:
        if not c.support_real_line and c is not Distribution:
            assert callable(getattr(c, "moment_constraint", None)), c.__name__


class TestNegativeOrders:
    """Negative orders exist wherever the density's origin power allows."""

    def test_type5_first_order_is_type2(self):
        # Type V at n = 1 is the Type II law at alpha = 1
        d = Type5(1, 1.0, 0.3)
        assert d.raw_moment(-0.5) == pytest.approx(Type2(1.0, 1.0, 0.3).raw_moment(-0.5), rel=1e-14)

    @pytest.mark.parametrize(
        "d",
        [Type5(n, 1.3, k) for n in (1, 2, 3) for k in (0.0, 0.3, 0.6)]
        + [Type5(n, 1.3, k) for n, k in TYPE5_HIGH_ORDERS]
        + [Type4(a, 1.3, k) for a in (0.7, 1.0, 2.5) for k in (0.3, 0.5, 0.9) if a / k > 1.0],
        ids=repr,
    )
    @pytest.mark.parametrize("m", [-0.5, -0.9])
    def test_closed_against_quadrature(self, d, m):
        assert d.raw_moment(m) == pytest.approx(d._moment_by_quadrature(m), rel=1e-12)


@pytest.mark.parametrize(
    "d, inside, m, text",
    [
        (Type1(1.5, 1.0, 2.0, 0.2), -2.9, -3.5, "0 < nu + m/alpha < 1/kappa"),
        (Type1(1.5, 1.0, 2.0, 0.2), 4.4, 5.0, "0 < nu + m/alpha < 1/kappa"),
        (KappaErlang(2, 1.0, 0.3), -1.9, -2.5, "0 < nu + m/alpha < 1/kappa"),
        (Type2(1.5, 1.0, 0.3), -1.4, -2.0, "m > -alpha"),
        (Type2(1.5, 1.0, 0.3), 4.9, 6.0, "m < alpha/kappa"),
        (Type2(-1.5, 1.0, 0.3), -4.9, -6.0, "m > alpha/kappa"),
        (Type2(-1.5, 1.0, 0.3), 1.4, 2.0, "m < |alpha|"),
        (Type3(1.5, 1.0, 0.5, 0.3), -1.4, -2.0, "m > -alpha"),
        (Type3(-1.5, 1.0, 2.0, 0.3), 1.4, 2.0, "m < |alpha|"),
        (Type4(1.0, 1.0, 0.5), -1.9, -2.5, "m > -alpha/kappa"),
        (Type4(1.0, 1.0, 0.5), 1.9, 2.5, "m < 2*alpha"),
        (Type5(2, 1.0, 0.5), -0.9, -1.5, "m > -1"),
        (Type5(2, 1.0, 0.5), 2.9, 3.5, "m < n - 1 + 1/kappa"),
    ],
    ids=repr,
)
def test_the_crossed_end_is_named(d, inside, m, text):
    assert math.isfinite(d.raw_moment(inside)) and d.raw_moment(inside) > 0.0
    with pytest.raises(MomentDivergesError) as exc:
        d.raw_moment(m)
    assert exc.value.constraint == text


# Orders exactly on an end of the window, each a literal that the paper's
# condition rejects: the rule must reject it although the bound it reads
# comes from rounded end powers.
EXACT_ENDS = [
    (Type2(1.0, 1.0, 0.25), 4.0),
    (Type2(0.7, 1.0, 0.1), 7.0),
    (Type2(0.3, 1.0, 0.05), -0.3),
    (Type2(0.3, 1.0, 0.3), 1.0),  # the mean behind gini()
    (Type2(-0.3, 1.0, 0.05), 0.3),
    (Type2(-0.7, 1.0, 0.1), -7.0),
    (Type3(0.3, 1.0, 2.0, 0.05), -0.3),
    (Type3(2.5, 1.0, 0.5, 0.25), 10.0),
    (Type1(1.5, 1.0, 2.0, 0.2), -3.0),
    (Type1(0.3, 1.0, 1.0, 0.05), -0.3),
    (Type1(-0.3, 1.0, 2.0, 0.05), 0.6),
    (Type1(1.5, 1.0, 2.0, 0.3), 2.0),
    (Type4(0.7, 1.0, 0.3), 1.4),
    (Type4(0.3, 1.0, 0.05), 0.6),
    (Type4(1.0, 1.0, 0.5), -2.0),
    (Type5(3, 1.0, 0.5), 4.0),
    (Type5(1, 1.0, 0.2), 5.0),
    (Type5(2, 1.0, 0.3), -1.0),
]


@pytest.mark.parametrize("d, m", EXACT_ENDS, ids=repr)
def test_exact_ends_are_rejected(d, m):
    with pytest.raises(MomentDivergesError):
        d.raw_moment(m)


@pytest.mark.parametrize("d, m", EXACT_ENDS, ids=repr)
def test_orders_next_to_an_end_stay_in_the_taxonomy(d, m):
    # a few ulps on either side: a finite positive moment or a rejection,
    # never an error from a Gamma pole or a log of zero
    for direction in (-math.inf, math.inf):
        x = m
        for _ in range(64):
            x = math.nextafter(x, direction)
            try:
                value = d.raw_moment(x)
            except MomentDivergesError:
                continue
            assert math.isfinite(value) and value > 0.0, (x, value)


@pytest.mark.parametrize(
    "d",
    [Type1(1.5, 1.0, 2.0, 0.2), KappaErlang(2, 1.0, 0.3), Type2(1.5, 1.0, 0.3), Type2(-1.5, 1.0, 0.3),
     Type3(1.5, 1.0, 0.5, 0.3), Type4(1.0, 1.0, 0.5), Type5(2, 1.0, 0.5), Type2(1.5, 1.0, 0.0),
     KappaNormal(1.0, 0.3)],
    ids=repr,
)
def test_nan_order_is_a_domain_error_not_a_divergence(d):
    with pytest.raises(DomainError) as exc:
        d.raw_moment(math.nan)
    assert not isinstance(exc.value, MomentDivergesError)
    with pytest.raises(DomainError) as exc:
        d.check_moment_order(math.nan)
    assert not isinstance(exc.value, MomentDivergesError)


def test_gini_needs_the_mean_up_to_its_end():
    with pytest.raises(MomentDivergesError, match="m < alpha/kappa"):
        Type2(0.3, 1.0, 0.3).gini()


def test_odd_symmetric_orders_vanish_past_the_half_window():
    d = KappaNormal(1.0, 0.7)  # the half has <x^m> only for m < 2/0.7 - 1
    assert d.raw_moment(3) == 0.0


@pytest.mark.parametrize("d, m", [(Type5(1, 1e-300, 0.3), 2), (Type2(1e-8, 1.0, 0.0), 1)], ids=repr)
def test_a_moment_past_the_largest_float_reads_inf(d, m):
    d.check_moment_order(m)  # inside the window
    assert d.raw_moment(m) == math.inf


@pytest.mark.parametrize(
    "d",
    [Type1(1e8, 1.0, 1.0, 0.3), Type2(1e8, 1.0, 0.3), Type2(1e8, 1.0, 0.0), Type2(-1e8, 1.0, 0.3),
     Type3(1e8, 1.0, 0.5, 0.3), Type3(-1e8, 1.0, 2.0, 0.3), Type5(2, 1e300, 0.3), Type5(3, 1e300, 0.0),
     Type5(3, 1e-300, 0.3)],
    ids=repr,
)
def test_a_variance_lost_to_rounding_is_a_numerical_failure(d):
    # m2 and m1^2 agree to rounding (alpha = 1e8), underflow (beta = 1e300)
    # or are both inf (beta = 1e-300): m2 - m1^2 is not a positive number
    for call in (d.variance, d.descriptive_stats):
        with pytest.raises(NoConvergenceError, match="cancellation"):
            call()

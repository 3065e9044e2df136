"""The Type I share at non-integral nu (and past order 64) takes each side
of the Beta mean from its own tail series of the incomplete Beta function,
L times a sum of positive terms (DLMF 8.17.8), out to the last point where
the dropped terms stay below 2^-54 of the sum, and betainc only between
the two series.

Here a 0-d y gives the bits of the array path, a long array the bits of
its blocks, the shares keep their order across each crossover and across
the mean, only the bulk reaches betainc, and the near series keeps the
digits of a lower share close to the smallest normal float.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special

from kappadist import KappaErlang, KappaNormal, Type1, core, framework
from kappadist.core import _beta_series, _gamma_share


def _next_to_pole(nu):
    return min(0.999, (1.0 - 1e-6) / nu)


CASES = sorted(
    {(nu, k) for nu in (0.5, 1.5, 3.3, 70.0) for k in (1e-3, 0.3, 0.9, _next_to_pole(nu)) if nu * k < 1.0}
)
IDS = [f"nu={nu}-k={k:.6g}" for nu, k in CASES]


def _crossovers(nu, k):
    """y_near, y_mean and y_far, where the near series ends, the side changes
    and the far series starts; those at 0 or inf are left out."""
    *_, y_near, y_mean, y_far = _beta_series(nu, k)
    return [b for b in (y_near, y_mean, y_far) if 0.0 < b < math.inf]


def _around(b, step):
    return [b * (1.0 + j * step) for j in range(-3, 4)]


def _points(nu, k):
    ys = [0.0, math.inf, *np.geomspace(1e-8, 1e8, 17) / k]
    for b in _crossovers(nu, k):
        ys += [*_around(b, 2.0**-30), np.nextafter(b, 0.0), b, np.nextafter(b, math.inf)]
    return np.array(ys)


@pytest.mark.parametrize("upper", [False, True])
@pytest.mark.parametrize("nu, k", CASES, ids=IDS)
def test_scalar_share_is_the_array_share(nu, k, upper):
    ys = _points(nu, k)
    whole = _gamma_share(ys, nu, k, upper)
    each = np.array([_gamma_share(np.asarray(y), nu, k, upper) for y in ys])
    assert whole.tobytes() == each.tobytes(), ys[whole != each]


@pytest.mark.parametrize("upper", [False, True])
@pytest.mark.parametrize("nu, k", CASES, ids=IDS)
def test_long_call_is_its_blocks(nu, k, upper):
    block = framework._BLOCK
    ys = np.concatenate([_points(nu, k), np.geomspace(1e-8, 1e8, 100_000) / k])
    np.random.default_rng(3).shuffle(ys)
    whole = _gamma_share(ys, nu, k, upper)
    blocks = np.concatenate([_gamma_share(ys[i : i + block], nu, k, upper) for i in range(0, ys.size, block)])
    assert whole.tobytes() == blocks.tobytes()


@pytest.mark.parametrize("nu, k", CASES, ids=IDS)
def test_shares_keep_their_order_across_each_crossover(nu, k):
    for b in _crossovers(nu, k):
        ys = np.array(_around(b, 2.0**-30))
        assert np.all(np.diff(_gamma_share(ys, nu, k, False)) >= 0.0), (b, ys)
        assert np.all(np.diff(_gamma_share(ys, nu, k, True)) <= 0.0), (b, ys)


class _CountingSpecial:
    """scipy.special, with the points handed to betainc counted."""

    def __init__(self):
        self.points = 0

    def __getattr__(self, name):
        return getattr(scipy.special, name)

    def betainc(self, a, b, x):
        self.points += np.size(x)
        return scipy.special.betainc(a, b, x)


@pytest.mark.parametrize("k", [0.3, 0.9])
@pytest.mark.parametrize("law", ["Type1(2.5,1,0.5,k)", "KappaNormal(1,k)"])
def test_betainc_takes_only_the_bulk(monkeypatch, law, k):
    special = _CountingSpecial()
    monkeypatch.setattr(core, "_special", lambda: special)
    d = Type1(2.5, 1.0, 0.5, k) if law.startswith("Type1") else KappaNormal(1.0, k)
    x = np.geomspace(1e-3, 1e3, 100_000)
    for share in (d.cdf, d.survival):
        before = special.points
        share(x)
        assert 0 < special.points - before <= 0.2 * x.size


def test_lower_share_near_the_smallest_normal():
    # past order 8 the lower Type I share at integral nu is _beta_share's;
    # betainc of z = 1 - s kept 6 digits of it here
    n, k, y = 64, 0.01, 5.6e-4
    with mpmath.workdps(60):
        n_, k_, y_ = mpmath.mpf(n), mpmath.mpf(k), mpmath.mpf(y)
        u = k_ * y_
        z = 2 * u / (u + mpmath.sqrt(1 + u * u))
        a = 1 / (2 * k_) - n_ / 2
        w1, w2 = (a + n_) / (2 * a + n_), a / (2 * a + n_)
        ref = sum(w * mpmath.betainc(n_, b, 0, z, regularized=True) for w, b in ((w1, a), (w2, a + 1)))
    got = KappaErlang(n, 1.0, k).cdf(y)
    assert 1e-300 < got < 1e-299
    assert abs(got - ref) <= 1e-12 * ref


def test_integer_points_are_taken_as_floats():
    ys = np.array([0, 1, 2, 300, 10**6])
    for upper in (False, True):
        want = _gamma_share(ys.astype(np.float64), 0.5, 0.3, upper)
        assert _gamma_share(ys, 0.5, 0.3, upper).tobytes() == want.tobytes()

"""fit_mle's own Nelder-Mead simplex and its bisection start take the same
steps as scipy.optimize, to the bit, without loading it."""

import math

import numpy as np
import pytest
from scipy import optimize
from scipy.special import expit

from kappadist import DomainError, Type1, Type2, Type3, Type4, Type5, fitting

OPTIONS = {"xatol": 1e-9, "fatol": 1e-10, "maxiter": 4000}


def _recorded(f):
    """f, and the list of the values it returns."""
    values = []

    def wrapped(x):
        values.append(f(x))
        return values[-1]

    return wrapped, values


def _cv_gap(a, cv):
    return math.exp(math.lgamma(1.0 + 2.0 / a) - 2.0 * math.lgamma(1.0 + 1.0 / a)) - 1.0 - cv * cv


def _same_as_scipy(f, x0, **options):
    options = {**OPTIONS, **options}
    mine = fitting._nelder_mead(f, x0, **options)
    ref = optimize.minimize(f, np.asarray(x0, dtype=float), method="Nelder-Mead", options=options)
    assert np.array_equal(mine.x, ref.x)
    assert mine.fun == ref.fun
    assert mine.nit == ref.nit
    assert mine.success == ref.success
    return mine


def test_smooth_valley():
    res = _same_as_scipy(optimize.rosen, [-1.2, 1.0, 0.5])
    assert res.success and res.fun < 1e-15


def test_shrink_steps():
    # a narrow well in a plateau: the start's neighbours, 5% away, lie on
    # the plateau, so reflection and contraction fail and the simplex
    # shrinks, which costs n evaluations where any other step costs 1 or 2
    def well(x):
        if abs(x[0] - 1.0) + abs(x[1] - 1.0) > 1e-4:
            return 1e300
        return float((x[0] - 1.0) ** 2 + (x[1] - 1.0) ** 2)

    f, values = _recorded(well)
    res = _same_as_scipy(f, [1.0, 1.0])
    n_calls = len(values)
    fitting._nelder_mead(f, [1.0, 1.0], **OPTIONS)
    assert len(values) - n_calls > 3 + 2 * (res.nit - 1)
    assert res.success and res.fun == 0.0


def test_stops_at_maxiter():
    res = _same_as_scipy(optimize.rosen, [-1.2, 1.0, 0.5], maxiter=50)
    assert res.nit == 50 and not res.success


def test_zero_start_and_one_coordinate():
    _same_as_scipy(lambda x: float((x[0] - 2.0) ** 2), [0.0])
    _same_as_scipy(lambda x: float(np.sum((x - [1.0, -3.0, 0.5]) ** 2)), [0.0, 0.0, 0.0])


def test_likelihood_plateau():
    # the negative log likelihood of fit_mle, with kappa taken directly so
    # that the simplex walks off its domain onto the 1e300 plateau
    v = Type2(1.5, 1.0, 0.9).sample(300, 11)

    def nll(theta):
        try:
            ll = float(np.sum(Type2(math.exp(theta[0]), math.exp(theta[1]), theta[2]).logpdf(v)))
        except DomainError:
            return 1e300
        return -ll if math.isfinite(ll) else 1e300

    f, values = _recorded(nll)
    res = _same_as_scipy(f, [0.4, 0.0, 0.97])
    assert 1e300 in values
    assert res.success and res.fun < 1e300


def test_plateau_only():
    res = _same_as_scipy(lambda x: 1e300, [0.5, -1.0])
    assert res.fun == 1e300


def test_fit_mle_as_with_scipy(monkeypatch):
    # every family's fit, with scipy's simplex in place of the port
    laws = {
        "type1": Type1(1.5, 1.0, 1.0, 0.3),
        "type2": Type2(1.5, 1.0, 0.6),
        "type3": Type3(1.5, 1.0, 2.0, 0.3),
        "type4": Type4(1.5, 1.0, 0.3),
        "type5": Type5(1, 1.0, 0.3),
    }
    samples = {family: law.sample(400, 5) for family, law in laws.items()}
    mine = {family: fitting.fit_mle(family, v) for family, v in samples.items()}

    def scipy_simplex(f, x0, xatol, fatol, maxiter):
        opts = {"xatol": xatol, "fatol": fatol, "maxiter": maxiter}
        return optimize.minimize(f, np.asarray(x0), method="Nelder-Mead", options=opts)

    monkeypatch.setattr(fitting, "_nelder_mead", scipy_simplex)
    for family, v in samples.items():
        ref = fitting.fit_mle(family, v)
        assert mine[family].params == ref.params
        assert mine[family].log_likelihood == ref.log_likelihood
        assert mine[family].iterations == ref.iterations
        assert mine[family].stderr == ref.stderr
        assert mine[family].trace == ref.trace


def test_weibull_shape_agrees_with_brentq():
    for cv in np.geomspace(0.025, 40.0, 81):
        a = fitting._weibull_shape(float(cv))
        ref = optimize.brentq(_cv_gap, 0.08, 60.0, args=(float(cv),))
        # past a = 10 the rounding of the lgamma difference, about 1e-16,
        # moves the root of the float equation by up to ~1e-11
        assert abs(a - ref) <= 2e-12 * max(1.0, a), cv
    for cv in (0.01, 1e4):  # no shape in [0.08, 60] fits: brentq has no bracket
        with pytest.raises(ValueError):
            optimize.brentq(_cv_gap, 0.08, 60.0, args=(cv,))
        assert fitting._weibull_shape(cv) == 1.0


def test_logistic_matches_expit():
    t = np.random.default_rng(3).normal(0.0, 8.0, 20000)
    t = np.concatenate([t, [-745.0, -710.0, -709.0, 0.0, 36.0, 40.0, 800.0]])
    for floor in (0.0, 2e-3):
        mine = [fitting._t_to_kappa(float(v), floor) for v in t]
        ref = floor + (fitting._KAPPA_CAP - floor) * expit(t)
        assert np.array_equal(mine, ref)

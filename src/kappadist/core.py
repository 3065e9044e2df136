"""Deformed elementary functions, the master Mellin integral and the two
kernels every family is built from.

Everything in this module is a pure function of its arguments.  The
deformation parameter ``kappa`` lives in [0, 1); kappa = 0 is the exact
classical limit (ordinary exp/log/erf/Gamma) and is always handled by a
dedicated branch so no formula ever divides by kappa = 0.

The Mellin transform M_k(r) of kappa_exp(-x) is Gamma(r) times a ratio
of Gamma functions at arguments of order 1/(2 kappa); that ratio is
taken in a Stirling form whose terms are all of order r, so it keeps its
relative precision for every kappa > 0, however small.
"""

import math

import numpy as np
from scipy.special import betainc, betaln, gammainc, gammaincc
from scipy.special import erf as _erf

from .errors import DomainError

# Below this kappa the Type I shares are the classical regularized Gamma
# shares; their deformed/classical difference is O(kappa^2).
KAPPA_SWITCH = 1e-4

# Past this u = kappa y the share's s = r^2 is below 2^-1000 (and u*u
# overflows soon after): the leading incomplete-Beta term is exact there.
_DEEP_TAIL = 2.0**500

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def check_kappa(kappa):
    """Validate the deformation parameter and return it as a float."""
    k = float(kappa)
    if not math.isfinite(k) or not 0.0 <= k < 1.0:
        raise DomainError(f"kappa must satisfy 0 <= kappa < 1, got {kappa!r}")
    return k


def _maybe_item(a):
    """A 0-d result as a Python float; arrays pass through."""
    return float(a) if not isinstance(a, np.ndarray) or a.ndim == 0 else a


def _log_kexp_neg(y, k):
    """log kappa_exp(-y) = -arcsinh(k y)/k for a checked k, and -y at k = 0.

    With y = beta x^alpha this is the log of the kappa_exp(-beta x^alpha)
    every family is built from; it is exact for any magnitude of y.
    """
    if k == 0.0:
        return -y
    u = k * y
    if not isinstance(u, np.ndarray):  # a scalar, also from a 0-d y
        return -np.arcsinh(u) / k
    # in place: on large arrays each further temporary costs about as
    # much as the arcsinh itself
    np.arcsinh(u, out=u)
    u /= -k
    return u


def _gamma_share(y, nu, k, upper):
    """Share of the law y^(nu-1) kappa_exp(-y)/M_k(nu) above y (upper) or below it.

    With u = k y, r = 1/(u + sqrt(1 + u^2)) and s = r^2 the change of
    variables behind the Mellin closed form gives the upper share
    w1 I_s(a, nu) + w2 I_s(a+1, nu), a = 1/(2k) - nu/2,
    w1 = (a+nu)/(2a+nu), w2 = a/(2a+nu).  Where s <= 1/2 the lower share
    is its complement; where s > 1/2 the lower share is
    w1 I_(1-s)(nu, a) + w2 I_(1-s)(nu, a+1), with 1 - s = 2 u r exact, and
    the upper one its complement, so each side keeps its relative
    precision in its own tail.  Past u = 2^500, where s underflows, the
    leading term s^a/(a B(a, nu)) of I_s(a, nu) is exact and is taken with
    log s = -2 arcsinh(u).  Below KAPPA_SWITCH the classical regularized
    Gamma shares are used.
    """
    if k < KAPPA_SWITCH:
        return gammaincc(nu, y) if upper else gammainc(nu, y)
    u = np.atleast_1d(k * y)
    with np.errstate(over="ignore"):
        r = 1.0 / (np.sqrt(1.0 + u * u) + u)
    s = np.square(r)
    a = 0.5 / k - 0.5 * nu
    w1 = (a + nu) / (2.0 * a + nu)
    w2 = a / (2.0 * a + nu)
    near = s > 0.5
    n_near = np.count_nonzero(near)
    out = np.empty_like(s)
    if n_near < s.size:
        far = ~near
        sf = s[far]
        up = w1 * betainc(a, nu, sf) + w2 * betainc(a + 1.0, nu, sf)
        out[far] = up if upper else 1.0 - up
    if n_near:
        sc = 2.0 * u[near] * r[near]
        low = w1 * betainc(nu, a, sc) + w2 * betainc(nu, a + 1.0, sc)
        out[near] = 1.0 - low if upper else low
    deep = u > _DEEP_TAIL
    if np.count_nonzero(deep):
        # replaces the underflowed far values; the w2 term is O(s) smaller
        log_s = -2.0 * np.arcsinh(u[deep])
        up = w1 * np.exp(a * log_s - math.log(a) - betaln(a, nu))
        out[deep] = up if upper else 1.0 - up
    return np.clip(out, 0.0, 1.0).reshape(np.shape(y))


def kappa_exp(x, kappa):
    """Deformed exponential (sqrt(1 + k^2 x^2) + k x)^(1/k).

    Reduces to exp(x) at kappa = 0, behaves as |2 k x|^(+-1/k) for
    x -> +-inf.  Evaluated as exp(arcsinh(k x)/k), which avoids the
    cancellation in sqrt(1 + k^2 x^2) - k|x| for negative arguments.
    """
    k = check_kappa(kappa)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("kappa_exp requires finite x")
    with np.errstate(over="ignore"):  # inf past the largest float
        return _maybe_item(np.exp(_log_kexp_neg(-x, k)))


def log_kappa_exp(x, kappa):
    """log(kappa_exp(x)) = arcsinh(kappa x)/kappa, stable for any magnitude."""
    k = check_kappa(kappa)
    return _maybe_item(_log_kexp_neg(-np.asarray(x, dtype=float), k))


def kappa_log(t, kappa):
    """Deformed logarithm (t^k - t^-k)/(2k), the inverse of kappa_exp.

    Evaluated as sinh(k log t)/k, which is free of cancellation for
    small k; kappa = 0 returns log(t).
    """
    k = check_kappa(kappa)
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or not np.all(np.isfinite(t)):
        raise DomainError("kappa_log requires t > 0")
    if k == 0.0:
        return _maybe_item(np.log(t))
    return _maybe_item(np.sinh(k * np.log(t)) / k)


def kappa_exp_tail_exponent(kappa, sign):
    """Exponent and prefactor of the Pareto asymptote of kappa_exp.

    kappa_exp(x) ~ prefactor * |x|**exponent for x -> sign * inf, with
    exponent = sign/kappa and prefactor = (2 kappa)**(sign/kappa).
    Returns (exponent, prefactor).
    """
    k = check_kappa(kappa)
    if k == 0.0:
        raise DomainError("no power-law tail in classical limit (kappa = 0)")
    s = int(np.sign(sign)) if not isinstance(sign, str) else {"+": 1, "-": -1}[sign]
    if s not in (-1, 1):
        raise DomainError("sign must be +1 or -1")
    exponent = s / k
    return exponent, (2.0 * k) ** exponent


def _stirling_rest(x):
    """lnGamma(x) - [(x - 1/2) ln x - x + ln sqrt(2 pi)] for x > 0, of order 1/(12 x)."""
    if x < 30.0:
        return math.lgamma(x) - (x - 0.5) * math.log(x) + x - _HALF_LOG_2PI
    y = 1.0 / (x * x)  # the Stirling series; its next term is below 1e-19 here
    return (1.0 / 12 - y * (1.0 / 360 - y * (1.0 / 1260 - y * (1.0 / 1680 - y / 1188)))) / x


def _log_mellin_ratio(r, k):
    """log(M_k(r)/Gamma(r)) = -(r+1) log 2k + lnGamma(1/2k - r/2) - lnGamma(1/2k + 1 + r/2).

    Analytic in r on -2 - 1/k < r < 1/k (through r = 0, -1, -2, where it
    is 0), and 0 at k = 0.  With a = 1/2k - r/2 and b = 1/2k + 1 + r/2
    Stirling's formula turns it into
    (1+r)(1 - log1p(k (2+r))) + (a - 1/2) log1p(-(1+r)/b) + rest(a) - rest(b),
    whose terms are of order r instead of 1/k, so the O(k^2 r^3) result
    keeps its relative precision as k -> 0.  The caller checks the range.
    """
    if k == 0.0:
        return 0.0
    z = 0.5 / k
    a = z - 0.5 * r
    b = z + 1.0 + 0.5 * r
    return (
        (1.0 + r) * (1.0 - math.log1p(k * (2.0 + r)))
        + (a - 0.5) * math.log1p(-(1.0 + r) / b)
        + _stirling_rest(a)
        - _stirling_rest(b)
    )


def log_mellin_kappa(r, kappa):
    """log of the Mellin transform of kappa_exp(-x), order r.

    M_k(r) = (2k)^-r / (1 + k r) * Gamma(1/2k - r/2)/Gamma(1/2k + r/2)
             * Gamma(r),   valid for 0 < r < 1/kappa.
    """
    k = check_kappa(kappa)
    r = float(r)
    if not r > 0.0:
        raise DomainError(f"Mellin order must be positive, got r = {r}")
    if k > 0.0 and r >= 1.0 / k:
        raise DomainError(
            f"Mellin transform diverges: requires r < 1/kappa = {1.0 / k:g}, got r = {r:g}"
        )
    return _log_mellin_ratio(r, k) + math.lgamma(r)


def mellin_kappa(r, kappa):
    """Mellin transform of kappa_exp(-x): integral_0^inf x^(r-1) kappa_exp(-x) dx."""
    return math.exp(log_mellin_kappa(r, kappa))


def kappa_erf_prefactor(kappa):
    """Normalization constant of the deformed error function.

    (1 + kappa/2) sqrt(2 kappa) Gamma(1/2k + 1/4)/Gamma(1/2k - 1/4), which
    is Gamma(1/2)/M_k(1/2); tends to 1 as kappa -> 0.
    """
    return math.exp(-_log_mellin_ratio(0.5, check_kappa(kappa)))


def kappa_erf(x, kappa):
    """Deformed error function: prefactor * (2/sqrt(pi)) * int_0^x kappa_exp(-t^2) dt.

    Odd in x, saturates at +-1, reduces to erf(x) at kappa = 0; accepts
    +-inf and arrays.  With y = t^2 it is sign(x) times the share of the
    law y^(-1/2) kappa_exp(-y) below x^2 (the Type I cdf at alpha = 2,
    nu = 1/2), so it keeps its relative precision everywhere.
    """
    k = check_kappa(kappa)
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise DomainError("kappa_erf requires a non-NaN argument")
    if k == 0.0:
        return _maybe_item(_erf(x))
    with np.errstate(over="ignore"):
        share = _gamma_share(x * x, 0.5, k, upper=False)
    # below |x| = 2^-500, x^2 loses digits while the O(x^3) term is < eps
    slope = 2.0 / math.sqrt(math.pi) * kappa_erf_prefactor(k)
    return _maybe_item(np.where(np.abs(x) < 2.0**-500, slope * x, np.sign(x) * share))

"""Deformed elementary functions, the master Mellin integral, the two
kernels every family is built from and the Type I law's exact sampler.

Everything in this module is a pure function of its arguments, save that
the sampler advances the generator it is given.  The deformation
parameter ``kappa`` lives in [0, 1); kappa = 0 is the exact classical
limit (ordinary exp/log/erf/Gamma) and is always handled by a dedicated
branch so no formula ever divides by kappa = 0.

The Mellin transform M_k(r) of kappa_exp(-x) is Gamma(r) times a ratio
of Gamma functions at arguments of order 1/(2 kappa); that ratio is
taken in a Stirling form whose terms are all of order r, so it keeps its
relative precision for every kappa > 0, however small.
"""

import functools
import math

import numpy as np

from .errors import DomainError

# Below this kappa the Type I shares are the classical regularized Gamma
# shares; their deformed/classical difference is O(kappa^2).
KAPPA_SWITCH = 1e-4

# Past this u = kappa y the share's s = r^2 is below 2^-1000 (and u*u
# overflows soon after): the leading incomplete-Beta term is exact there.
_DEEP_TAIL = 2.0**500

# Integral orders up to this take the Type I upper share as a finite sum, at
# every kappa; past it x^(n-1) at _SUM_CLAMP would overflow.
_SUM_ORDERS = 64
_SUM_CLAMP = 2.0**16  # past x = y r = 2^16, s^a < exp(-2^15) underflows, also times x^63
# Past this order the sum's lower share loses over 10 bits and costs more
# than one betainc, which takes it wherever it is no worse.
_LOWER_ORDERS = 8
_LOWER_TAIL = 2.0**-10  # below it the sum's lower share may lose over 10 bits
# Integral orders up to this draw the Type I law from n exponentials: measured
# on 20000 draws, past it they cost no less than the two Gamma draws of any nu.
_DRAW_ORDERS = 9

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_TINY = float(np.finfo(float).tiny)  # the smallest normal float
_LOG_FLOAT_MAX = math.log(float(np.finfo(float).max))


def check_kappa(kappa):
    """Validate the deformation parameter and return it as a float."""
    k = float(kappa)
    if not math.isfinite(k) or not 0.0 <= k < 1.0:
        raise DomainError(f"kappa must satisfy 0 <= kappa < 1, got {kappa!r}")
    return k


def _maybe_item(a):
    """A 0-d result as a Python float; arrays pass through."""
    return float(a) if not isinstance(a, np.ndarray) or a.ndim == 0 else a


def _exp(v):
    """e^v for a float v, inf past the largest float, where math.exp raises."""
    return math.exp(v) if v <= _LOG_FLOAT_MAX else math.inf


def _one_minus(c, k):
    """1 - c k from the exact c k (Dekker's product): Veltkamp's split makes
    c and k each a sum of two halves of at most 26 bits, whose four products
    are exact; 1 - c_hi k_hi is exact where c k is near 1, so only the sum of
    the three small products rounds.  A small integer c is its own c_hi."""
    c_hi = 134217729.0 * c - (134217729.0 * c - c)
    k_hi = 134217729.0 * k - (134217729.0 * k - k)
    c_lo, k_lo = c - c_hi, k - k_hi
    return (1.0 - c_hi * k_hi) - (c_hi * k_lo + c_lo * k_hi + c_lo * k_lo)


def _mixture_shape(nu, k):
    """a = 1/2k - nu/2 of the Type I law's Beta mixture, for a checked k > 0, as
    (1 - nu k)/2k from the exact nu k, which 1/2k - nu/2 would cancel near nu = 1/k."""
    return 0.5 * _one_minus(nu, k) / k


def _rise(c, t):
    """P(t) - P(0) = t (c[1] + c[2] t + ...) by Horner's rule, in place after the first product."""
    out = 0.0 if len(c) == 1 else t * c[-1]
    for ci in c[-2:0:-1]:
        out += ci
        out *= t
    return out


def _log_kexp_neg(y, k):
    """log kappa_exp(-y) = -arcsinh(k y)/k for a checked k, and -y at k = 0.

    With y = beta x^alpha this is the log of the kappa_exp(-beta x^alpha)
    every family is built from; it is exact for any magnitude of y, also
    below the smallest normal k.
    """
    if k == 0.0:
        return -y
    u = k * y
    if k < _TINY:
        # a subnormal u keeps only a few digits; below |u| = 2^-26
        # arcsinh(u) = u to rounding, and past it u is normal
        with np.errstate(over="ignore"):
            return np.where(np.abs(u) < 2.0**-26, -y, -np.arcsinh(u) / k)
    if type(u) is float:  # a Python float: math costs a tenth of numpy
        return -math.asinh(u) / k
    if not isinstance(u, np.ndarray):  # a scalar, also from a 0-d y
        return -np.arcsinh(u) / k
    # in place: on large arrays each further temporary costs about as
    # much as the arcsinh itself
    np.arcsinh(u, out=u)
    u /= -k
    return u


@functools.cache
def _special():
    """scipy.special, imported on first use, so that only the values that need
    it (the Type I shares at non-integral nu or past order _SUM_ORDERS, the
    lower one near the origin at integral nu >= 2 or past order _LOWER_ORDERS,
    and kappa_erf at kappa = 0) pay for loading it."""
    import scipy.special

    return scipy.special


@functools.lru_cache(maxsize=256)
def _sum_coefs(n, k):
    """(1 - n k, R's and W's coefficients) of _gamma_share's order-n finite sum."""
    p = [1.0]  # P_j; P_(j+1) = P_j (1 + (2j - n) k)/(j + 1)
    for j in range(n):
        p.append(p[-1] * _one_minus(n - 2 * j, k) / (j + 1))
    return p[1], [_one_minus(-j, k) * p[j] for j in range(n)], [0.5 * (j + 1) * p[j + 1] for j in range(n)]


def _gamma_share(y, nu, k, upper):
    """Share of the law y^(nu-1) kappa_exp(-y)/M_k(nu) above y (upper) or below it.

    With u = k y, r = 1/(u + sqrt(1 + u^2)) and s = r^2 the change of
    variables behind the Mellin closed form gives the upper share
    w1 I_s(a, nu) + w2 I_s(a+1, nu), a = 1/(2k) - nu/2,
    w1 = (a+nu)/(2a+nu) = (1 + nu k)/2, w2 = a/(2a+nu) = (1 - nu k)/2.
    At an integral nu = n up to _SUM_ORDERS, I_s(b, n) = s^b sum_(j<n)
    (b)_j (1-s)^j/j! (DLMF 8.17(iv)) makes it a finite sum of positive terms:
    with w = arcsinh(u), x = y r and P_j = prod_(i<=j) (1 + (2i - 2 - n) k)/i,
    each 1 + c k from the exact c k, log S = -(1 - n k) w/k + log1p(R +
    expm1(-2w) W), R = sum_(1<=j<n) (1 + j k) P_j x^j, W = sum_(j<n) (j + 1)
    P_(j+1) x^j/2.  No term divides by k: at k = 0 it is the Erlang share
    e^-y sum y^j/j!, and below the smallest normal k, s^a is e^-y and
    expm1(-2w) W is below rounding.  At n = 1 R = 0 and W = w2, and the lower
    share -expm1(log S) is exact.  At n >= 2 the two terms of log S, each
    good to a few eps, cancel near the origin: the log1p term B leaves an
    error of about eps (2|B| + |log S|).  Below _LOWER_TAIL, where |B| is
    over 8 (1 - S), the lower share is _beta_share's; next to a pole, at a
    small a, B stays below that out to where s is small, and there betainc
    of 1 - s would lose the digits.  Past _LOWER_ORDERS the lower share is
    _beta_share's from KAPPA_SWITCH up, and below it where k^2 n^3 < 2^-40,
    which keeps the classical stand-in's error, about k^2 n^3/6, within the
    sum's loss there; so is every share at any other nu.
    """
    n = int(nu) if nu.is_integer() and nu <= _SUM_ORDERS else 0
    beta_lower = n > _LOWER_ORDERS and (k >= KAPPA_SWITCH or k * k * n**3 < 2.0**-40)
    if not n or (beta_lower and not upper):
        return _beta_share(y, nu, k, upper)
    if n > 1:
        m, r_coef, w_coef = _sum_coefs(n, k)
    else:
        m = 1.0 - k
    if n > 1 and np.ndim(y) == 0:
        # a scalar: the operations below in numpy's float64, at a fraction of
        # the cost of 1-element arrays
        y = np.float64(y)
        with np.errstate(over="ignore"):
            if k < _TINY:
                tail = np.log1p(_rise(r_coef, min(y, _SUM_CLAMP)))
                log_s = tail - y
            else:
                w = np.arcsinh(k * y)
                t = np.expm1(w * -2.0)
                x = min(t * (-0.5 / k), _SUM_CLAMP)
                tail = np.log1p(t * (_rise(w_coef, x) + w_coef[0]) + _rise(r_coef, x))
                log_s = (y if k * y < 2.0**-26 else w / k) * -m + tail
        if upper:
            return np.exp(log_s)
        out = -np.expm1(log_s)
        if out < _LOWER_TAIL and abs(tail) >= 8.0 * out:
            return _beta_share(y, nu, k, False)
        return out
    shape, y = np.shape(y), np.atleast_1d(y)
    if k < _TINY and n == 1:
        log_s = -y
    elif k < _TINY:
        tail = np.log1p(_rise(r_coef, np.fmin(y, _SUM_CLAMP)))
        log_s = tail - y
    else:
        # in place, as in _log_kexp_neg
        log_s = k * y
        np.arcsinh(log_s, out=log_s)
        tail = np.multiply(log_s, -2.0)
        np.expm1(tail, out=tail)
        # as in _log_kexp_neg: below u = 2^-26, and where u underflows,
        # arcsinh(u)/k is y to rounding
        small = k * y < 2.0**-26
        if n == 1:
            tail *= 0.5 * m
        else:
            # x = (1 - s)/2k, to within 2^-53 also where u underflows
            x = np.fmin(tail * (-0.5 / k), _SUM_CLAMP)
            tail *= _rise(w_coef, x) + w_coef[0]
            tail += _rise(r_coef, x)
        with np.errstate(over="ignore"):
            log_s /= k
        if np.count_nonzero(small):
            log_s[small] = y[small]
        log_s *= -m
        log_s += np.log1p(tail, out=tail)
    if upper:
        return np.exp(log_s, out=log_s).reshape(shape)
    out = np.negative(np.expm1(log_s, out=log_s), out=log_s)
    if n > 1:
        near = out < _LOWER_TAIL
        near &= np.abs(tail, out=tail) >= 8.0 * out
        if np.count_nonzero(near):
            out[near] = _beta_share(y[near], nu, k, False)
    return out.reshape(shape)


def _beta_share(y, nu, k, upper):
    """_gamma_share from one incomplete Beta function per point.

    Below the mean a/(a + nu) of the Beta(a, nu) law of s the lower share is
    the complement of the upper one; above it the lower share is w1
    I_(1-s)(nu, a) + w2 I_(1-s)(nu, a+1), with 1 - s = 2 u r exact, and the
    upper one its complement, so each side keeps its relative precision in
    its own tail.  Each side takes one incomplete Beta function: with L =
    s^a (1-s)^nu/(a B(a, nu)), DLMF 8.17.20 gives I_s(a+1, nu) = I_s(a, nu)
    - L and I_(1-s)(nu, a+1) = I_(1-s)(nu, a) + L, so the upper share is
    I_s(a, nu) - w2 L and the lower one I_(1-s)(nu, a) + w2 L.  L is taken
    from log s = 2 log r and log(1 - s) = log(2 u r); the lower share is a
    sum of positive terms, and since I_s(a+1, nu) >= 0 and w2 < 1/2 the
    upper one loses at most one bit to the subtraction.  Past u = 2^500,
    where s underflows, the leading term s^a/(a B(a, nu)) of I_s(a, nu) is
    exact and is taken with log s = -2 arcsinh(u).  Below KAPPA_SWITCH the
    classical regularized Gamma shares are used.
    """
    sp = _special()
    if k < KAPPA_SWITCH:
        return sp.gammaincc(nu, y) if upper else sp.gammainc(nu, y)
    u = np.atleast_1d(k * y)
    a = _mixture_shape(nu, k)
    w1 = (a + nu) / (2.0 * a + nu)
    log_beta = sp.betaln(a, nu)
    # log(1 - s) is -inf at y = 0, and NaN at y = inf, a deep-tail point
    # that is replaced below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r = 1.0 / (np.sqrt(1.0 + u * u) + u)
        one_s = 2.0 * u * r
        # w2 L = s^a (1-s)^nu/((2a + nu) B(a, nu)), w2 = a/(2a + nu)
        w2_l = np.log(one_s)
        w2_l *= nu
        w2_l += 2.0 * a * np.log(r)
        w2_l -= math.log(2.0 * a + nu) + log_beta
        np.exp(w2_l, out=w2_l)
    s = np.square(r)
    near = s > a / (a + nu)
    n_near = np.count_nonzero(near)
    out = np.empty_like(s)
    if n_near < s.size:
        far = ~near
        up = sp.betainc(a, nu, s[far]) - w2_l[far]
        out[far] = up if upper else 1.0 - up
    if n_near:
        low = sp.betainc(nu, a, one_s[near]) + w2_l[near]
        out[near] = 1.0 - low if upper else low
    deep = u > _DEEP_TAIL
    if np.count_nonzero(deep):
        # replaces the underflowed far values; the w2 term is O(s) smaller
        log_s = -2.0 * np.arcsinh(u[deep])
        up = w1 * np.exp(a * log_s - math.log(a) - log_beta)
        out[deep] = up if upper else 1.0 - up
    return np.clip(out, 0.0, 1.0).reshape(np.shape(y))


def _log_gamma_draw(gen, shape, size):
    """log of size standard Gamma(shape) draws for a scalar shape: log G from
    shape 1 up, and log G_(shape+1) + log(U)/shape below it (Devroye 1986,
    IX.3), exact also where G itself underflows, at a tiny shape.  A zero G
    gives -inf."""
    with np.errstate(divide="ignore"):
        if shape >= 1.0:
            return np.log(gen.standard_gamma(shape, size))
        return np.log(gen.standard_gamma(shape + 1.0, size)) + np.log1p(-gen.random(size)) / shape


def _gamma_share_log_draw(gen, size, nu, k):
    """log y for size draws of the law y^(nu-1) kappa_exp(-y)/M_k(nu).

    s decreases in y, so by _gamma_share's upper share s is a draw of the
    Beta mixture behind it (composition, Devroye 1986): Beta(b, nu), b = a
    with probability w1 = (1 + nu k)/2, else b = a + 1; and y = sinh(L/2)/k,
    L = -log s.  At an integral nu = n up to _DRAW_ORDERS, Beta(b, n) is the
    product of the Beta(b + i, 1) = U^(1/(b+i)), i < n (Devroye 1986, IX.3-4),
    so L = sum E_i/(b + i) from n standard exponentials; with b = a + c,
    T = L/2k = sum E_i/(1 + (2(i + c) - n) k), each denominator from the
    exact product, so no term divides by k or cancels next to the pole
    n k = 1, and T is the Erlang draw sum E_i as k -> 0.  Then y = T sinh(z)/z,
    z = kT, taken as log y = log(T (1 - e^-2z)/2z) + z, and as log T below
    z = 2^-26, where sinh(z)/z is 1 to rounding and z may be subnormal; a
    zero T gives -inf.  At any other nu, s = G_b/(G_b + G_nu) from two Gamma
    draws, each component's G_b drawn at its own scalar shape into its mask;
    then L = log1p(G_nu/G_b), so log y = L/2 + log(-expm1(-L)) - log 2k, all
    from d = log G_nu - log G_b: no G that underflows and no y that overflows
    is ever formed, and a zero G gives d = -inf or inf, an end of the
    support.  At k = 0, and below the smallest normal k, where 1/2k may
    overflow and the deformation is far below rounding, y is the Gamma(nu)
    draw.
    """
    if k < _TINY:
        return _log_gamma_draw(gen, nu, size)
    first = gen.random(size) < 0.5 * (1.0 + nu * k)
    if nu.is_integer() and nu <= _DRAW_ORDERS:
        n = int(nu)
        inv = 1.0 / np.array([_one_minus(n - 2 * j, k) for j in range(n + 1)])
        # row c of t_c is T for that c; one matrix product makes both
        t_c = np.stack((inv[:n], inv[1:])) @ gen.standard_exponential((n, size))
        t = np.where(first, t_c[0], t_c[1])
        # in place, as in _log_kexp_neg
        z = k * t
        minus_2z = -2.0 * z
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.expm1(minus_2z)
            ratio /= minus_2z
            small = z < 2.0**-26
            if np.count_nonzero(small):
                ratio[small] = 1.0
                z[small] = 0.0
            t *= ratio
            log_y = np.log(t, out=t)
        log_y += z
        return log_y
    a = _mixture_shape(nu, k)
    n_first = np.count_nonzero(first)
    log_gb = np.empty(size)
    log_gb[first] = _log_gamma_draw(gen, a, n_first)
    log_gb[~first] = _log_gamma_draw(gen, a + 1.0, size - n_first)
    d = _log_gamma_draw(gen, nu, size) - log_gb
    with np.errstate(divide="ignore", over="ignore"):
        # log1p(e^d) is d, and 2 sinh(L/2) is L = e^d, to every digit past |d| = 36
        big_l = np.where(d > 36.0, d, np.log1p(np.exp(d)))
        log_2sinh = np.where(d < -36.0, d, 0.5 * big_l + np.log(-np.expm1(-big_l)))
    return log_2sinh - math.log(2.0 * k)


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


def _sinh_k(v, k):
    """sinh(k v)/k for a checked k, and v at k = 0.

    y = -_sinh_k(log kappa_exp(-y), k) inverts _log_kexp_neg, and keeps
    its digits below the smallest normal k as that does.
    """
    if k == 0.0:
        return v
    a = k * v
    if k < _TINY:
        # as in _log_kexp_neg: below |a| = 2^-26 sinh(a) = a to rounding
        with np.errstate(over="ignore"):
            return np.where(np.abs(a) < 2.0**-26, v, np.sinh(a) / k)
    if not isinstance(a, np.ndarray):  # a scalar, also from a 0-d v
        return np.sinh(a) / k
    # in place, as in _log_kexp_neg: a large v then costs one temporary
    np.sinh(a, out=a)
    a /= k
    return a


def kappa_log(t, kappa):
    """Deformed logarithm (t^k - t^-k)/(2k), the inverse of kappa_exp.

    Evaluated as sinh(k log t)/k, which is free of cancellation for
    small k; kappa = 0 returns log(t).
    """
    k = check_kappa(kappa)
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or not np.all(np.isfinite(t)):
        raise DomainError("kappa_log requires t > 0")
    return _maybe_item(_sinh_k(np.log(t), k))


def kappa_exp_tail_exponent(kappa, sign):
    """Exponent and prefactor of the Pareto asymptote of kappa_exp.

    kappa_exp(x) ~ prefactor * |x|**exponent for x -> sign * inf, with
    exponent = sign/kappa and prefactor = (2 kappa)**(sign/kappa).
    Returns (exponent, prefactor).
    """
    k = check_kappa(kappa)
    if k == 0.0:
        raise DomainError("no power-law tail in classical limit (kappa = 0)")
    try:
        s = {"+": 1, "-": -1}.get(sign, 0) if isinstance(sign, str) else int(np.sign(float(sign)))
    except (TypeError, ValueError, OverflowError):  # not a number, or NaN
        s = 0
    if s not in (-1, 1):
        raise DomainError(f"sign must be '+', '-' or a nonzero number, got {sign!r}")
    exponent = s / k
    return exponent, (2.0 * k) ** exponent


def _stirling_rest(x):
    """lnGamma(x) - [(x - 1/2) ln x - x + ln sqrt(2 pi)] for x > 0, of order
    1/(12 x); x is a float or an array.

    The lnGamma form loses about eps * lnGamma(x) to cancellation, so
    from x = 10 on the Stirling series is summed instead.
    """
    if isinstance(x, np.ndarray):
        out = _stirling_series(x)
        # the few x below 10 take the scalar form, written out so that no
        # call per entry is paid, and both paths agree bit for bit
        near = x < 10.0
        lgamma, log = math.lgamma, math.log
        out[near] = [lgamma(v) - (v - 0.5) * log(v) + v - _HALF_LOG_2PI for v in x[near].tolist()]
        return out
    if x < 10.0:
        return math.lgamma(x) - (x - 0.5) * math.log(x) + x - _HALF_LOG_2PI
    return _stirling_series(x)


def _stirling_series(x):
    """Eight terms of sum_k B_2k / (2k (2k-1) x^(2k-1)); the next is below 2e-18 at x >= 10."""
    y = (1.0 / x) ** 2  # x * x overflows at x past 1e154
    s = 1.0 / 1188 - y * (691.0 / 360360 - y * (1.0 / 156 - y * (3617.0 / 122400)))
    return (1.0 / 12 - y * (1.0 / 360 - y * (1.0 / 1260 - y * (1.0 / 1680 - y * s)))) / x


def _log_mellin_ratio(r, k):
    """log(M_k(r)/Gamma(r)) = -(r+1) log 2k + lnGamma(1/2k - r/2) - lnGamma(1/2k + 1 + r/2).

    Analytic in r on -2 - 1/k < r < 1/k (through r = 0, -1, -2, where it
    is 0), and 0 at k = 0 and below the smallest normal k, where 1/2k
    may overflow and the O(k^2) ratio is 0 to rounding.  With
    a = 1/2k - r/2 and b = 1/2k + 1 + r/2 Stirling's formula turns it into
    (1+r)(1 - log1p(k (2+r))) + (a - 1/2) log1p(-(1+r)/b) + rest(a) - rest(b),
    whose terms are of order r instead of 1/k, so the O(k^2 r^3) result
    keeps its relative precision as k -> 0.  k may also be an array of
    positive kappas.  The caller checks the range.
    """
    log1p = math.log1p
    if isinstance(k, np.ndarray):
        small = k < _TINY
        if np.count_nonzero(small):
            out = np.zeros(k.shape)
            out[~small] = _log_mellin_ratio(r, k[~small])
            return out
        log1p = np.log1p
    elif k < _TINY:
        return 0.0
    z = 0.5 / k
    a = z - 0.5 * r
    b = z + 1.0 + 0.5 * r
    return (
        (1.0 + r) * (1.0 - log1p(k * (2.0 + r)))
        + (a - 0.5) * log1p(-(1.0 + r) / b)
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
    return _exp(log_mellin_kappa(r, kappa))


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
        return _maybe_item(_special().erf(x))
    with np.errstate(over="ignore"):
        share = _gamma_share(x * x, 0.5, k, upper=False)
    # below |x| = 2^-500, x^2 loses digits while the O(x^3) term is < eps
    slope = 2.0 / math.sqrt(math.pi) * kappa_erf_prefactor(k)
    return _maybe_item(np.where(np.abs(x) < 2.0**-500, slope * x, np.sign(x) * share))

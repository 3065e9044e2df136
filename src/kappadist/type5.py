"""Type V: distributions generated by successive derivatives of the
Type I_1 density (the deformed exponential pdf).

P(n, x) = 1 - g^(n-1)(x)/g^(n-1)(0) with generatrix
g(x) = (1 - k^2) beta kappa_exp(-beta x).  Orders n = 1, 2, 3 are
implemented from their closed forms (n = 1 is exactly Type II_1).
Higher orders are not supported yet; the ladder recurrence of their
polynomials would plug into the same _y_* hooks.

Like Types I-IV, Type V is the law of Y = beta X carried to X
(framework.PowerTransformed, alpha = 1), and writes only the law of Y.
Its survival functions S_n = g^(n-1)/g^(n-1)(0) form a ladder: the
density of Y of order n is the survival of order n + 1, so one
log-survival routine for orders 1-4 gives the shares and the density.
The moments come from the Mellin transform of g^(n):
<Y^m> = Gamma(1+m) M_k(m+1-n)/Gamma(m+1-n) on the whole window
-1 < m < n - 1 + 1/kappa, which is m! for integer m <= n - 1.

The draws are exact and need no quantile: in a = arcsinh(k beta x) the
density of order n is e^(-a/k) rho_n(tanh a)/k with a bounded rho_n, so
exponential proposals a = k E are thinned by rejection (Type5._draw).
"""

import functools
import math

import numpy as np

from .core import _TINY, _log_kexp_neg, _log_mellin_ratio
from .errors import DomainError, UnsupportedOrderError
from .framework import PowerTransformed

__all__ = ["Type5"]


class Type5(PowerTransformed):
    def __init__(self, n, beta, kappa):
        super().__init__(1.0, beta, kappa)
        n = self.n = int(n)
        if n not in (1, 2, 3):
            raise UnsupportedOrderError(f"Type V implements orders n in {{1, 2, 3}}, got n = {n}")

    def get_params(self):
        return {"n": self.n, "beta": self.beta, "kappa": self.kappa}

    def _log_survival(self, z, order):
        """log of the order-th survival function of the ladder at z = beta x.

        S_1 = E = kappa_exp(-z), and each next order is the derivative of
        the one before, up to sign and scale:
        log S = log E - ((order-1)/2) log(1 + u^2) + log P(t), u = k z,
        t = u/sqrt(1 + u^2) = tanh(a), a = arcsinh(u) = -k log E, with
        P = _p(t, order); the order-4 member is beta^-1 times the order-3
        density, and S_4(0) = 1 - k^2.  Every term keeps its relative
        precision (log P through log1p), so the cdf -expm1(log S) stays
        exact near the origin, and log sqrt(1 + u^2) = a - log1p(t) stays
        finite where u*u overflows.
        """
        k = self.kappa
        log_s = _log_kexp_neg(z, k)  # log S_1 = log E
        if order == 1 or k == 0.0:
            return log_s  # the u = k z terms vanish (k log E is NaN at k = 0, z = inf)
        # in place, as in _log_kexp_neg: on large arrays each further
        # temporary costs about as much as a ufunc pass
        a = -k * log_s
        t = np.tanh(a)
        a -= np.log1p(t)  # log cosh(a)
        a *= order - 1
        log_s -= a
        if order == 3:
            log_s += np.log1p(k * t)
        elif order == 4:  # P_4 = P_4(0) (1 + 3 k t (1 + k t)/P_4(0)): both logs keep their digits
            log_s += self._log_p4_0() + np.log1p(3.0 * k * t * (1.0 + k * t) / self._p(0.0, 4))
        return log_s

    def _log_p4_0(self):
        """log P_4(0) = log((1 - k)(1 + k)), to its relative precision at every k."""
        k = self.kappa
        return math.log1p(-k * k) if k < 0.5 else math.log(self._p(0.0, 4))

    def _p(self, t, order):
        """The ladder's polynomial P(t) of order 1 to 4: 1, 1, 1 + k t and
        (1 - k)(1 + k) + 3 k t (1 + k t), whose terms are all positive on
        [0, 1], so each keeps its relative precision, also at P_4(0) = 1 - k^2
        as k -> 1."""
        k = self.kappa
        if order < 4:
            return 1.0 + k * t if order == 3 else 1.0
        return (1.0 - k) * (1.0 + k) + 3.0 * k * t * (1.0 + k * t)

    def _rho(self, t):
        """(1 - t^2)^((n-1)/2) P_(n+1)(t): the density of a = arcsinh(k beta x)
        over the proposal's e^(-a/k)/k, as a function of t = tanh(a); 1 at n = 1."""
        if self.n == 1:
            return np.ones_like(t)
        p = self._p(t, self.n + 1)
        return p * np.sqrt(1.0 - t * t) if self.n == 2 else p * (1.0 - t * t)

    @functools.cached_property
    def _rho_bound(self):
        """M >= sup of _rho over [0, 1), with a 1e-12 relative margin.

        rho_2 = (1 + k t) sqrt(1 - t^2) peaks at the root
        t = 2k/(1 + sqrt(1 + 8 k^2)) of 2 k t^2 + t - k, and
        rho_3 = (1 - k^2 + 3 k t (1 + k t))(1 - t^2) at the one root in (0, 1)
        of f = 12 k^2 t^3 + 9 k t^2 + (2 - 8 k^2) t - 3 k, convex there.
        """
        k = self.kappa
        if self.n == 1:
            return 1.0
        if self.n == 2:
            t = 2.0 * k / (1.0 + math.sqrt(1.0 + 8.0 * k * k))
        else:
            t = _convex_root(12.0 * k * k, 9.0 * k, 2.0 - 8.0 * k * k, -3.0 * k)
        return float(self._rho(t)) * (1.0 + 1e-12)

    # -- the law of y = beta x: survival S_n, density S_(n+1) ---------------------

    _y_power = 1.0

    def _y_share(self, y, upper):
        log_s = self._log_survival(y, self.n)
        return np.exp(log_s) if upper else np.clip(-np.expm1(log_s), 0.0, 1.0)

    def _y_log_regular(self, y):
        return self._log_survival(y, self.n + 1)

    def _y_ends(self):
        # y S_(n+1)(y) ~ P_(n+1)(0) y as y -> 0, and with E ~ (2 k y)^(-1/k) and
        # sqrt(1 + u^2) ~ k y as y -> inf, ~ P_(n+1)(1) (2k)^(-1/k) k^-n y^(1-n-1/k);
        # below the smallest normal k that power is past every float power
        k, n = self.kappa, self.n
        origin = (1.0, 1.0, self._log_p4_0() if n == 3 else 0.0)  # log P_(n+1)(0)
        if k < _TINY:
            return origin, None
        log_c = math.log(self._p(1.0, n + 1)) - math.log(2.0 * k) / k - n * math.log(k)
        return origin, ((1.0 - n) * k - 1.0, k, log_c)

    def _y_log_moment(self, r):
        """<Y^r> = Gamma(1+r) M_k(r+1-n)/Gamma(r+1-n).

        The Mellin transform of g^(n) is (-1)^n Gamma(s)/Gamma(s-n) times
        that of g at s - n; at s = r + 1 it gives this closed form over the
        whole window -1 < r < n - 1 + 1/kappa.  For integer r <= n - 1 the
        ratio is 1 and <Y^r> = r!.
        """
        return math.lgamma(1.0 + r) + _log_mellin_ratio(r + 1.0 - self.n, self.kappa)

    def _hazard(self, x):
        """-d log S_n/dx = beta sech(a) P_(n+1)(t)/P_n(t) down the ladder, with
        beta sech(a) = 1/hypot(1/beta, k x): finite where S_n underflows."""
        k = self.kappa
        if k == 0.0:  # every order is the exponential law
            return np.where(np.isnan(x), math.nan, self.beta)
        with np.errstate(over="ignore"):
            t = np.tanh(np.arcsinh(k * (self.beta * x)))  # k beta underflows at a subnormal k
            h = 1.0 / np.hypot(1.0 / self.beta, k * x)
        return h * self._p(t, self.n + 1) / self._p(t, self.n)

    def tail_exponent(self):
        """pdf ~ x^(-n - 1/kappa) for x -> inf."""
        if self.kappa == 0.0:
            raise DomainError("no power-law tail in classical limit (kappa = 0)")
        return -self.n - 1.0 / self.kappa

    def moment_constraint(self, at_origin):
        return "m > -1" if at_origin else "m < n - 1 + 1/kappa"

    def _draw(self, gen, size):
        """Rejection in a = arcsinh(k z), z = beta x (Devroye 1986, II.3).

        dz = cosh(a) da/k turns pdf_n(x) dx = S_(n+1)(z) dz into the density
        e^(-a/k) rho(tanh a)/k of a, so a = k E, E standard exponential, is
        kept where U M <= rho(tanh a), M = _rho_bound: over 53% of the
        proposals for every k < 1.  Each round draws only the shortfall, so
        a seed fixes the draws.  z = sinh(a)/k is taken as E sinh(a)/a, which
        keeps every digit where a = k E is subnormal; at k = 0 every order is
        the exponential law.
        """
        k = self.kappa
        out = np.empty(size)
        done = 0
        while done < size:
            e = gen.standard_exponential(size - done)
            a = k * e
            if self.n > 1 and k > 0.0:
                keep = gen.random(e.size) * self._rho_bound <= self._rho(np.tanh(a))
                e, a = e[keep], a[keep]
            # sinh(a)/a is 1 to every digit below a = 2^-26, and 0/0 at a = 0
            big = a >= 2.0**-26
            e[big] *= np.sinh(a[big]) / a[big]
            out[done:done + e.size] = e
            done += e.size
        with np.errstate(over="ignore"):  # past the largest float at a subnormal beta
            out /= self.beta
        return out

    def _argmax(self):
        """0 where the density falls from the origin, else x at the root t of
        P_5 = (1 - 2k)(1 + 2k) + (6k - 9k^3) t + 15k^2 t^2 + 15k^3 t^3: down the ladder
        d log S_m/dz = -sech(a) P_(m+1)(t)/P_m(t), P_3 and P_4 are positive on
        [0, 1), and P_5 is convex there and negative at 0 past k = 1/2."""
        k = self.kappa
        if self.n < 3 or k <= 0.5:
            return 0.0
        c0 = (1.0 - 2.0 * k) * (1.0 + 2.0 * k)  # P_5(0), exact near k = 1/2
        t = _convex_root(15.0 * k**3, 15.0 * k * k, 6.0 * k - 9.0 * k**3, c0)
        return t / (k * self.beta * math.sqrt((1.0 - t) * (1.0 + t)))  # sinh(a)/(k beta)


def _convex_root(c3, c2, c1, c0):
    """The root in (0, 1) of c3 t^3 + c2 t^2 + c1 t + c0, convex on [0, 1],
    negative at 0 and positive at 1: Newton from t = 1 falls onto it."""
    t = 1.0
    for _ in range(100):
        tn = t - (((c3 * t + c2) * t + c1) * t + c0) / ((3.0 * c3 * t + 2.0 * c2) * t + c1)
        if not tn < t:  # rounding would turn it back
            break
        t = tn
    return t

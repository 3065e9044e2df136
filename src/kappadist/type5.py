"""Type V: distributions generated by successive derivatives of the
Type I_1 density (the deformed exponential pdf).

P(n, x) = 1 - g^(n-1)(x)/g^(n-1)(0), g(x) = (1 - k^2) beta kappa_exp(-beta x),
is a law for k < 1/(n - 2), where the coefficient xi(n) of x^n/n! in exp_k
(Kaniadakis, Physica A 296, 405, 2001) is positive; orders 1 to MAX_ORDER
take one code path, and n = 1 is exactly Type II_1.  As a PowerTransformed
law (alpha = 1) it writes only the law of Y = beta X, from the ladder
S_m = e^(-a/k) sech^(m-1)(a) P_m(t)/P_m(0), a = arcsinh(k y), t = tanh(a),
P_(m+1) = (1 + (m-1) k t) P_m - k (1 - t^2) P_m', P_1 = P_2 = 1, P_m(0) = xi(m-1):
the density of Y is S_(n+1) P_(n+1)(0)/P_n(0), and <Y^m> = Gamma(1+m)
M_k(m+1-n)/(Gamma(m+1-n) P_n(0)) on -1 < m < n - 1 + 1/kappa, which is
m! xi(n-1-m)/xi(n-1) at integer m <= n - 1 (m! for n <= 3).  The draws
thin exponential proposals in a by rejection (Type5._draw).
"""

import functools
import math

import numpy as np

from .core import _TINY, _log_kexp_neg, _log_mellin_ratio, _one_minus, _rise
from .errors import DomainError, UnsupportedOrderError
from .framework import _STEP_TOL, PowerTransformed, as_integer

__all__ = ["Type5"]

MAX_ORDER = 8  # each ladder up to here is checked against mpmath inside its window


def _xi(q, k):
    """(xi(q), log xi(q)), xi(q) = prod (1 - c k)(1 + c k), c = q - 2, q - 4, ... > 0,
    each 1 - c k from _one_minus and each log from log1p(-(c k)^2) below c k = 1/2:
    to their relative precision at every k."""
    xi, log_xi = 1.0, 0.0
    for c in range(q - 2, 0, -2):
        u = c * k
        f = _one_minus(c, k) * (1.0 + u)
        xi *= f
        log_xi += math.log1p(-u * u) if u < 0.5 else math.log(f) if f > 0.0 else math.nan
    return xi, log_xi


def _root(c):
    """The one root in (0, 1) of sum c_i t^i, negative at 0 and positive at 1: Newton
    steps from t = 1 inside the shrinking bracket, a bisection where one leaves it."""
    lo, hi, t = 0.0, 1.0, 1.0
    for _ in range(100):
        f = df = 0.0
        for ci in reversed(c):
            df = df * t + f
            f = f * t + ci
        lo, hi = (lo, t) if f > 0.0 else (t, hi)
        tn = t - f / df if df else math.nan
        tn = tn if lo < tn < hi else 0.5 * (lo + hi)
        if abs(tn - t) <= _STEP_TOL * t:
            break
        t = tn
    return tn


class Type5(PowerTransformed):
    def __init__(self, n, beta, kappa):
        super().__init__(1.0, beta, kappa)
        order = self.n = as_integer(n)
        if order is None or not 1 <= order <= MAX_ORDER or not self.kappa * (order - 2) < 1.0:
            raise UnsupportedOrderError(
                f"Type V implements integer orders 1 <= n <= {MAX_ORDER} with kappa < 1/(n - 2), "
                f"where P_(n+1)(0) > 0; got n = {n!r}, kappa = {self.kappa:g}"
            )

    def get_params(self):
        return {"n": self.n, "beta": self.beta, "kappa": self.kappa}

    @functools.cached_property
    def _ladder(self):
        """[P_1, ..., P_(n+2)] as coefficients from t^0 up, built on first use; each P_(m+1)(0)
        is xi(m), not the recurrence's p_0 - k p_1, which cancels near the window's edge."""
        k, ladder = self.kappa, [(1.0,), (1.0,)]
        for m in range(2, self.n + 2):
            p = ladder[-1] + (0.0, 0.0)
            rest = [p[i] - (i + 1) * k * p[i + 1] + (m - 2 + i) * k * p[i - 1] for i in range(1, m)]
            ladder.append((_xi(m, k)[0], *rest))
        return ladder

    @functools.cached_property
    def _log_shift(self):
        """log P_(n+1)(0)/P_n(0), the log density of Y at the origin."""
        return _xi(self.n, self.kappa)[1] - _xi(self.n - 1, self.kappa)[1]

    def _log_survival(self, z, m):
        """log S_m(z) = log E - (m-1) log cosh(a) + log1p(t Q(t)), E = kappa_exp(-z),
        a = -k log E, P_m = P_m(0) (1 + t Q) at z = beta x, plus _log_shift at m = n + 1:
        the log density of Y.  Q has positive coefficients, so every term keeps its
        relative precision, and the cdf -expm1(log S_n) stays exact near the origin."""
        k = self.kappa
        log_s = _log_kexp_neg(z, k)  # log S_1 = log E
        if m == 1 or k == 0.0:
            return log_s  # the a terms vanish (k log E is NaN at k = 0, z = inf)
        a = -k * log_s
        t = np.tanh(a)
        a -= np.log1p(t)  # log cosh(a), finite where cosh(a) overflows
        a *= m - 1
        log_s -= a
        p = self._ladder[m - 1]
        if len(p) > 1:  # else P_m = 1
            h = np.log1p(_rise(p, t) / p[0])
            log_s += h + self._log_shift if m > self.n else h
        return log_s

    def _rho(self, t):
        """(1 - t^2)^((n-1)/2) P_(n+1)(t)/P_n(0): the density of a = arcsinh(k beta x)
        over the proposal's e^(-a/k)/k, as a function of t = tanh(a)."""
        n, p = self.n, self._ladder[self.n]
        out = _rise(p, t) + p[0]
        out *= (1.0 - t * t) ** (0.5 * (n - 1)) / self._ladder[n - 1][0]
        return out

    @functools.cached_property
    def _rho_bound(self):
        """M >= sup of _rho over [0, 1), with a 1e-12 relative margin: rho_n at
        the root in (0, 1) of (n - 1) t P - (1 - t^2) P', P = P_(n+1)."""
        n, p = self.n, self._ladder[self.n] + (0.0, 0.0)
        if n == 1 or self.kappa == 0.0:  # rho = 1
            return 1.0
        f = [-p[1]] + [(n + i - 2) * p[i - 1] - (i + 1) * p[i + 1] for i in range(1, n + 1)]
        return float(self._rho(_root(f))) * (1.0 + 1e-12)

    # -- the law of y = beta x: survival S_n, density S_(n+1) P_(n+1)(0)/P_n(0) ---

    _y_power = 1.0

    def _y_share(self, y, upper):
        log_s = self._log_survival(y, self.n)
        return np.exp(log_s) if upper else np.clip(-np.expm1(log_s), 0.0, 1.0)

    def _y_log_regular(self, y):
        return self._log_survival(y, self.n + 1)

    def _y_ends(self):
        # y pdf_Y ~ y P_(n+1)(0)/P_n(0) at 0, and ~ P_(n+1)(1)/P_n(0) (2k)^(-1/k) k^-n y^(1-n-1/k)
        # at inf (E ~ (2 k y)^(-1/k), cosh(a) ~ k y), past every float power below a normal k
        k, n, p, log_c = self.kappa, self.n, self._ladder[self.n], self._log_shift
        if k < _TINY:
            return (1.0, 1.0, log_c), None
        log_far = log_c + math.log1p(sum(p[1:]) / p[0]) - math.log(2.0 * k) / k - n * math.log(k)
        return (1.0, 1.0, log_c), ((1.0 - n) * k - 1.0, k, log_far)

    def _y_log_moment(self, r):
        """<Y^r> = Gamma(1+r) M_k(r+1-n)/(Gamma(r+1-n) P_n(0)) on the whole window
        -1 < r < n - 1 + 1/kappa: the Mellin transform of g^(n) at s = r + 1 is
        (-1)^n Gamma(s)/Gamma(s-n) times that of g at s - n."""
        n, k = self.n, self.kappa
        return math.lgamma(1.0 + r) + _log_mellin_ratio(r + 1.0 - n, k) - _xi(n - 1, k)[1]

    def _hazard(self, x):
        """-d log S_n/dx = beta sech(a) P_(n+1)(t)/P_n(t) down the ladder, with
        beta sech(a) = 1/hypot(1/beta, k x): finite where S_n underflows."""
        k = self.kappa
        if k == 0.0:  # every order is the exponential law
            return np.where(np.isnan(x), math.nan, self.beta)
        with np.errstate(over="ignore"):
            t = np.tanh(np.arcsinh(k * (self.beta * x)))  # k beta underflows at a subnormal k
            h = 1.0 / np.hypot(1.0 / self.beta, k * x)
        p, q = self._ladder[self.n], self._ladder[self.n - 1]
        return h * (_rise(p, t) + p[0]) / (_rise(q, t) + q[0])

    def tail_exponent(self):
        """pdf ~ x^(-n - 1/kappa) for x -> inf."""
        if self.kappa == 0.0:
            raise DomainError("no power-law tail in classical limit (kappa = 0)")
        return -self.n - 1.0 / self.kappa

    def moment_constraint(self, at_origin):
        return "m > -1" if at_origin else "m < n - 1 + 1/kappa"

    def _draw(self, gen, size):
        """Rejection in a = arcsinh(k z), z = beta x (Devroye 1986, II.3): a has the
        density e^(-a/k) rho(tanh a)/k, so a = k E, E standard exponential, is kept
        where U M <= rho(tanh a), M = _rho_bound: over 53% of the proposals at n <= 3,
        21% up to n = 8.  Each round draws only the shortfall, so a seed fixes the
        draws.  z = sinh(a)/k is taken as E sinh(a)/a, which keeps every digit where
        a = k E is subnormal; at k = 0 every order is the exponential law."""
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
        """0 where the density falls from the origin, else x at the root t of P_(n+2):
        d log S_m/dz = -sech(a) P_(m+1)(t)/P_m(t), P_(n+1) > 0 on [0, 1), and P_(n+2),
        convex there, rises through 0 once where P_(n+2)(0) = xi(n+1) < 0."""
        p = self._ladder[self.n + 1]
        if not p[0] < 0.0:
            return 0.0
        t = _root(p)
        return t / (self.kappa * self.beta * math.sqrt((1.0 - t) * (1.0 + t)))  # sinh(a)/(k beta)

"""Deformed Generalized-Logistic family (Type III) and the full-line
deformed Logistic.

survival S(x) = lambda E / (1 + (lambda - 1) E) with
E = kappa_exp(-beta x^alpha); lambda = 1 collapses exactly to Type II,
which is therefore its subclass, 0 < lambda < 1 is the bosonic regime,
lambda > 1 the fermionic one.  S obeys dS/dx = -h S (1 - (lambda-1)/lambda S)
with the same h and cumulative hazard as Type II, so for alpha > 0 the
hazard is h/(1 + (lambda-1) E).

Everything is evaluated from log E, so 1 - E = -expm1(log E) keeps its
relative precision where E is close to 1, and the quantile inverts log E
with sinh.

The deformed Logistic F(x) = 1/(1 + kappa_exp(-beta x)) is the even
reflection of alpha = 1, lambda = 2: kappa_exp(x) kappa_exp(-x) = 1 makes
F(x) = 1/2 + (1 - E)/(2 (1 + E)) for x >= 0, half the Type III share.
"""

import math

import numpy as np

from . import oracle
from .core import _TINY, _log_kexp_neg, _log_mellin_ratio, _sinh_k
from .errors import DomainError
from .framework import Distribution, ModeResult, PowerTransformed, SymmetrizedDistribution, check_param

__all__ = ["Type3", "KappaLogistic"]

# The moment series for lambda <= 1 stops where (1 - lambda)^j < 2^-60.
# Past this many terms (lambda below about 6e-4) it costs about as much as
# quadrature, 5-10 ms, and quadrature takes over.
_SERIES_LOG_TOL = 60.0 * math.log(2.0)
_MAX_TERMS = 1 << 16


def _alternating_weights(n):
    """w with sum_j (-1)^j a_j ~ sum_(j<n) w_j (-1)^j a_j.

    Algorithm 1 of Cohen, Rodriguez Villegas and Zagier, "Convergence
    acceleration of alternating series" (Exp. Math. 9, 2000): for a_j the
    moments of a positive measure on [0, 1] the relative error is about
    (3 + sqrt 8)^-n.  Every weight lies in (0, 1].
    """
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b, c, w = -1.0, -d, []
    for j in range(n):
        c = b - c
        w.append(abs(c) / d)
        b *= (j + n) * (j - n) / ((j + 0.5) * (j + 1.0))
    return np.array(w)


_ALTERNATING = _alternating_weights(30)


class Type3(PowerTransformed):
    def __init__(self, alpha, beta, lam, kappa):
        super().__init__(alpha, beta, kappa)
        self.lam = check_param("lambda", lam)

    def get_params(self):
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "lam": self.lam,
            "kappa": self.kappa,
        }

    def hazard_rate(self, x):
        """h(x) = alpha beta x^(alpha-1) / sqrt(1 + k^2 beta^2 x^(2 alpha)).

        This is the Type II hazard function for alpha > 0; for alpha < 0
        the Type II pdf is |h| kappa_exp(-beta x^alpha) but h/S is no
        longer the hazard.
        """
        return self._on_support(self._hazard_rate, x, 0.0)

    def _hazard_rate(self, x):
        a, k = self.alpha, self.kappa
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            y = self._y(x)
            # hypot: sqrt(1 + u^2) without overflowing u^2
            root = np.hypot(1.0, k * y) if k > 0.0 else 1.0
            if a > 0.0:
                h = a * self.beta * np.power(x, a - 1.0) / root
            else:  # x^(alpha-1) overflows before y does
                h = (a / x) * (y / root)
            if k == 0.0:
                return h
            # past the largest float y, h is alpha/(k x) to every digit
            return np.where(np.isinf(y), a / (k * x), h)

    def _hazard(self, x):
        """pdf/S = h/(1 + (lambda-1) E) for alpha > 0, finite where S underflows;
        for alpha < 0 h/S is not the hazard, and pdf/S is taken as it stands."""
        if self.alpha < 0.0:
            return super()._hazard(x)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._hazard_rate(x) / self._y_parts(self._y(x), False)[2]

    def cum_hazard(self, x):
        """H(x) = arcsinh(kappa beta x^alpha)/kappa, Type II's; classical
        limit beta x^alpha.  For alpha < 0 it is -log survival."""
        return self._on_support(self._cum_hazard, x, 0.0)

    def _cum_hazard(self, x):
        # 0 - log: +0.0 where the survival is 1, +inf where it is 0
        with np.errstate(divide="ignore", over="ignore"):
            if self.alpha < 0.0:
                return 0.0 - np.log(self._survival(x))
            return -_log_kexp_neg(self._y(x), self.kappa)

    # -- the law of y = beta x^alpha, from E = kappa_exp(-y) --------------------

    _y_power = 1.0

    def _y_parts(self, y, below):
        """(E, 1 - E, D = 1 + (lambda-1) E); 1 - E is None unless below or lambda < 1."""
        lam = self.lam
        log_e = _log_kexp_neg(y, self.kappa)
        e = np.exp(log_e)
        one_e = -np.expm1(log_e) if below or lam < 1.0 else None
        # for lambda < 1, 1 - (1-lambda) E would cancel where E is close to 1
        return e, one_e, (1.0 + (lam - 1.0) * e if lam >= 1.0 else lam * e + one_e)

    def _y_share(self, y, upper):
        """lambda E/(1 + (lambda-1) E) above y (upper), or (1 - E)/(1 + (lambda-1) E) below."""
        e, one_e, den = self._y_parts(y, not upper)
        return self.lam * e / den if upper else one_e / den

    def _y_log_regular(self, y):
        # pdf_Y = lambda E / (sqrt(1 + u^2) (1 + (lambda-1) E)^2), u = k y
        lam, k = self.lam, self.kappa
        log_e = _log_kexp_neg(y, k)
        # log sqrt(1 + u^2) is log cosh(a) with a = arcsinh(u) = -k log E:
        # finite where u*u would overflow
        a = -k * log_e
        log_cosh = a - np.log1p(np.tanh(a)) if k > 0.0 else 0.0
        return math.log(lam) - log_cosh + log_e - 2.0 * np.log1p((lam - 1.0) * np.exp(log_e))

    def _y_slope(self, log_y):
        # S = 1 - tau^2 - v (1-q)/(1+q), q = (lambda-1) E, tau = k v; 1 -+ q
        # come from E - 1, so 1 - q keeps its sign near lambda = 2
        lam, k = self.lam, self.kappa
        y = math.exp(log_y)
        h = math.hypot(1.0, k * y)
        v, c, tau = y / h, 1.0 / (h * h), k * y / h  # c = 1 - tau^2
        log_e = _log_kexp_neg(y, k)
        em1, q = math.expm1(log_e), (lam - 1.0) * math.exp(log_e)
        q_plus = lam + (lam - 1.0) * em1
        f = (2.0 - lam - (lam - 1.0) * em1) / q_plus
        return c - v * f, -c * (2.0 * tau * tau + v * f) - 2.0 * q * (v / q_plus) ** 2

    def _y_ends(self):
        k = self.kappa
        # E ~ (2 k y)^(-1/k) and sqrt(1 + u^2) ~ k y as y -> inf; below the
        # smallest normal k that power is past every float power
        far = None if k < _TINY else (-1.0, k, math.log(self.lam / k) - math.log(2.0 * k) / k)
        return (1.0, 1.0, -math.log(self.lam)), far

    def _y_invert(self, share, upper):
        """The share solved for log E, E = s/(1 + (lambda-1)(1 - s)) above y
        or (1 - c)/(1 + (lambda-1) c) below it, each log through log1p so
        both tails keep their relative precision; y = sinh(-k log E)/k."""
        lam, k = self.lam, self.kappa
        if upper:
            log_e = np.log(share) - np.log1p((lam - 1.0) * (1.0 - share))
        else:
            log_e = np.log1p(-share) - np.log1p((lam - 1.0) * share)
        return -_sinh_k(log_e, k)

    def rate_residual(self, x):
        """Residual of dS/dx + h S (1 - (lambda-1)/lambda S) at x.

        dS/dx comes from the finite-difference oracle, so a small
        residual certifies the closed forms independently.
        """
        x = float(x)
        if not x > 0.0:
            raise DomainError("rate residual requires x > 0")
        ds = oracle.differentiate(lambda t: self.survival(t), x, order=1).value
        s = self.survival(x)
        return ds + self.hazard_rate(x) * s * (1.0 - (self.lam - 1.0) / self.lam * s)

    # -- moments -------------------------------------------------------------------

    def _y_log_moment(self, r):
        """<Y^r> = Gamma(1+r) lambda sum_j (1-lambda)^j c^(-r) M_(k/c)(r)/Gamma(r), c = j + 1.

        E^c = kappa_exp_(k/c)(-c y) exactly, so the survival
        lambda E/(1 + (lambda-1) E) of Y, expanded in powers of
        (1-lambda) E, is a sum of Type II survivals at (c, k/c), and <Y^r>
        the same sum of their moments, at either sign of r (so of alpha)
        inside the window -1 < r < 1/kappa.  At lambda = 1 it is the
        single Type II term.  For lambda < 1 the terms are positive and are
        summed until (1-lambda)^j < 2^-60.  For 1 < lambda <= 2 they
        alternate: at r > 0 they are the moments, over t = (lambda-1) E in
        [0, 1], of the positive measure r y^(r-1) E dy, and at r < 0 they
        are j + 1 times such moments, so the accelerated sum applies; its
        30 terms agree with 30-digit quadrature to 4e-13 up to r = -0.999,
        where 20 left 1.5e-12.  Past lambda = 2, or below lambda ~ 6e-4,
        it is None, and the moment comes from quadrature.
        """
        lam, k = self.lam, self.kappa
        if lam > 1.0:
            n = _ALTERNATING.size
        else:
            n = 1.0 if lam == 1.0 else 1.0 + _SERIES_LOG_TOL // -math.log1p(-lam)
        if lam > 2.0 or n > _MAX_TERMS:
            return None
        log_head = _log_mellin_ratio(r, k)
        total = 1.0
        if lam != 1.0:  # the terms j >= 1, relative to the j = 0 one
            weights = _ALTERNATING if lam > 1.0 else np.ones(int(n))
            c = np.arange(2.0, weights.size + 1.0)
            log_rel = (c - 1.0) * math.log(abs(1.0 - lam)) - r * np.log(c)
            if k > 0.0:
                log_rel += _log_mellin_ratio(r, k / c) - log_head
            rel = weights[1:] * np.exp(log_rel)
            if lam > 1.0:
                rel[::2] *= -1.0  # the odd j
            total = lam * (weights[0] + rel.sum())
        return math.lgamma(1.0 + r) + log_head + math.log(total)

    def moment_constraint(self, at_origin):
        # pdf ~ x^(alpha - 1) where y -> 0 and x^(-1 - alpha/kappa) where y -> inf
        if (self.alpha > 0.0) == at_origin:
            return "m > -alpha" if at_origin else "m < |alpha|"
        return "m > alpha/kappa" if at_origin else "m < alpha/kappa"


class KappaLogistic(SymmetrizedDistribution):
    """Deformed Logistic on the real line: F(x) = 1/(1 + kappa_exp(-beta z)), z = x - loc.

    The even reflection of Type3(1, beta, 2, kappa) about loc; every private
    method takes z.  Its draws are the inverse transform of the generator's
    uniforms.
    """

    _draw = Distribution._draw

    def __init__(self, beta, kappa, loc=0.0):
        super().__init__(Type3(1.0, beta, 2.0, kappa))
        self.beta, self.kappa = self.half.beta, self.half.kappa
        self.loc = check_param("loc", loc, positive=False)

    def get_params(self):
        return {"beta": self.beta, "kappa": self.kappa, "loc": self.loc}

    def _on_support(self, fn, x, below):
        return super()._on_support(lambda v: fn(v - self.loc), x, below)

    def _hazard(self, z):
        # the density is beta F S/sqrt(1 + u^2), u = k beta z, so pdf/S = F/hypot(1/beta, k z):
        # E cancels, and the hazard stays finite where S underflows
        k = self.kappa
        root = np.hypot(1.0 / self.beta, k * z) if k > 0.0 else 1.0 / self.beta
        return self._cdf(z) / root

    def _quantile(self, p, upper=False):
        return self.loc + super()._quantile(p, upper)

    def check_moment_order(self, m):
        raise DomainError("moments of the full-line logistic are not provided")

    raw_moment = check_moment_order  # at every order, before the reflection's integer test

    def mode(self):
        return ModeResult(kind="interior", x=self.loc)

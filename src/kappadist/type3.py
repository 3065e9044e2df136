"""Deformed Generalized-Logistic family (Type III) and the full-line
deformed Logistic.

survival S(x) = lambda E / (1 + (lambda - 1) E) with
E = kappa_exp(-beta x^alpha); lambda = 1 collapses exactly to Type II,
which is therefore its subclass, 0 < lambda < 1 is the bosonic regime,
lambda > 1 the fermionic one.  S obeys dS/dx = -h S (1 - (lambda-1)/lambda S)
with the same h and cumulative hazard as Type II.

Everything is evaluated from log E, so 1 - E = -expm1(log E) keeps its
relative precision where E is close to 1, and the quantile inverts log E
with sinh.
"""

import math

import numpy as np

from . import oracle
from .core import _log_kexp_neg, _maybe_item, check_kappa, kappa_log
from .errors import DomainError, MomentDivergesError
from .framework import Distribution, ModeResult, PowerTransformed, check_param

__all__ = ["Type3", "KappaLogistic"]


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
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            h = self.alpha * self.beta * np.power(x, self.alpha - 1.0)
            # hypot: sqrt(1 + u^2) without overflowing u^2
            return h / np.hypot(1.0, self.kappa * self._y(x))

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

    def _y_share(self, y, upper):
        """lambda E/(1 + (lambda-1) E) above y (upper), or (1 - E)/(1 + (lambda-1) E) below."""
        log_e = _log_kexp_neg(y, self.kappa)
        e = np.exp(log_e)
        den = 1.0 + (self.lam - 1.0) * e
        return self.lam * e / den if upper else -np.expm1(log_e) / den

    def _y_log_regular(self, y):
        # pdf_Y = lambda E / (sqrt(1 + u^2) (1 + (lambda-1) E)^2), u = k y
        lam, k = self.lam, self.kappa
        log_e = _log_kexp_neg(y, k)
        # log sqrt(1 + u^2) is log cosh(a) with a = arcsinh(u) = -k log E:
        # finite where u*u would overflow
        a = -k * log_e
        log_cosh = a - np.log1p(np.tanh(a)) if k > 0.0 else 0.0
        return math.log(lam) - log_cosh + log_e - 2.0 * np.log1p((lam - 1.0) * np.exp(log_e))

    def _y_ends(self):
        k = self.kappa
        # E ~ (2 k y)^(-1/k) and sqrt(1 + u^2) ~ k y as y -> inf
        far = None if k == 0.0 else (-1.0 / k, math.log(self.lam / k) - math.log(2.0 * k) / k)
        return (1.0, -math.log(self.lam)), far

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

    # -- quantile ---------------------------------------------------------------

    def _quantile(self, p):
        """Closed form: the cdf solved for log E, then y = -ln_k(E) = sinh(-k log E)/k.

        alpha > 0: E = (1 - p)/(1 + (lambda-1) p); alpha < 0:
        E = p/(1 + (lambda-1)(1 - p)).  Each log is taken through log1p,
        so both tails keep their relative precision.
        """
        lam, k = self.lam, self.kappa
        with np.errstate(divide="ignore", over="ignore"):
            if self.alpha > 0.0:
                log_e = np.log1p(-p) - np.log1p((lam - 1.0) * p)
            else:
                log_e = np.log(p) - np.log1p((lam - 1.0) * (1.0 - p))
            y = -log_e if k == 0.0 else -np.sinh(k * log_e) / k
        return self._x(y)

    # -- moments -------------------------------------------------------------------

    def moment_constraint(self):
        return "m < alpha/kappa"

    def check_moment_order(self, m):
        r = m / self.alpha
        # r is the Mellin order of the survival integrand, whose window is
        # -1 < r < 1/kappa at either sign of m and alpha
        if not r > -1.0:
            raise MomentDivergesError("m < |alpha|", f"m/alpha = {r:g} <= -1")
        if self.kappa > 0.0 and not r < 1.0 / self.kappa:
            raise MomentDivergesError(
                self.moment_constraint() if m > 0 else "m > alpha/kappa",
                f"alpha/kappa = {self.alpha / self.kappa:g}, got m = {m:g}",
            )


class KappaLogistic(Distribution):
    """Deformed Logistic on the real line: F(x) = 1/(1 + kappa_exp(-beta x)).

    The standard position is loc = 0; loc is a constructor convenience
    shifting the whole distribution.
    """

    support_real_line = True

    def __init__(self, beta, kappa, loc=0.0):
        self.kappa = check_kappa(kappa)
        self.beta = check_param("beta", beta)
        self.loc = check_param("loc", loc, positive=False)

    def get_params(self):
        return {"beta": self.beta, "kappa": self.kappa, "loc": self.loc}

    def _cdf(self, x):
        return 1.0 / (1.0 + np.exp(_log_kexp_neg(self.beta * (x - self.loc), self.kappa)))

    def _pdf(self, x):
        # E(z) E(-z) = 1 makes the density even in z; at |z| it is 0, not
        # inf/inf, at x = -inf
        k = self.kappa
        z = np.abs(self.beta * (x - self.loc))
        e = np.exp(_log_kexp_neg(z, k))
        root = np.hypot(1.0, k * z) if k > 0.0 else 1.0  # sqrt(1 + (k z)^2)
        return self.beta * e / (root * np.square(1.0 + e))

    def quantile(self, p):
        parr = np.asarray(p, dtype=float)
        if np.any((parr <= 0.0) | (parr >= 1.0)):
            raise DomainError("quantile requires 0 < p < 1")
        return _maybe_item(self.loc + kappa_log(parr / (1.0 - parr), self.kappa) / self.beta)

    def raw_moment(self, m):
        raise DomainError("moments of the full-line logistic are not provided")

    def mode(self):
        return ModeResult(kind="interior", x=self.loc)

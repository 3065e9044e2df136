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
from .framework import Distribution, ModeResult

__all__ = ["Type3", "KappaLogistic"]


class Type3(Distribution):
    def __init__(self, alpha, beta, lam, kappa):
        self.kappa = check_kappa(kappa)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.lam = float(lam)
        if self.alpha == 0.0 or not math.isfinite(self.alpha):
            raise DomainError("alpha must be a finite nonzero real")
        if not self.beta > 0.0:
            raise DomainError("beta must be positive")
        if not self.lam > 0.0:
            raise DomainError("lambda must be positive")

    def get_params(self):
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "lam": self.lam,
            "kappa": self.kappa,
        }

    def _log_e(self, x):
        """log kappa_exp(-beta x^alpha)."""
        with np.errstate(divide="ignore", over="ignore"):
            return _log_kexp_neg(self.beta * np.power(x, self.alpha), self.kappa)

    def hazard_rate(self, x):
        """h(x) = alpha beta x^(alpha-1) / sqrt(1 + k^2 beta^2 x^(2 alpha)).

        This is the Type II hazard function for alpha > 0; for alpha < 0
        the Type II pdf is |h| kappa_exp(-beta x^alpha) but h/S is no
        longer the hazard.
        """
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            y = self.beta * np.power(x, self.alpha)
            u = self.kappa * y
            out = self.alpha * self.beta * np.power(x, self.alpha - 1.0) / np.sqrt(
                1.0 + u * u
            )
        return _maybe_item(out)

    def cum_hazard(self, x):
        """H(x) = arcsinh(kappa beta x^alpha)/kappa, Type II's; classical
        limit beta x^alpha.  For alpha < 0 it is -log survival."""
        x = np.asarray(x, dtype=float)
        out = -np.log(self._survival(x)) if self.alpha < 0.0 else -self._log_e(x)
        return _maybe_item(out)

    # -- evaluation ----------------------------------------------------------

    def _share(self, x, upper):
        """Share of y = beta x^alpha above y, lambda E/(1 + (lambda-1) E)
        (upper), or below it, (1 - E)/(1 + (lambda-1) E)."""
        log_e = self._log_e(x)
        e = np.exp(log_e)
        den = 1.0 + (self.lam - 1.0) * e
        return self.lam * e / den if upper else -np.expm1(log_e) / den

    def _cdf(self, x):
        return self._share(x, upper=self.alpha < 0.0)

    def _survival(self, x):
        return self._share(x, upper=self.alpha > 0.0)

    def _logpdf(self, x):
        # pdf = lambda |h| E / (1 + (lambda-1) E)^2
        lam, k = self.lam, self.kappa
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_e = _log_kexp_neg(self.beta * np.power(x, self.alpha), k)
            # log sqrt(1 + u^2), u = k beta x^alpha, is log cosh(a) with
            # a = arcsinh(u) = -k log E: finite where u*u would overflow
            a = -k * log_e
            log_cosh = a - np.log1p(np.tanh(a)) if k > 0.0 else 0.0
            out = (
                math.log(lam * abs(self.alpha) * self.beta)
                + (self.alpha - 1.0) * np.log(x)
                - log_cosh
                + log_e
                - 2.0 * np.log1p((lam - 1.0) * np.exp(log_e))
            )
        # the pdf vanishes as x -> inf, where the terms above read inf - inf
        return np.where(x == 0.0, self._logpdf_at_origin(), np.where(x == np.inf, -np.inf, out))

    def _logpdf_at_origin(self):
        a, k = self.alpha, self.kappa
        if a > 1.0:
            return -math.inf
        if a == 1.0:
            return math.log(self.beta / self.lam)
        if a > 0.0:
            return math.inf
        # alpha < 0: pdf ~ lambda (|alpha|/k)(2 k beta)^(-1/k) x^(|alpha|/k - 1)
        if k == 0.0:
            return -math.inf  # essential zero e^(-beta/x^|alpha|)
        e0 = abs(a) / k - 1.0
        if e0 > 0.0:
            return -math.inf
        if e0 < 0.0:
            return math.inf
        return math.log(self.lam * abs(a) / k) - (1.0 / k) * math.log(2.0 * k * self.beta)

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
            return np.power(y / self.beta, 1.0 / self.alpha)

    def _quantile_scale(self):
        return self.beta ** (-1.0 / self.alpha)

    # -- moments -------------------------------------------------------------------

    def moment_constraint(self):
        return "m < alpha/kappa"

    def check_moment_order(self, m):
        r = m / self.alpha
        # r is the Mellin order of the survival integrand; the integral
        # near 0 additionally needs r > -1 (only binding for alpha < 0)
        if not r > -1.0:
            raise MomentDivergesError("m < |alpha|", f"m/alpha = {r:g} <= -1")
        if m > 0 and self.kappa > 0.0 and not r < 1.0 / self.kappa:
            raise MomentDivergesError(
                self.moment_constraint(),
                f"alpha/kappa = {self.alpha / self.kappa:g}, got m = {m:g}",
            )

    def _pdf_tail_power(self):
        if self.alpha > 0.0:
            return None if self.kappa == 0.0 else 1.0 + self.alpha / self.kappa
        return 1.0 + abs(self.alpha)

    def _pdf_singular_power(self):
        if self.alpha > 0.0:
            return self.alpha - 1.0
        if self.kappa > 0.0:
            return abs(self.alpha) / self.kappa - 1.0
        return None

    # -- shape ------------------------------------------------------------------------

    def mode(self):
        a = self.alpha
        if a == 1.0 and self.lam >= 1.0:
            return ModeResult(kind="monotone", pdf_at_origin=self.beta / self.lam)
        if 0.0 < a < 1.0:
            return ModeResult(kind="pole", pdf_at_origin=math.inf)
        return super().mode()


class KappaLogistic(Distribution):
    """Deformed Logistic on the real line: F(x) = 1/(1 + kappa_exp(-beta x)).

    The standard position is loc = 0; loc is a constructor convenience
    shifting the whole distribution.
    """

    support_real_line = True

    def __init__(self, beta, kappa, loc=0.0):
        self.kappa = check_kappa(kappa)
        self.beta = float(beta)
        self.loc = float(loc)
        if not self.beta > 0.0:
            raise DomainError("beta must be positive")

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

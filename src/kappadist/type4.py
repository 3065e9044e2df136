"""Type IV: cdf (2 kappa beta)^(1/kappa) x^(alpha/kappa) kappa_exp(-beta x^alpha).

This family is genuinely anchored to kappa > 0: both cdf and pdf
collapse to zero in the classical limit, so small kappa is rejected at
construction instead of silently producing a point mass at infinity.

Everything is evaluated through log cdf = (1/k) log(1 - r^2) with
u = k beta x^alpha and r = 1/(u + sqrt(1 + u^2)), which is exact at both
ends of the support; the same identity inverts the cdf in closed form.
"""

import math

import numpy as np
from scipy.special import gammaln

from .core import check_kappa
from .errors import DegenerateFamilyError, DomainError, MomentDivergesError
from .framework import Distribution

__all__ = ["Type4"]

_KAPPA_FLOOR = 1e-3


class Type4(Distribution):
    def __init__(self, alpha, beta, kappa):
        self.kappa = check_kappa(kappa)
        if self.kappa < _KAPPA_FLOOR:
            raise DegenerateFamilyError(
                f"Type IV degenerates as kappa -> 0; requires kappa >= {_KAPPA_FLOOR:g}"
            )
        self.alpha = float(alpha)
        self.beta = float(beta)
        if not self.alpha > 0.0:
            raise DomainError("alpha must be positive")
        if not self.beta > 0.0:
            raise DomainError("beta must be positive")

    def get_params(self):
        return {"alpha": self.alpha, "beta": self.beta, "kappa": self.kappa}

    def _log_terms(self, x):
        """r = 1/(u + sqrt(1 + u^2)) with u = k beta x^alpha, and log cdf.

        P^k = 2u r = 1 - r^2: log(2 u r) below u = 1, and log1p(-r^2)
        above it, where log(2u) - asinh(u) would cancel.  Each element
        takes one of the two forms.
        """
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            u = self.kappa * self.beta * np.power(x, self.alpha)
            r = 1.0 / (np.sqrt(1.0 + u * u) + u)
            far = u >= 1.0
            log_pk = np.log(2.0 * u * r, where=~far, out=np.empty_like(u))
            np.log1p(-np.square(r), where=far, out=log_pk)
        return r, log_pk / self.kappa

    def _cdf(self, x):
        return np.exp(self._log_terms(x)[1])

    def _survival(self, x):
        return -np.expm1(self._log_terms(x)[1])

    def _logpdf(self, x):
        r, log_cdf = self._log_terms(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            # pdf = (alpha/k) (P/x) (1 - u/sqrt(1+u^2)), and with
            # sqrt(1+u^2) = (1/r + r)/2 the bracket is 2 r^2/(1 + r^2)
            out = (
                math.log(2.0 * self.alpha / self.kappa)
                - np.log(x)
                + log_cdf
                + 2.0 * np.log(r)
                - np.log1p(r * r)
            )
        return np.where(x == 0.0, -np.inf, out)

    def moment_constraint(self):
        return "m < 2*alpha"

    def check_moment_order(self, m):
        if m < 0:
            raise MomentDivergesError("m >= 0", f"got m = {m}")
        if m > 0 and not m < 2.0 * self.alpha:
            raise MomentDivergesError(
                self.moment_constraint(), f"2*alpha = {2.0 * self.alpha:g}, got m = {m:g}"
            )

    def raw_moment(self, m):
        self.check_moment_order(m)
        if m == 0:
            return 1.0
        a, k, b = self.alpha, self.kappa, self.beta
        r = m / a
        return (
            (2.0 * k * b) ** (-r)
            / (1.0 + 0.5 * k * r)
            * math.exp(
                gammaln(1.0 / k + r) + gammaln(1.0 - 0.5 * r) - gammaln(1.0 / k + 0.5 * r)
            )
        )

    def _quantile_scale(self):
        return self.beta ** (-1.0 / self.alpha)

    def _pdf_tail_power(self):
        return 1.0 + 2.0 * self.alpha

    def _pdf_singular_power(self):
        return self.alpha / self.kappa - 1.0

    def _quantile(self, p):
        """Exact inverse: with c = p^k = 1 - r^2, r = sqrt(-expm1(k log p))
        and u = (1/r - r)/2 = c/(2r), the form that keeps both tails exact;
        then x = (u/(k beta))^(1/alpha)."""
        k = self.kappa
        with np.errstate(divide="ignore"):
            log_c = k * np.log(p)
        u = np.exp(log_c) / (2.0 * np.sqrt(-np.expm1(log_c)))
        return np.power(u / (k * self.beta), 1.0 / self.alpha)

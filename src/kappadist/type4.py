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
from .framework import PowerTransformed

__all__ = ["Type4"]

_KAPPA_FLOOR = 1e-3


class Type4(PowerTransformed):
    def __init__(self, alpha, beta, kappa):
        if check_kappa(kappa) < _KAPPA_FLOOR:
            raise DegenerateFamilyError(
                f"Type IV degenerates as kappa -> 0; requires kappa >= {_KAPPA_FLOOR:g}"
            )
        super().__init__(alpha, beta, kappa)
        if not self.alpha > 0.0:
            raise DomainError("alpha must be positive")

    def get_params(self):
        return {"alpha": self.alpha, "beta": self.beta, "kappa": self.kappa}

    def _log_terms(self, y):
        """r = 1/(u + sqrt(1 + u^2)) with u = k y, and log cdf.

        P^k = 2u r = 1 - r^2: log(2 u r) below u = 1, and log1p(-r^2)
        above it, where log(2u) - asinh(u) would cancel.  Each element
        takes one of the two forms.
        """
        u = self.kappa * y
        r = 1.0 / (np.sqrt(1.0 + u * u) + u)
        far = u >= 1.0
        log_pk = np.log(2.0 * u * r, where=~far, out=np.empty_like(u))
        np.log1p(-np.square(r), where=far, out=log_pk)
        return r, log_pk / self.kappa

    # -- the law of y = beta x^alpha, with cdf P --------------------------------

    _y_power = 0.0

    def _y_share(self, y, upper):
        log_cdf = self._log_terms(y)[1]
        return -np.expm1(log_cdf) if upper else np.exp(log_cdf)

    def _y_log_regular(self, y):
        # y pdf_Y = (1/k) P (1 - u/sqrt(1+u^2)), and with
        # sqrt(1+u^2) = (1/r + r)/2 the bracket is 2 r^2/(1 + r^2)
        r, log_cdf = self._log_terms(y)
        return math.log(2.0 / self.kappa) + log_cdf + 2.0 * np.log(r) - np.log1p(r * r)

    def _y_ends(self):
        # y pdf_Y ~ (2 k y)^(1/k)/k as y -> 0 and 1/(2 k^3 y^2) as y -> inf
        k = self.kappa
        return (1.0 / k, math.log(2.0 * k) / k - math.log(k)), (-2.0, -math.log(2.0 * k**3))

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

    def _quantile(self, p):
        """Exact inverse: with c = p^k = 1 - r^2, r = sqrt(-expm1(k log p))
        and u = (1/r - r)/2 = c/(2r), the form that keeps both tails exact;
        then y = u/k."""
        k = self.kappa
        with np.errstate(divide="ignore"):
            log_c = k * np.log(p)
        u = np.exp(log_c) / (2.0 * np.sqrt(-np.expm1(log_c)))
        return self._x(u / k)

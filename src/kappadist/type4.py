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

from .core import check_kappa
from .errors import DegenerateFamilyError, DomainError
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
        r = 1.0 / (np.hypot(1.0, u) + u)  # sqrt(1 + u^2) without overflowing u^2
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

    def _y_slope(self, log_y):
        # S = (1 - tau)/k - tau - tau^2 from log P and log(1 - tau), tau = u/h,
        # h = sqrt(1 + u^2); 1 - tau = 1/(h (h + u)) keeps its digits at tau -> 1
        k = self.kappa
        u = k * math.exp(log_y)
        h = math.hypot(1.0, u)
        tau, tau_c = u / h, 1.0 / (h * (h + u))
        return tau_c / k - tau * (1.0 + tau), -tau * tau_c * (1.0 + tau) * (1.0 / k + 1.0 + 2.0 * tau)

    def _y_ends(self):
        # y pdf_Y ~ (2 k y)^(1/k)/k as y -> 0 and 1/(2 k^3 y^2) as y -> inf
        k = self.kappa
        return (1.0, k, math.log(2.0 * k) / k - math.log(k)), (-2.0, 1.0, -math.log(2.0 * k**3))

    def moment_constraint(self, at_origin):
        return "m > -alpha/kappa" if at_origin else "m < 2*alpha"

    def _y_log_moment(self, r):
        # <Y^r> = (2k)^-r Gamma(1/k + r) Gamma(1 - r/2) / ((1 + k r/2) Gamma(1/k + r/2))
        k = self.kappa
        return (
            math.lgamma(1.0 / k + r) + math.lgamma(1.0 - 0.5 * r) - math.lgamma(1.0 / k + 0.5 * r)
            - r * math.log(2.0 * k) - math.log1p(0.5 * k * r)
        )

    def _y_invert(self, share, upper):
        """Exact inverse: with c = P^k = 1 - r^2 for the cdf P (1 - share
        above y), r = sqrt(-expm1(k log P)) and u = (1/r - r)/2 = c/(2r),
        the form that keeps both tails exact; then y = u/k."""
        k = self.kappa
        log_c = k * (np.log1p(-share) if upper else np.log(share))
        u = np.exp(log_c) / (2.0 * np.sqrt(-np.expm1(log_c)))
        return u / k

"""Deformed Weibull family (Type II): survival kappa_exp(-beta x^alpha).

Type II is Type III at lambda = 1 and inherits its cdf, survival,
density, hazard rate, cumulative hazard (arcsinh form) and closed-form
quantile.  What needs lambda = 1 lives here: the closed hazard, moments
through the Mellin transform (either sign of alpha), Gini, Lorenz
(alpha = 1) and mode.
alpha < 0 turns the cdf expression into the survival function.
"""

import math

import numpy as np

from .core import _log_mellin_ratio, _maybe_item
from .errors import DomainError, MomentDivergesError
from .framework import ModeResult
from .type3 import Type3

__all__ = ["Type2"]


class Type2(Type3):
    def __init__(self, alpha, beta, kappa):
        super().__init__(alpha, beta, 1.0, kappa)

    def get_params(self):
        return {"alpha": self.alpha, "beta": self.beta, "kappa": self.kappa}

    def hazard(self, x):
        if self.alpha < 0.0:
            return super().hazard(x)
        return self.hazard_rate(x)

    # -- moments -------------------------------------------------------------------

    def raw_moment(self, m):
        """<x^m> = Gamma(1+r) beta^(-r) M_k(r)/Gamma(r), r = m/alpha.

        Y = beta x^alpha has survival (alpha > 0) or cdf (alpha < 0)
        kappa_exp(-y), so <x^m> = beta^(-r) <Y^r>, and <Y^r> is the Mellin
        transform of the Type II_1 density, r M_k(r), continued to every
        r > -1 of the window, either sign of alpha.
        """
        self.check_moment_order(m)
        r = m / self.alpha
        return math.exp(
            math.lgamma(1.0 + r) - r * math.log(self.beta) + _log_mellin_ratio(r, self.kappa)
        )

    # -- inequality statistics -----------------------------------------------------

    def gini(self):
        """Closed-form Gini coefficient 1 - <min(X1, X2)>/<x>; needs the mean (alpha > kappa).

        min(X1, X2) has survival E^2 = kappa_exp_(k/2)(-2 beta x^alpha), the
        Type II law at (2 beta, k/2), so with r = 1/alpha the ratio of the
        means is 2^-r M_(k/2)(r)/M_k(r).
        """
        a, k = self.alpha, self.kappa
        if a < 0.0:
            raise DomainError("Gini closed form requires alpha > 0")
        if k > 0.0 and not a > k:
            raise MomentDivergesError("m < alpha/kappa", "Gini needs the mean: alpha > kappa")
        r = 1.0 / a
        return -math.expm1(
            _log_mellin_ratio(r, 0.5 * k) - _log_mellin_ratio(r, k) - r * math.log(2.0)
        )

    def lorenz(self, p):
        """Closed Lorenz curve, available for alpha = 1 only.

        L(P) = 1 - (1-P) [cosh(k s) - sinh(k s)/k], s = log(1-P); this is
        the cancellation-free form of
        1 + (1-k)/(2k) (1-P)^(1+k) - (1+k)/(2k) (1-P)^(1-k).
        """
        if self.alpha != 1.0:
            raise DomainError("closed Lorenz curve requires alpha = 1")
        parr = np.asarray(p, dtype=float)
        if np.any((parr < 0.0) | (parr > 1.0)):
            raise DomainError("Lorenz requires 0 <= p <= 1")
        k = self.kappa
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.log1p(-parr)
            if k == 0.0:
                body = 1.0 - s
            else:
                body = np.cosh(k * s) - np.sinh(k * s) / k
            out = 1.0 - (1.0 - parr) * body
        out = np.where(parr == 1.0, 1.0, out)
        return _maybe_item(np.where(parr == 0.0, 0.0, out))

    # -- shape ------------------------------------------------------------------------

    def mode(self):
        a, b, k = self.alpha, self.beta, self.kappa
        if not a > 1.0:
            return super().mode()  # markers at alpha <= 1, numeric argmax for alpha < 0
        if k == 0.0:
            x = b ** (-1.0 / a) * ((a - 1.0) / a) ** (1.0 / a)
            return ModeResult(kind="interior", x=x)
        big = (a * a + 2.0 * k * k * (a - 1.0)) / (2.0 * k * k * (a * a - k * k))
        r = 4.0 * k * k * (a * a - k * k) * (a - 1.0) ** 2 / (
            a * a + 2.0 * k * k * (a - 1.0)
        ) ** 2
        # sqrt(1+r) - 1 without cancellation
        inner = r / (math.sqrt(1.0 + r) + 1.0)
        x = b ** (-1.0 / a) * (big * inner) ** (0.5 / a)
        return ModeResult(kind="interior", x=x)

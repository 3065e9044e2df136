"""Deformed Weibull family (Type II): survival kappa_exp(-beta x^alpha).

Type II is Type III at lambda = 1 and inherits its cdf, survival,
density, hazard rate, cumulative hazard (arcsinh form) and closed-form
quantile.  What needs lambda = 1 lives here: the closed hazard, moments
through the Mellin transform, Gini, Lorenz (alpha = 1) and mode.
alpha < 0 turns the cdf expression into the survival function.
"""

import math

import numpy as np
from scipy.special import gammaln

from .core import _maybe_item, log_mellin_kappa
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
        r = m / self.alpha
        if not r > 0.0:
            return super().raw_moment(m)
        self.check_moment_order(m)
        # <x^m> = (m/alpha) beta^(-m/alpha) M_kappa(m/alpha)
        return r * math.exp(-r * math.log(self.beta) + log_mellin_kappa(r, self.kappa))

    # -- inequality statistics -----------------------------------------------------

    def gini(self):
        """Closed-form Gini coefficient; needs a finite first moment (alpha > kappa)."""
        a, k = self.alpha, self.kappa
        if a < 0.0:
            raise DomainError("Gini closed form requires alpha > 0")
        if k == 0.0:
            return 1.0 - 2.0 ** (-1.0 / a)
        if not a > k:
            raise MomentDivergesError("m < alpha/kappa", "Gini needs the mean: alpha > kappa")
        c = 0.5 / a
        term = math.exp(
            gammaln(1.0 / k - c)
            - gammaln(1.0 / k + c)
            + gammaln(0.5 / k + c)
            - gammaln(0.5 / k - c)
        )
        return 1.0 - (a + k) / (a + 0.5 * k) * term

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

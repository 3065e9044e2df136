"""Deformed Weibull family (Type II): survival kappa_exp(-beta x^alpha).

Type II is Type III at lambda = 1 and inherits its cdf, survival,
density, hazard (the closed hazard rate itself for alpha > 0), cumulative
hazard (arcsinh form), closed-form quantile, mode (the root of the
log-density slope, for either sign of alpha) and moments, whose series
has the single Mellin term Gamma(1+r) beta^(-r) M_k(r)/Gamma(r),
r = m/alpha, here (either sign of alpha).  What needs lambda = 1 lives
here: Gini and Lorenz (alpha = 1).  alpha < 0 turns the cdf expression
into the survival function.
"""

import math

import numpy as np

from .core import _log_mellin_ratio, _maybe_item, _sinh_k
from .errors import DomainError
from .type3 import Type3

__all__ = ["Type2"]


class Type2(Type3):
    def __init__(self, alpha, beta, kappa):
        super().__init__(alpha, beta, 1.0, kappa)

    def get_params(self):
        return {"alpha": self.alpha, "beta": self.beta, "kappa": self.kappa}

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
        self.check_moment_order(1)  # the mean: alpha > kappa
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
            body = np.cosh(k * s) - _sinh_k(s, k)
            out = 1.0 - (1.0 - parr) * body
        out = np.where(parr == 1.0, 1.0, out)
        return _maybe_item(np.where(parr == 0.0, 0.0, out))

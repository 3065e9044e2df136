"""Type V: distributions generated by successive derivatives of the
Type I_1 density (the deformed exponential pdf).

P(n, x) = 1 - g^(n-1)(x)/g^(n-1)(0) with generatrix
g(x) = (1 - k^2) beta kappa_exp(-beta x).  Orders n = 1, 2, 3 are
implemented from their closed forms (n = 1 is exactly Type II_1);
higher orders would need symbolic derivatives of kappa_exp and are
rejected by design.

The survival functions S_n = g^(n-1)/g^(n-1)(0) form a ladder: the
density of order n is beta times the survival of order n + 1, so one
log-survival routine for orders 1-4 gives the cdf, the survival and the
density.  The moments come from the Mellin transform of g^(n):
<x^m> = Gamma(1+m) beta^(-m) M_k(m+1-n)/Gamma(m+1-n) on the whole
window m < n - 1 + 1/kappa, which is m!/beta^m for integer m <= n - 1.
"""

import math

import numpy as np

from .core import _log_kexp_neg, _log_mellin_ratio, check_kappa
from .errors import DomainError, MomentDivergesError, UnsupportedOrderError
from .framework import Distribution, ModeResult, check_param

__all__ = ["Type5"]


class Type5(Distribution):
    def __init__(self, n, beta, kappa):
        self.kappa = check_kappa(kappa)
        n = int(n)
        if n not in (1, 2, 3):
            raise UnsupportedOrderError(
                f"Type V implements orders n in {{1, 2, 3}}, got n = {n}"
            )
        self.n = n
        self.beta = check_param("beta", beta)

    def get_params(self):
        return {"n": self.n, "beta": self.beta, "kappa": self.kappa}

    def _log_survival(self, x, order):
        """log of the order-th survival function of the ladder.

        S_1 = E = kappa_exp(-z), z = beta x, and each next order is the
        derivative of the one before, up to sign and scale:
        log S = log E - ((order-1)/2) log(1 + u^2) + log P(t), u = k z,
        t = u/sqrt(1 + u^2) = tanh(a), a = arcsinh(u) = -k log E, with
        P = 1, 1, 1 + k t and 1 - k^2 + 3 k t (1 + k t) for orders 1 to 4;
        the order-4 member is beta^-1 times the order-3 density.  Every
        term keeps its relative precision, so the cdf -expm1(log S) stays
        exact near the origin, and log sqrt(1 + u^2) = a - log1p(t) stays
        finite where u*u overflows.
        """
        k = self.kappa
        log_e = _log_kexp_neg(self.beta * x, k)
        if order == 1 or k == 0.0:
            return log_e  # the u = k z terms vanish (k log E is NaN at k = 0, x = inf)
        a = -k * log_e
        t = np.tanh(a)
        out = log_e - (order - 1) * (a - np.log1p(t))
        if order == 3:
            out += np.log1p(k * t)
        elif order == 4:
            out += np.log(1.0 - k * k + 3.0 * k * t * (1.0 + k * t))
        return out

    def _survival(self, x):
        return np.exp(self._log_survival(x, self.n))

    def _cdf(self, x):
        return np.clip(-np.expm1(self._log_survival(x, self.n)), 0.0, 1.0)

    def _logpdf(self, x):
        # pdf_n = -dS_n/dx = beta S_(n+1)
        return math.log(self.beta) + self._log_survival(x, self.n + 1)

    def tail_exponent(self):
        """pdf ~ x^(-n - 1/kappa) for x -> inf."""
        if self.kappa == 0.0:
            raise DomainError("no power-law tail in classical limit (kappa = 0)")
        return -self.n - 1.0 / self.kappa

    def moment_constraint(self):
        return "m < n - 1 + 1/kappa"

    def check_moment_order(self, m):
        if m < 0:
            raise MomentDivergesError("m >= 0", f"got m = {m}")
        if self.kappa > 0.0 and not m < self.n - 1.0 + 1.0 / self.kappa:
            raise MomentDivergesError(
                self.moment_constraint(),
                f"n - 1 + 1/kappa = {self.n - 1.0 + 1.0 / self.kappa:g}, got m = {m:g}",
            )

    def raw_moment(self, m):
        """<x^m> = Gamma(1+m) beta^(-m) M_k(m+1-n)/Gamma(m+1-n).

        The Mellin transform of g^(n) is (-1)^n Gamma(s)/Gamma(s-n) times
        that of g at s - n; at s = m + 1 it gives this closed form over the
        whole window m < n - 1 + 1/kappa.  For integer m <= n - 1 the
        ratio is 1 and <x^m> = m!/beta^m.
        """
        self.check_moment_order(m)
        return math.exp(
            math.lgamma(1.0 + m)
            - m * math.log(self.beta)
            + _log_mellin_ratio(m + 1.0 - self.n, self.kappa)
        )

    def _quantile_scale(self):
        return 1.0 / self.beta

    def _pdf_tail_power(self):
        return None if self.kappa == 0.0 else self.n + 1.0 / self.kappa

    def mode(self):
        # pdf'(0) is -beta^2 (n = 1), beta^2 (k^2 - 1) (n = 2) and
        # beta^2 (4 k^2 - 1) (n = 3); the deformation cannot create a
        # stationary point once the density starts falling
        if self.n < 3 or self.kappa < 0.5:
            return ModeResult(kind="monotone", pdf_at_origin=self.pdf(0.0))
        return super().mode()

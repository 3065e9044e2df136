"""Type V: distributions generated by successive derivatives of the
Type I_1 density (the deformed exponential pdf).

P(n, x) = 1 - g^(n-1)(x)/g^(n-1)(0) with generatrix
g(x) = (1 - k^2) beta kappa_exp(-beta x).  Orders n = 1, 2, 3 are
implemented from their closed forms (n = 1 is exactly Type II_1);
higher orders would need symbolic derivatives of kappa_exp and are
rejected by design.

The derivative identity <x^m> = (-1)^m m! g^(n-1-m)(0)/g^(n-1)(0)
(0 <= m <= n-1) collapses to m!/beta^m because the first three
derivatives of kappa_exp at 0 all equal 1.
"""

import math

import numpy as np

from . import oracle
from .core import _log_kexp_neg, check_kappa
from .errors import (
    DomainError,
    MomentDivergesError,
    UnsupportedOrderError,
    VarianceDivergesError,
)
from .framework import Distribution, ModeResult

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
        self.beta = float(beta)
        if not self.beta > 0.0:
            raise DomainError("beta must be positive")

    def get_params(self):
        return {"n": self.n, "beta": self.beta, "kappa": self.kappa}

    def generatrix_derivative_at_zero(self, order):
        """g^(order)(0) for the Type I_1 generatrix; exact rational in kappa."""
        if order not in (0, 1, 2):
            raise UnsupportedOrderError("derivatives at 0 tabulated for order <= 2")
        k, b = self.kappa, self.beta
        return (1.0 - k * k) * b * (-b) ** order

    def _log_survival(self, x):
        """log survival, summed from terms that each keep relative precision,
        so the cdf -expm1(log survival) stays exact near the origin."""
        k = self.kappa
        z = self.beta * x
        log_e = _log_kexp_neg(z, k)
        if self.n == 1 or k == 0.0:
            return log_e  # the u = k z terms vanish (k z is NaN at k = 0, z = inf)
        u = k * z
        with np.errstate(over="ignore"):
            log_g = np.log1p(u * u)  # g = 1 + u^2
        if self.n == 2:
            return log_e - 0.5 * log_g
        # 1/g + k u/g^(3/2) = (1 + k u/sqrt(g))/g, and u/sqrt(g) =
        # tanh(arcsinh(u)) = tanh(-k log_e) stays finite at u = inf
        return log_e - log_g + np.log1p(k * np.tanh(-k * log_e))

    def _survival(self, x):
        return np.exp(self._log_survival(x))

    def _cdf(self, x):
        return np.clip(-np.expm1(self._log_survival(x)), 0.0, 1.0)

    def _pdf(self, x):
        k, b = self.kappa, self.beta
        z = b * x
        u = k * z
        g = 1.0 + u * u
        if self.n == 1:
            body = 1.0 / np.sqrt(g)
        elif self.n == 2:
            body = 1.0 / g + k * u / np.power(g, 1.5)
        else:
            body = (
                (1.0 - k * k) / np.power(g, 1.5)
                + 3.0 * k * u / np.square(g)
                + 3.0 * k * k * u * u / np.power(g, 2.5)
            )
        return b * np.exp(_log_kexp_neg(z, k)) * body

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
        self.check_moment_order(m)
        if float(m).is_integer() and 0 <= m <= self.n - 1:
            # derivative identity: (-1)^m m! g^(n-1-m)(0)/g^(n-1)(0)
            mi = int(m)
            num = self.generatrix_derivative_at_zero(self.n - 1 - mi)
            den = self.generatrix_derivative_at_zero(self.n - 1)
            return (-1.0) ** mi * math.factorial(mi) * num / den
        return self._moment_by_quadrature(m)

    def mean(self):
        if self.n == 1:
            return 1.0 / (self.beta * (1.0 - self.kappa**2))
        return 1.0 / self.beta

    def variance(self):
        k, b = self.kappa, self.beta
        if self.n == 1:
            if not k < 0.5:
                raise VarianceDivergesError(
                    "m < 1/kappa", "order-1 variance needs kappa < 1/2"
                )
            return (1.0 + 2.0 * k**4) / ((1.0 - 4.0 * k * k) * (1.0 - k * k) ** 2) / b**2
        if self.n == 2:
            return (1.0 + k * k) / (1.0 - k * k) / b**2
        return 1.0 / b**2

    def _quantile_scale(self):
        return 1.0 / self.beta

    def _pdf_tail_power(self):
        return None if self.kappa == 0.0 else self.n + 1.0 / self.kappa

    def _pdf_slope_at_origin(self):
        """Sign-exact derivative of the pdf at x = 0."""
        b, k = self.beta, self.kappa
        if self.n == 1:
            return -b * b
        if self.n == 2:
            return b * b * (k * k - 1.0)
        return b * b * (4.0 * k * k - 1.0)

    def mode(self):
        origin = self.beta * (1.0 - self.kappa**2 if self.n == 3 else 1.0)
        if self._pdf_slope_at_origin() < 0.0:
            # decreasing at the origin; the deformation cannot create a
            # second stationary point once the density starts falling
            return ModeResult(kind="monotone", pdf_at_origin=origin)
        hi = self.quantile(1.0 - 1e-9)
        x = oracle.argmax(self.pdf, 0.0, hi, tol=1e-12)
        return ModeResult(kind="interior", x=x)

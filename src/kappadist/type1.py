"""Deformed Generalized-Gamma family (Type I), its closed-form Erlang
subfamily, and the deformed Normal built from the half-normal case.

pdf:  N x^(alpha nu - 1) kappa_exp(-beta x^alpha),
      N = |alpha| beta^nu / M_kappa(nu).

The cdf follows exactly from the same change of variables that produces
the Mellin closed form: with s = (sqrt(1 + k^2 y^2) - k y)^2 and
y = beta x^alpha, the survival fraction is a two-component mixture of
regularized incomplete Beta functions

    1 - G(y) = w1 I_s(a, nu) + w2 I_s(a+1, nu),
    a = 1/(2k) - nu/2,  w1 = (a+nu)/(2a+nu),  w2 = a/(2a+nu),

(core._gamma_share; at integral nu <= 64 a finite sum of positive terms),
so no quadrature is needed at evaluation time,
and s is drawn exactly from the matching Beta mixture
(core._gamma_share_log_draw; at integral nu <= 9 from nu exponentials,
else from two Gamma draws), so sampling needs no quantile.  Type1
writes only this law of y; framework.PowerTransformed maps it to x, for
either sign of alpha (alpha < 0 is the inverse-variable construction).
"""

import math

import numpy as np

from .core import (
    _TINY,
    _gamma_share,
    _gamma_share_log_draw,
    _log_kexp_neg,
    check_kappa,
    log_mellin_kappa,
)
from .errors import DomainError
from .framework import PowerTransformed, SymmetrizedDistribution, as_integer, check_param

__all__ = ["Type1", "ErlangPolynomials", "erlang_polynomials", "KappaErlang", "KappaNormal"]

class Type1(PowerTransformed):
    """Deformed Generalized Gamma on x >= 0.

    alpha != 0 (negative allowed: inverse-variable variant), beta > 0,
    0 < nu < 1/kappa.  Y = beta X^alpha has the density
    y^(nu-1) kappa_exp(-y)/M_kappa(nu).
    """

    def __init__(self, alpha, beta, nu, kappa):
        super().__init__(alpha, beta, kappa)
        self.nu = check_param("nu", nu)
        if self.kappa > 0.0 and not self.nu < 1.0 / self.kappa:
            raise DomainError(
                f"requires nu < 1/kappa = {1.0 / self.kappa:g}, got nu = {self.nu:g}"
            )
        self._log_mellin_nu = log_mellin_kappa(self.nu, self.kappa)
        self._y_power = self.nu

    def get_params(self):
        return {"alpha": self.alpha, "beta": self.beta, "nu": self.nu, "kappa": self.kappa}

    def norm_constant(self):
        """|N|: prefactor of the pdf."""
        return math.exp(
            math.log(abs(self.alpha)) + self.nu * math.log(self.beta) - self._log_mellin_nu
        )

    # -- the law of y = beta x^alpha -------------------------------------------

    def _y_log_regular(self, y):
        return _log_kexp_neg(y, self.kappa) - self._log_mellin_nu

    def _y_ends(self):
        k, log_c = self.kappa, -self._log_mellin_nu
        # kappa_exp(-y) ~ (2 k y)^(-1/k) as y -> inf, a power past every
        # float power below the smallest normal k
        far = None if k < _TINY else (self.nu - 1.0 / k, 1.0, log_c - math.log(2.0 * k) / k)
        return (self.nu, 1.0, log_c), far

    def _y_slope(self, log_y):
        # d log kappa_exp(-y)/d log y = -v, v = y/sqrt(1 + k^2 y^2)
        y = math.exp(log_y)
        h = math.hypot(1.0, self.kappa * y)
        return self.nu - y / h, -y / (h * h * h)

    def _y_share(self, y, upper):
        return _gamma_share(y, self.nu, self.kappa, upper)

    def _y_log_draw(self, gen, size):
        return _gamma_share_log_draw(gen, size, self.nu, self.kappa)

    # -- moments --------------------------------------------------------------

    def moment_constraint(self, at_origin):
        return "0 < nu + m/alpha < 1/kappa"

    def _y_log_moment(self, r):
        return log_mellin_kappa(self.nu + r, self.kappa) - self._log_mellin_nu

# --------------------------------------------------------------------------
# Erlang subfamily: alpha = 1, nu = n integer; the paper's closed polynomial cdf
# --------------------------------------------------------------------------


class ErlangPolynomials:
    """Coefficients realizing the closed Erlang-type cdf

        P(x) = 1 - [R(x) + Q(x) sqrt(1 + k^2 x^2)] kappa_exp(-x)

    for the unit-scale pdf N x^(n-1) kappa_exp(-x).  R = N * sum c_m x^m
    (c stored without the N factor); Q's coefficients q already include N.
    """

    def __init__(self, n, kappa, norm, c, q):
        self.n = n
        self.kappa = kappa
        self.norm = norm
        self.c = np.asarray(c, dtype=float)
        self.q = np.asarray(q, dtype=float)
        self.c.setflags(write=False)
        self.q.setflags(write=False)

    def r_value(self, x):
        return self.norm * np.polynomial.polynomial.polyval(x, self.c)

    def q_value(self, x):
        return np.polynomial.polynomial.polyval(x, self.q)


def erlang_polynomials(n, kappa):
    """Build the (R, Q) coefficient vectors for order n.

    c_n = n k^2/(1 - n^2 k^2), c_(n-1) = 0,
    c_(n-2) = (n-1)/((1 - n^2 k^2)(1 - (n-2)^2 k^2)),
    c_m = (m+1)(m+2)/(1 - m^2 k^2) c_(m+2) for m <= n-3;
    q_m = N (m+1) c_(m+1) for m <= n-2 and q_(n-1) = N/(1 - n^2 k^2).
    """
    k = check_kappa(kappa)
    order = as_integer(n)
    if order is None or order < 1:
        raise DomainError(f"order n must be an integer >= 1, got {n!r}")
    n = order
    if k > 0.0 and not n * k < 1.0:
        raise DomainError(f"requires n*kappa < 1, got n*kappa = {n * k:g}")
    for m in range(n + 1):
        if abs(1.0 - (m * k) ** 2) < 1e-12:
            raise DomainError(
                f"ill-conditioned coefficients: kappa within 1e-12 of pole 1/{m}"
            )
    norm = 1.0
    for m in range(n + 1):
        norm *= 1.0 + (2 * m - n) * k
    norm /= math.factorial(n - 1)

    c = np.zeros(n + 1)
    c[n] = n * k * k / (1.0 - (n * k) ** 2)
    if n >= 2:
        c[n - 2] = (n - 1) / ((1.0 - (n * k) ** 2) * (1.0 - ((n - 2) * k) ** 2))
    for m in range(n - 3, -1, -1):
        c[m] = (m + 1) * (m + 2) / (1.0 - (m * k) ** 2) * c[m + 2]

    q = np.zeros(n)
    for m in range(n - 1):
        q[m] = norm * (m + 1) * c[m + 1]
    q[n - 1] = norm / (1.0 - (n * k) ** 2)
    return ErlangPolynomials(n=n, kappa=k, norm=norm, c=c, q=q)


class KappaErlang(Type1):
    """Type I with alpha = 1 and integer nu = n: the Erlang subfamily, whose cdf
    1 - [R + Q sqrt(1 + k^2 z^2)] kappa_exp(-z), z = beta x, is the paper's
    closed form (erlang_polynomials); Type1's finite-sum share evaluates it to n = 64."""

    def __init__(self, n, beta, kappa):
        self.n = as_integer(n)
        if self.n is None or self.n < 1:
            raise DomainError(f"order n must be an integer >= 1, got {n!r}")
        super().__init__(alpha=1.0, beta=beta, nu=float(self.n), kappa=kappa)

    def get_params(self):
        return {"n": self.n, "beta": self.beta, "kappa": self.kappa}


# --------------------------------------------------------------------------
# Deformed Normal: symmetrized half-normal (alpha = 2, nu = 1/2)
# --------------------------------------------------------------------------


class KappaNormal(SymmetrizedDistribution):
    """Deformed Normal on the real line: even pdf proportional to kappa_exp(-beta x^2).

    pdf(x) = sqrt(2 beta k / pi) (1 + k/2)
             Gamma(1/2k + 1/4)/Gamma(1/2k - 1/4) kappa_exp(-beta x^2),
    the symmetrized Type1(2, beta, 1/2, kappa) density, whose moments it
    takes; the variance is finite only for kappa < 2/3.
    """

    def __init__(self, beta, kappa):
        super().__init__(Type1(alpha=2.0, beta=beta, nu=0.5, kappa=kappa))
        self.beta, self.kappa = self.half.beta, self.half.kappa

    def get_params(self):
        return {"beta": self.beta, "kappa": self.kappa}

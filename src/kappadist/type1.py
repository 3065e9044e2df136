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

(core._gamma_share), so no quadrature is needed at evaluation time.
Type1 writes only this law of y; framework.PowerTransformed maps it to
x, for either sign of alpha (alpha < 0 is the inverse-variable
construction).
"""

import math

import numpy as np

from .core import _gamma_share, _log_kexp_neg, check_kappa, log_mellin_kappa
from .errors import DomainError, MomentDivergesError
from .framework import ModeResult, PowerTransformed, SymmetrizedDistribution, check_param

__all__ = ["Type1", "ErlangPolynomials", "erlang_polynomials", "KappaErlang", "KappaNormal"]

# Below this cdf value KappaErlang's 1 - survival would lose more than
# 10 bits, so the cdf switches to the incomplete-Beta lower fraction.
_ERLANG_LOWER_TAIL = 2.0**-10


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
        # kappa_exp(-y) ~ (2 k y)^(-1/k) as y -> inf
        far = None if k == 0.0 else (self.nu - 1.0 / k, log_c - math.log(2.0 * k) / k)
        return (self.nu, log_c), far

    def _y_share(self, y, upper):
        return _gamma_share(y, self.nu, self.kappa, upper)

    # -- moments --------------------------------------------------------------

    def moment_constraint(self):
        return "0 < nu + m/alpha < 1/kappa"

    def check_moment_order(self, m):
        r = self.nu + m / self.alpha
        if not r > 0.0 or (self.kappa > 0.0 and not r < 1.0 / self.kappa):
            bound = f"1/kappa = {1.0 / self.kappa:g}" if self.kappa > 0 else "inf"
            raise MomentDivergesError(
                self.moment_constraint(),
                f"nu + m/alpha = {r:g}, upper bound {bound}",
            )

    def raw_moment(self, m):
        self.check_moment_order(m)
        r = self.nu + m / self.alpha
        return math.exp(
            -(m / self.alpha) * math.log(self.beta)
            + log_mellin_kappa(r, self.kappa)
            - self._log_mellin_nu
        )

    # -- shape -------------------------------------------------------------------

    def mode(self):
        a, nu, k = self.alpha, self.nu, self.kappa
        v = k * (nu - 1.0 / a)
        if a > 0.0:
            if nu < 1.0 / a:
                return ModeResult(kind="pole", pdf_at_origin=math.inf)
            if nu == 1.0 / a:
                return ModeResult(kind="monotone", pdf_at_origin=self.norm_constant())
        else:
            if not v < 1.0:
                if self._pdf_singular_power() < 0.0:
                    return ModeResult(kind="pole", pdf_at_origin=math.inf)
                return ModeResult(
                    kind="monotone", pdf_at_origin=math.exp(self._logpdf_at_origin())
                )
        x = (
            self.beta ** (-1.0 / a)
            * (nu - 1.0 / a) ** (1.0 / a)
            * (1.0 - v * v) ** (-0.5 / a)
        )
        return ModeResult(kind="interior", x=x)


# --------------------------------------------------------------------------
# Erlang subfamily: alpha = 1, nu = n integer; cdf in closed polynomial form
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
    n = int(n)
    if n < 1:
        raise DomainError("order n must be a positive integer")
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
    """Type I with alpha = 1 and integer nu = n: closed cdf, survival and hazard.

    General scale beta enters by the substitution x -> beta x, which
    leaves the polynomial identity intact.
    """

    def __init__(self, n, beta, kappa):
        n = int(n)
        self.polynomials = erlang_polynomials(n, kappa)
        super().__init__(alpha=1.0, beta=beta, nu=float(n), kappa=kappa)
        self.n = n

    def get_params(self):
        return {"n": self.n, "beta": self.beta, "kappa": self.kappa}

    def _survival(self, x):
        z = self.beta * x
        k = self.kappa
        with np.errstate(over="ignore", invalid="ignore"):
            body = self.polynomials.r_value(z) + self.polynomials.q_value(z) * np.sqrt(
                1.0 + (k * z) ** 2
            )
            out = np.atleast_1d(np.clip(body * np.exp(_log_kexp_neg(z, k)), 0.0, 1.0))
        # where the body overflows (inf * 0 at x = inf) take the
        # incomplete-Beta upper fraction
        far = np.atleast_1d(np.isinf(body) | (x == np.inf))
        if np.count_nonzero(far):
            out[far] = super()._survival(np.atleast_1d(x)[far])
        return out.reshape(x.shape)

    def _cdf(self, x):
        out = np.atleast_1d(1.0 - self._survival(x))
        # 1 - survival has only absolute precision; near the origin take
        # the incomplete-Beta lower fraction, exact in relative terms
        low = out < _ERLANG_LOWER_TAIL
        if np.count_nonzero(low):
            out[low] = super()._cdf(np.atleast_1d(x)[low])
        return out.reshape(x.shape)


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

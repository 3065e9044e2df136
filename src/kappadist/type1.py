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

so no quadrature is needed at evaluation time.  alpha < 0 swaps the
roles of cdf and survival with |N| (the inverse-variable construction).
"""

import math

import numpy as np
from scipy.special import betainc, gammainc, gammaincc, gammaln

from .core import KAPPA_SWITCH, check_kappa, log_mellin_kappa
from .errors import DomainError, MomentDivergesError, VarianceDivergesError
from .framework import Distribution, ModeResult, SymmetrizedDistribution

__all__ = ["Type1", "ErlangPolynomials", "erlang_polynomials", "KappaErlang", "KappaNormal"]

# Below this cdf value KappaErlang's 1 - survival would lose more than
# 10 bits, so the cdf switches to the incomplete-Beta lower fraction.
_ERLANG_LOWER_TAIL = 2.0**-10


class Type1(Distribution):
    """Deformed Generalized Gamma on x >= 0.

    alpha != 0 (negative allowed: inverse-variable variant), beta > 0,
    0 < nu < 1/kappa.
    """

    def __init__(self, alpha, beta, nu, kappa):
        self.kappa = check_kappa(kappa)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.nu = float(nu)
        if self.alpha == 0.0 or not math.isfinite(self.alpha):
            raise DomainError("alpha must be a finite nonzero real")
        if not self.beta > 0.0:
            raise DomainError("beta must be positive")
        if not self.nu > 0.0:
            raise DomainError("nu must be positive")
        if self.kappa > 0.0 and not self.nu < 1.0 / self.kappa:
            raise DomainError(
                f"requires nu < 1/kappa = {1.0 / self.kappa:g}, got nu = {self.nu:g}"
            )
        self._log_mellin_nu = log_mellin_kappa(self.nu, self.kappa)
        # log of |N|; N itself is positive for alpha > 0
        self._log_norm = (
            math.log(abs(self.alpha)) + self.nu * math.log(self.beta) - self._log_mellin_nu
        )

    def get_params(self):
        return {"alpha": self.alpha, "beta": self.beta, "nu": self.nu, "kappa": self.kappa}

    def norm_constant(self):
        """|N|: prefactor of the pdf."""
        return math.exp(self._log_norm)

    # -- density ---------------------------------------------------------------

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        k = self.kappa
        with np.errstate(divide="ignore", invalid="ignore"):
            y = self.beta * np.power(x, self.alpha)
            if k == 0.0:
                tail = -y
            else:
                tail = -np.arcsinh(k * y) / k
            out = self._log_norm + (self.alpha * self.nu - 1.0) * np.log(x) + tail
        out = np.where(x == 0.0, self._logpdf_at_origin(), out)
        return float(out) if out.ndim == 0 else out

    def _logpdf_at_origin(self):
        a, nu, k = self.alpha, self.nu, self.kappa
        if a > 0.0:
            e0 = a * nu - 1.0
        elif k > 0.0:
            # kappa_exp(-beta x^alpha) ~ (2 k beta)^(-1/k) x^(-alpha/k)
            e0 = abs(a) * (1.0 / k - nu) - 1.0
        else:
            return -math.inf  # essential zero e^(-beta/x^|alpha|)
        if e0 > 0.0:
            return -math.inf
        if e0 < 0.0:
            return math.inf
        if a > 0.0:
            return self._log_norm
        return self._log_norm - (1.0 / k) * math.log(2.0 * k * self.beta)

    def pdf(self, x):
        out = np.exp(self.logpdf(x))
        return float(out) if np.ndim(out) == 0 else out

    # -- cdf ---------------------------------------------------------------------

    def _fraction(self, x, upper):
        """Share of the law of y = beta x^alpha above y (upper) or below it.

        Where s <= 1/2 the upper share is I_s(a, nu) and the lower one its
        complement; where s > 1/2 the lower share is I_(1-s)(nu, a), with
        1 - s = 2 u r exact, and the upper one its complement.  Each side
        thus keeps its relative precision in its own tail.
        """
        x = np.asarray(x, dtype=float)
        k, nu = self.kappa, self.nu
        with np.errstate(divide="ignore", over="ignore"):
            y = self.beta * np.power(x, self.alpha)
        if k < KAPPA_SWITCH:
            out = gammaincc(nu, y) if upper else gammainc(nu, y)
        else:
            u = np.atleast_1d(k * y)
            with np.errstate(over="ignore"):
                r = 1.0 / (np.sqrt(1.0 + u * u) + u)
            s = np.square(r)
            a = 0.5 / k - 0.5 * nu
            w1 = (a + nu) / (2.0 * a + nu)
            w2 = a / (2.0 * a + nu)
            near = s > 0.5
            n_near = np.count_nonzero(near)
            out = np.empty_like(s)
            if n_near < s.size:
                far = ~near
                sf = s[far]
                up = w1 * betainc(a, nu, sf) + w2 * betainc(a + 1.0, nu, sf)
                out[far] = up if upper else 1.0 - up
            if n_near:
                sc = 2.0 * u[near] * r[near]
                low = w1 * betainc(nu, a, sc) + w2 * betainc(nu, a + 1.0, sc)
                out[near] = 1.0 - low if upper else low
            out = out.reshape(y.shape)
        out = np.clip(out, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        return self._fraction(x, upper=self.alpha < 0.0)

    def survival(self, x):
        return self._fraction(x, upper=self.alpha > 0.0)

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
        if m == 0:
            return 1.0
        r = self.nu + m / self.alpha
        return math.exp(
            -(m / self.alpha) * math.log(self.beta)
            + log_mellin_kappa(r, self.kappa)
            - self._log_mellin_nu
        )

    # -- shape -------------------------------------------------------------------

    def _quantile_scale(self):
        return self.beta ** (-1.0 / self.alpha)

    def _pdf_tail_power(self):
        if self.alpha > 0.0:
            if self.kappa == 0.0:
                return None
            return 1.0 + self.alpha / self.kappa - self.alpha * self.nu
        return 1.0 + abs(self.alpha) * self.nu

    def _pdf_singular_power(self):
        a, nu, k = self.alpha, self.nu, self.kappa
        if a > 0.0:
            return a * nu - 1.0
        if k > 0.0:
            return abs(a) * (1.0 / k - nu) - 1.0
        return None  # essential zero at the origin

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
                e0 = abs(a) * (1.0 / k - nu) - 1.0
                if e0 < 0.0:
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

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        z = self.beta * x
        k = self.kappa
        if k == 0.0:
            e = np.exp(-z)
        else:
            e = np.exp(-np.arcsinh(k * z) / k)
        body = self.polynomials.r_value(z) + self.polynomials.q_value(z) * np.sqrt(
            1.0 + (k * z) ** 2
        )
        out = np.clip(body * e, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.atleast_1d(1.0 - np.asarray(self.survival(x)))
        # 1 - survival has only absolute precision; near the origin take
        # the incomplete-Beta lower fraction, exact in relative terms
        low = out < _ERLANG_LOWER_TAIL
        if np.count_nonzero(low):
            out[low] = super().cdf(np.atleast_1d(x)[low])
        out = out.reshape(x.shape)
        return float(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------
# Deformed Normal: symmetrized half-normal (alpha = 2, nu = 1/2)
# --------------------------------------------------------------------------


class KappaNormal(SymmetrizedDistribution):
    """Deformed Normal on the real line: even pdf proportional to kappa_exp(-beta x^2).

    pdf(x) = sqrt(2 beta k / pi) (1 + k/2)
             Gamma(1/2k + 1/4)/Gamma(1/2k - 1/4) kappa_exp(-beta x^2);
    the variance is finite only for kappa < 2/3.
    """

    def __init__(self, beta, kappa):
        self.kappa = check_kappa(kappa)
        self.beta = float(beta)
        if not self.beta > 0.0:
            raise DomainError("beta must be positive")
        super().__init__(Type1(alpha=2.0, beta=self.beta, nu=0.5, kappa=self.kappa))
        k = self.kappa
        if k == 0.0:
            self._log_pref = 0.5 * math.log(self.beta / math.pi)
        else:
            z = 0.5 / k
            self._log_pref = (
                0.5 * math.log(2.0 * self.beta * k / math.pi)
                + math.log1p(0.5 * k)
                + gammaln(z + 0.25)
                - gammaln(z - 0.25)
            )

    def get_params(self):
        return {"beta": self.beta, "kappa": self.kappa}

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        k = self.kappa
        y = self.beta * x * x
        tail = -y if k == 0.0 else -np.arcsinh(k * y) / k
        out = self._log_pref + tail
        return float(out) if out.ndim == 0 else out

    def pdf(self, x):
        out = np.exp(self.logpdf(x))
        return float(out) if np.ndim(out) == 0 else out

    def variance(self):
        k, b = self.kappa, self.beta
        if k == 0.0:
            return 0.5 / b
        if not k < 2.0 / 3.0:
            raise VarianceDivergesError(
                "kappa < 2/3", f"kappa = {k:g} makes the second moment diverge"
            )
        z = 0.5 / k
        ratio_sq = math.exp(2.0 * (gammaln(z + 0.25) - gammaln(z - 0.25)))
        return (1.0 / b) * ((2.0 + k) / (2.0 - k)) * (4.0 * k / (4.0 - 9.0 * k * k)) * ratio_sq

    def mean(self):
        return 0.0

"""Uniform evaluation contract shared by all five families.

A Distribution exposes pdf/logpdf/cdf/survival/hazard/quantile/
raw_moment/descriptive_stats/mode/sample.  The public evaluation methods
take a scalar or an array, convert it once and hand an array to the
family's private method (_pdf or _logpdf, _cdf or _survival, _quantile);
a 0-d result comes back as a Python float.  Families override what they
have in closed form; the base class supplies the missing one of each
pair, quadrature moments, log-space Newton quantiles, inverse-transform
sampling and the half-line -> real-line symmetrizer.  On a half line
x < 0 gives pdf 0, cdf 0 and survival 1 before any family code runs.
PowerTransformed carries the change of variables Y = beta X^alpha for
the families that write only the law of Y (Type1, Type3, Type4).

Parameters are validated at construction and immutable afterwards, so
instances are safe for concurrent read access.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .core import _maybe_item, check_kappa
from .errors import DomainError, MomentDivergesError, NoConvergenceError, VarianceDivergesError

__all__ = [
    "Distribution",
    "DescriptiveStats",
    "ModeResult",
    "SymmetrizedDistribution",
    "as_generator",
]

_QUANTILE_MAX_ITER = 200
_FIRST_STEP = 4.0  # longest first step in log x; the cap doubles each iteration
_STEP_TOL = 4.0 * np.finfo(float).eps


def check_param(name, value, positive=True):
    """value as a float; DomainError unless it is finite (and > 0 if positive)."""
    v = float(value)
    if not math.isfinite(v) or (positive and not v > 0.0):
        kind = "finite positive" if positive else "finite"
        raise DomainError(f"{name} must be a {kind} real, got {value!r}")
    return v


def as_generator(rng):
    """Accept a non-negative integer seed (not a bool) or a numpy
    Generator; never global state.

    Integer seeds build a counter-based Philox stream so sampling is
    reproducible and thread independent.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool) and rng >= 0:
        return np.random.Generator(np.random.Philox(int(rng)))
    raise DomainError(
        "rng must be a non-negative integer seed or a numpy.random.Generator"
    )


@dataclass(frozen=True)
class DescriptiveStats:
    mean: float
    variance: float
    coefficient_of_variation: float
    skewness: float
    kurtosis: float  # standardized fourth central moment, not excess


@dataclass(frozen=True)
class ModeResult:
    """Location of the density maximum, or a shape marker.

    kind is "interior" (x holds the argmax), "monotone" (density
    decreases from pdf(0) = pdf_at_origin) or "pole" (density diverges
    at the origin).
    """

    kind: str
    x: float = 0.0
    pdf_at_origin: float | None = None


class Distribution:
    """Base contract; support is [0, inf) unless a subclass says otherwise."""

    support_real_line = False

    # -- evaluation surface -------------------------------------------------

    def pdf(self, x):
        return self._on_support(self._pdf, x, 0.0)

    def logpdf(self, x):
        return self._on_support(self._logpdf, x, -math.inf)

    def cdf(self, x):
        return self._on_support(self._cdf, x, 0.0)

    def survival(self, x):
        return self._on_support(self._survival, x, 1.0)

    def hazard(self, x):
        return self._on_support(self._hazard, x, 0.0)

    def _on_support(self, fn, x, below):
        """fn (a private array method) at x, as a float for a 0-d x.

        Left of a half-line support the value is `below`, and fn is not
        called there; a NaN x reaches fn, which returns NaN.
        """
        if isinstance(x, float):  # also numpy's float64: a scalar needs no array test
            if x < 0.0 and not self.support_real_line:
                return below
            return _maybe_item(fn(np.asarray(x)))
        x = np.asarray(x, dtype=float)
        if not self.support_real_line:
            left = x < 0.0
            if np.count_nonzero(left):
                out = np.full(x.shape, below)
                rest = ~left
                if np.count_nonzero(rest):
                    out[rest] = fn(x[rest])
                return _maybe_item(out)
        return _maybe_item(fn(x))

    def _hazard(self, x):
        s = self._survival(x)
        p = self._pdf(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(s == 0.0, np.inf, p / s)

    # A family writes its density once, in linear (_pdf) or log (_logpdf)
    # form, and at least one of _cdf and _survival; each takes and returns
    # float arrays.

    def _pdf(self, x):
        return np.exp(self._logpdf(x))

    def _logpdf(self, x):
        with np.errstate(divide="ignore"):
            return np.log(self._pdf(x))

    def _cdf(self, x):
        return 1.0 - self._survival(x)

    def _survival(self, x):
        return 1.0 - self._cdf(x)

    # -- quantiles and sampling ---------------------------------------------

    def _quantile_scale(self):
        """Rough scale of the distribution, used to seed brackets."""
        return 1.0

    def quantile(self, p):
        """Inverse cdf; raises DomainError unless 0 <= p < 1."""
        parr = np.asarray(p, dtype=float)
        if not ((parr >= 0.0) & (parr < 1.0)).all():
            raise DomainError("quantile requires 0 <= p < 1")
        return _maybe_item(self._quantile(parr))

    def _quantile(self, p):
        """Inverse cdf, by safeguarded Newton iteration on t = log x.

        Below p = 1/2 it solves log cdf(e^t) = log p, above it
        log survival(e^t) = log1p(-p), so both tails keep their relative
        precision; p = 0 gives 0.  A 0-d p runs through the same code as
        an array.  Families with a closed-form inverse override this.
        Raises NoConvergenceError rather than return an unconverged value.
        """
        flat = p.reshape(-1)
        out = np.zeros(flat.shape)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for side, upper in (((flat > 0.0) & (flat < 0.5), False), (flat >= 0.5, True)):
                if np.count_nonzero(side):
                    out[side] = self._solve_quantile(flat[side], upper)
        return out.reshape(p.shape)

    def _solve_quantile(self, q, upper):
        """x with survival(x) = 1 - q (upper) or cdf(x) = q, elementwise.

        With F the survival or the cdf, log F(e^t) is monotone in t = log x
        with slope -/+ x pdf / F, so a Newton step costs one F and one pdf
        call.  Each element keeps its own bracket in t, opened at the
        exponential law's quantile at the family's scale and grown
        geometrically until it holds the root.  A step that is not finite,
        leaves the bracket or exceeds the growth cap becomes a bisection
        step (or a growth step while the bracket is open).  An element is
        done when its step is a few ulp of t, or its bracket is that narrow.
        """
        tail_fn = self.survival if upper else self.cdf
        target = np.log1p(-q) if upper else np.log(q)
        out = np.empty(q.shape)
        idx = np.arange(q.size)
        t = math.log(self._quantile_scale()) + np.log(-np.log1p(-q))
        lo = np.full(q.shape, -np.inf)
        hi = np.full(q.shape, np.inf)
        cap = _FIRST_STEP
        for _ in range(_QUANTILE_MAX_ITER):
            x = np.exp(t)
            # a family call on one 0-d value costs half of a 1-element one
            xs = x[0] if x.size == 1 else x
            tail = tail_fn(xs)
            # r increases with t on both sides
            r = target - np.log(tail) if upper else np.log(tail) - target
            np.copyto(lo, t, where=r < 0.0)
            np.copyto(hi, t, where=r > 0.0)
            step = r * tail / (xs * self.pdf(xs))  # d(log F)/dt = x pdf / F
            tn = t - step
            size = np.abs(step)
            tol = _STEP_TOL * (np.abs(t) + 1.0)
            done = size <= tol
            inside = done | ((tn > lo) & (tn < hi) & (size <= cap))
            if np.count_nonzero(inside) < inside.size:
                mid = 0.5 * (lo + hi)
                grow = np.where(r < 0.0, t + cap, t - cap)
                tn = np.where(inside, tn, np.where(np.isfinite(mid), mid, grow))
                done |= hi - lo <= tol
            cap *= 2.0
            if np.count_nonzero(done):
                out[idx[done]] = np.exp(tn[done])
                keep = ~done
                if not np.count_nonzero(keep):
                    return out
                idx, tn, lo, hi, target = (a[keep] for a in (idx, tn, lo, hi, target))
            t = tn
        raise NoConvergenceError(
            f"quantile solver did not converge in {_QUANTILE_MAX_ITER} iterations"
        )

    def sample(self, size, rng):
        """Inverse-transform i.i.d. draws; rng is caller supplied."""
        gen = as_generator(rng)
        if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 1:
            raise DomainError("size must be an integer >= 1")
        u = gen.random(int(size))
        u[u == 0.0] = 2.0**-64  # symmetrized quantile excludes p = 0
        return self.quantile(u)

    # -- moments -------------------------------------------------------------

    def check_moment_order(self, m):
        """Raise MomentDivergesError outside the existence window."""
        if m < 0:
            raise MomentDivergesError("m >= 0", f"got m = {m}")

    def raw_moment(self, m):
        self.check_moment_order(m)
        if m == 0:
            return 1.0
        return self._moment_by_quadrature(m)

    def _moment_by_quadrature(self, m, tol=1e-9):
        scale = self._quantile_scale()
        tp = self._pdf_tail_power()
        if tp is not None:
            tp -= m  # integrand is x^m * pdf
            if not tp > 1.0:
                tp = None
        sp = self._pdf_singular_power()
        if sp is not None:
            sp += m
            if not -1.0 < sp < 0.0:
                sp = None
        res = oracle.integrate_semiaxis(
            lambda x: x**m * self.pdf(x),
            tol=tol,
            scale=max(scale, self.quantile(0.9)),
            singular_power=sp,
            tail_power=tp,
        )
        return res.value

    def _pdf_tail_power(self):
        """Known exponent a of pdf ~ x**-a, or None."""
        return None

    def _pdf_singular_power(self):
        """Known exponent s of pdf ~ x**s as x -> 0, or None."""
        return None

    def descriptive_stats(self):
        m1 = self.raw_moment(1)
        m2 = self.raw_moment(2)
        m3 = self.raw_moment(3)
        m4 = self.raw_moment(4)
        var = m2 - m1 * m1
        sd = math.sqrt(max(var, 0.0))
        mu3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
        mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1**4
        return DescriptiveStats(
            mean=m1,
            variance=var,
            coefficient_of_variation=sd / m1 if m1 != 0.0 else math.inf,
            skewness=mu3 / sd**3,
            kurtosis=mu4 / var**2,
        )

    def mean(self):
        return self.raw_moment(1)

    def variance(self):
        try:
            self.check_moment_order(2)
        except MomentDivergesError as exc:
            raise VarianceDivergesError(exc.constraint, "the variance needs m = 2") from exc
        m1 = self.raw_moment(1)
        return self.raw_moment(2) - m1 * m1

    # -- shape ----------------------------------------------------------------

    def mode(self):
        """Numerical fallback: golden-section argmax of the pdf."""
        hi = self.quantile(1.0 - 1e-9)
        x = oracle.argmax(self.pdf, 1e-12 * hi, hi, tol=1e-12)
        return ModeResult(kind="interior", x=x)

    def symmetrize(self):
        if self.support_real_line:
            raise DomainError("distribution already has real-line support")
        return SymmetrizedDistribution(self)

    # -- introspection ---------------------------------------------------------

    def get_params(self):
        raise NotImplementedError

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


class PowerTransformed(Distribution):
    """Law of X >= 0 whose power Y = beta X^alpha follows a given law.

    A family writes the law of Y only: _y_share(y, upper), the share of
    Y above y (upper) or below it; y pdf_Y(y) = y^w g(y) with w =
    _y_power and log g = _y_log_regular(y), which may overwrite y; and
    _y_ends() = ((w0, log c0), (w1, log c1)) with y pdf_Y(y) ~ c y^w as
    y -> 0 and as y -> inf, None for an end beyond every power.  This
    class maps it to X: alpha < 0 swaps the cdf and the survival,
    pdf_X(x) = |alpha| beta^w x^(alpha w - 1) g(y), and the ends of Y
    give the density's limit at the origin and its powers at both ends.
    """

    def __init__(self, alpha, beta, kappa):
        self.kappa = check_kappa(kappa)
        self.alpha = check_param("alpha", alpha, positive=False)
        if self.alpha == 0.0:
            raise DomainError("alpha must be a finite nonzero real")
        self.beta = check_param("beta", beta)

    # an np.errstate costs about as much as a 0-d evaluation, so each
    # private method enters one, and _y and the _y_* methods run under it

    def _y(self, x):
        return self.beta * np.power(x, self.alpha)

    def _x(self, y):
        """Inverse of _y."""
        with np.errstate(divide="ignore", over="ignore"):
            return np.power(y / self.beta, 1.0 / self.alpha)

    def _cdf(self, x):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return self._y_share(self._y(x), upper=self.alpha < 0.0)

    def _survival(self, x):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return self._y_share(self._y(x), upper=self.alpha > 0.0)

    def _logpdf(self, x):
        w = self._y_power
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_x = np.log(x)
            out = self._y_log_regular(self._y(x))
            out += (self.alpha * w - 1.0) * log_x + (
                math.log(abs(self.alpha)) + w * math.log(self.beta)
            )
        # at x = 0 and inf the terms can read 0 * inf or inf - inf; the
        # density vanishes at inf for every family
        if np.count_nonzero(np.isinf(log_x)):
            out = np.where(x == 0.0, self._logpdf_at_origin(), np.where(x == np.inf, -np.inf, out))
        return out

    def _x_end(self, at_origin):
        """(e, log C) with pdf_X ~ C x^e as x -> 0 (at_origin) or x -> inf,
        or None where the density falls faster than every power."""
        end = self._y_ends()[0 if (self.alpha > 0.0) == at_origin else 1]
        if end is None:
            return None
        w, log_c = end
        return self.alpha * w - 1.0, math.log(abs(self.alpha)) + log_c + w * math.log(self.beta)

    def _logpdf_at_origin(self):
        end = self._x_end(at_origin=True)
        if end is None:
            return -math.inf  # an essential zero, such as e^(-beta/x^|alpha|)
        e, log_c = end
        if e == 0.0:
            return log_c
        return -math.inf if e > 0.0 else math.inf

    def _pdf_singular_power(self):
        end = self._x_end(at_origin=True)
        return None if end is None else end[0]

    def _pdf_tail_power(self):
        end = self._x_end(at_origin=False)
        return None if end is None else -end[0]

    def _quantile_scale(self):
        return self.beta ** (-1.0 / self.alpha)


class SymmetrizedDistribution(Distribution):
    """Even reflection of a half-line distribution onto the real line.

    F(x) = 1/2 + sign(x) P(|x|)/2, so the pdf is p(|x|)/2, F(0) = 1/2
    and all odd moments vanish.
    """

    support_real_line = True

    def __init__(self, half):
        self.half = half

    def _pdf(self, x):
        return 0.5 * self.half._pdf(np.abs(x))

    def _logpdf(self, x):
        return self.half._logpdf(np.abs(x)) - math.log(2.0)

    def _cdf(self, x):
        return 0.5 + 0.5 * np.sign(x) * self.half._cdf(np.abs(x))

    def quantile(self, p):
        parr = np.asarray(p, dtype=float)
        if np.any((parr <= 0.0) | (parr >= 1.0)):
            raise DomainError("symmetrized quantile requires 0 < p < 1")
        mag = self.half.quantile(np.abs(2.0 * parr - 1.0))
        return _maybe_item(np.where(parr >= 0.5, mag, -mag))

    def check_moment_order(self, m):
        if m % 2 == 0:
            self.half.check_moment_order(m)

    def raw_moment(self, m):
        m = int(m)
        self.check_moment_order(m)
        if m % 2 == 1:
            return 0.0
        return self.half.raw_moment(m)

    def mode(self):
        return ModeResult(kind="interior", x=0.0)

    def get_params(self):
        return {"half": self.half}

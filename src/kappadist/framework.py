"""Uniform evaluation contract shared by all five families.

A Distribution exposes pdf/cdf/survival/hazard/quantile/raw_moment/
descriptive_stats/mode/sample.  Families override what they have in
closed form; the base class supplies quadrature moments, log-space
Newton quantiles, inverse-transform sampling and the
half-line -> real-line symmetrizer.

Parameters are validated at construction and immutable afterwards, so
instances are safe for concurrent read access.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .core import check_kappa
from .errors import DomainError, MomentDivergesError, NoConvergenceError

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
        raise NotImplementedError

    def logpdf(self, x):
        with np.errstate(divide="ignore"):
            out = np.log(self.pdf(x))
        return out

    def cdf(self, x):
        raise NotImplementedError

    def survival(self, x):
        return 1.0 - np.asarray(self.cdf(x), dtype=float)

    def hazard(self, x):
        s = np.asarray(self.survival(x), dtype=float)
        p = np.asarray(self.pdf(x), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(s > 0.0, p / s, np.inf)
        return float(out) if out.ndim == 0 else out

    # -- quantiles and sampling ---------------------------------------------

    def _quantile_scale(self):
        """Rough scale of the distribution, used to seed brackets."""
        return 1.0

    def quantile(self, p):
        """Inverse cdf, by safeguarded Newton iteration on t = log x.

        Below p = 1/2 it solves log cdf(e^t) = log p, above it
        log survival(e^t) = log1p(-p), so both tails keep their relative
        precision; p = 0 gives 0.  A 0-d p runs through the same code as
        an array.  Families with a closed-form inverse override this.
        Raises DomainError unless 0 <= p < 1, and NoConvergenceError
        rather than return an unconverged value.
        """
        parr = np.asarray(p, dtype=float)
        if not ((parr >= 0.0) & (parr < 1.0)).all():
            raise DomainError("quantile requires 0 <= p < 1")
        flat = parr.reshape(-1)
        out = np.zeros(flat.shape)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for side, upper in (((flat > 0.0) & (flat < 0.5), False), (flat >= 0.5, True)):
                if np.count_nonzero(side):
                    out[side] = self._solve_quantile(flat[side], upper)
        return float(out[0]) if parr.ndim == 0 else out.reshape(parr.shape)

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


class SymmetrizedDistribution(Distribution):
    """Even reflection of a half-line distribution onto the real line.

    F(x) = 1/2 + sign(x) P(|x|)/2, so the pdf is p(|x|)/2, F(0) = 1/2
    and all odd moments vanish.
    """

    support_real_line = True

    def __init__(self, half):
        self.half = half

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = 0.5 * np.asarray(self.half.pdf(np.abs(x)))
        return float(out) if out.ndim == 0 else out

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.half.logpdf(np.abs(x))) - math.log(2.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = 0.5 + 0.5 * np.sign(x) * np.asarray(self.half.cdf(np.abs(x)))
        return float(out) if out.ndim == 0 else out

    def quantile(self, p):
        parr = np.asarray(p, dtype=float)
        if np.any((parr <= 0.0) | (parr >= 1.0)):
            raise DomainError("symmetrized quantile requires 0 < p < 1")
        q = np.abs(2.0 * parr - 1.0)
        mag = np.asarray(self.half.quantile(q))
        out = np.where(parr >= 0.5, mag, -mag)
        return float(out) if out.ndim == 0 else out

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

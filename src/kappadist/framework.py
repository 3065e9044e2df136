"""Uniform evaluation contract shared by all five families.

A Distribution exposes pdf/logpdf/cdf/survival/hazard/quantile/
raw_moment/descriptive_stats/mode/sample.  The public evaluation methods
take a scalar or an array, convert it once and hand an array to the
family's private method (_pdf, _logpdf, _cdf, _survival, _hazard,
_quantile); a 0-d result comes back as a Python float.  pdf, logpdf,
cdf, survival and hazard hand an array of more than _BLOCK points over
in blocks of _BLOCK, so the working set of a call does not grow with
the array.  The base class supplies the density from its log, the
hazard as pdf/survival, quadrature moments, inverse-transform draws
(_draw) and the half-line -> real-line symmetrizer.  Only the families
with a closed quantile draw by inverse transform: the Type I law draws
from its Beta mixture and Type V by rejection, so no draw runs a solver.
The density's powers at its two ends decide a pole of the mode, the
far-tail hazard, the quadrature hints and every moment window.
On a half line x < 0 gives pdf 0, cdf 0 and survival 1 before any
family code runs.  Every law is one of two kinds.  PowerTransformed
carries the change of variables Y = beta X^alpha, with its shares,
density, quantiles (log-space Newton steps on Y where it has no closed
inverse), draws and moments, for every half-line family
(Type1 to Type5), each of which writes only the law of Y.
SymmetrizedDistribution reflects a half-line law onto the real line
(symmetrize(), KappaNormal and KappaLogistic).

Parameters are validated at construction and immutable afterwards, so
instances are safe for concurrent read access.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .core import _TINY, _exp, _maybe_item, check_kappa
from .errors import DomainError, MomentDivergesError, NoConvergenceError, VarianceDivergesError

__all__ = [
    "Distribution",
    "DescriptiveStats",
    "ModeResult",
    "SymmetrizedDistribution",
    "as_generator",
]

_MAX_ITER = 200  # of the quantile solver and of the mode's Newton steps
_FIRST_STEP = 4.0  # longest first step in log x, |alpha| times it in log y; the cap doubles
_STEP_TOL = 4.0 * np.finfo(float).eps
_FLOAT_MAX = np.finfo(float).max  # a quantile past it reads inf
_EDGE = 8.0 * float(np.finfo(float).eps)  # rounding of a moment bound from the end powers
_LOG_Y_END = 709.0  # the mode's bracket grows out to this |log y|, where y and 1/y are finite
# points per private-method call: a longer array is evaluated in blocks of this
# size, whose temporaries the allocator reuses from block to block rather than
# returning them to the system and faulting them in again on the next call
_BLOCK = 16384


def check_param(name, value, positive=True):
    """value as a float; DomainError unless it is finite (and > 0 if positive)."""
    v = float(value)
    if not math.isfinite(v) or (positive and not v > 0.0):
        kind = "finite positive" if positive else "finite"
        raise DomainError(f"{name} must be a {kind} real, got {value!r}")
    return v


def as_integer(value):
    """value as an int if it is an integral real number, else None: a bool,
    a fraction, NaN, inf and a non-number are not integers."""
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        return None
    if isinstance(value, (bool, np.bool_)) or not v.is_integer():
        return None
    return int(v)


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


def _variance(m1, m2):
    """m2 - m1^2; NoConvergenceError where cancellation, inf - inf or an
    underflow leaves it not a positive number."""
    var = m2 - m1 * m1
    if not var > 0.0:
        raise NoConvergenceError(f"variance {var:g} = {m2!r} - {m1!r}^2 is lost to cancellation")
    return var


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
        called there; a NaN x reaches fn, which returns NaN.  An x of more
        than _BLOCK points is taken in flat blocks of _BLOCK, each written
        into one output of x's shape, so a call's temporaries stay the same
        size however long x is; fn is elementwise, so the values are those
        of one call on the whole of x.
        """
        if isinstance(x, float):  # also numpy's float64: a scalar needs no array test
            if x < 0.0 and not self.support_real_line:
                return below
            return _maybe_item(fn(np.asarray(x)))
        x = np.asarray(x, dtype=float)
        if x.size <= _BLOCK:
            return _maybe_item(self._on_block(fn, x, below))
        flat, out = x.reshape(-1), np.empty(x.size)
        for i in range(0, x.size, _BLOCK):
            out[i : i + _BLOCK] = self._on_block(fn, flat[i : i + _BLOCK], below)
        return out.reshape(x.shape)

    def _on_block(self, fn, x, below):
        """fn at an array x, `below` left of a half-line support."""
        if not self.support_real_line:
            left = x < 0.0
            if np.count_nonzero(left):
                out = np.full(x.shape, below)
                rest = ~left
                if np.count_nonzero(rest):
                    out[rest] = fn(x[rest])
                return out
        return fn(x)

    def _hazard(self, x):
        """pdf/survival, from log pdf where the pdf underflows first (far out
        in a power-law tail), and (a - 1)/x for a tail pdf ~ x^-a where the
        survival underflows too; inf beyond every power."""
        s = self._survival(x)
        p = self._pdf(x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if not np.count_nonzero(p < _TINY):
                return p / s
            a = self._pdf_tail_power()
            far = np.exp(self._logpdf(x) - np.log(s))
            far = np.where(s == 0.0, math.inf if a is None else (a - 1.0) / x, far)
            return np.where(p < _TINY, far, p / s)

    # A family writes _logpdf, _cdf and _survival, each taking and returning
    # float arrays; the density is exp(_logpdf) unless it writes _pdf too.

    def _pdf(self, x):
        return np.exp(self._logpdf(x))

    # -- quantiles and sampling ---------------------------------------------

    def quantile(self, p):
        """Inverse cdf; DomainError unless 0 <= p < 1 (0 < p < 1 on the real line)."""
        parr = np.asarray(p, dtype=float)
        real = self.support_real_line
        if not (((parr > 0.0) if real else (parr >= 0.0)) & (parr < 1.0)).all():
            raise DomainError(f"quantile requires 0 {'<' if real else '<='} p < 1")
        return _maybe_item(self._quantile(parr))

    def sample(self, size, rng):
        """size exact i.i.d. draws; rng is caller supplied."""
        gen = as_generator(rng)
        if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 1:
            raise DomainError("size must be an integer >= 1")
        return self._draw(gen, int(size))

    def _draw(self, gen, size):
        """Inverse transform: the quantiles of size uniforms from gen."""
        u = gen.random(size)
        u[u == 0.0] = 2.0**-64  # a real-line quantile excludes p = 0
        return self.quantile(u)

    # -- moments -------------------------------------------------------------

    @functools.cached_property
    def _moment_window(self):
        """(lo, hi): x^m pdf is integrable for -1 - e < m < a - 1, pdf ~ x^e at
        the origin and ~ x^-a in the tail, an end beyond every power setting no
        bound; each bound is pulled in by its rounding, so an m on it fails."""
        e, a = self._pdf_singular_power(), self._pdf_tail_power()
        lo = -math.inf if e is None else -1.0 - e + _EDGE * (2.0 + abs(e))
        hi = math.inf if a is None else a - 1.0 - _EDGE * a
        return lo, hi

    def check_moment_order(self, m):
        """MomentDivergesError outside the window, naming the paper's condition
        at the end that m crosses (the family's moment_constraint); a NaN m
        is a DomainError, for it lies on no side of the window."""
        if math.isnan(m):
            raise DomainError("moment order must be a number, got m = nan")
        lo, hi = self._moment_window
        if not m > lo:
            raise MomentDivergesError(self.moment_constraint(True), f"m = {m:g} <= {lo:g}")
        if not m < hi:
            raise MomentDivergesError(self.moment_constraint(False), f"m = {m:g} >= {hi:g}")

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

    def descriptive_stats(self):
        m1 = self.raw_moment(1)
        m2 = self.raw_moment(2)
        m3 = self.raw_moment(3)
        m4 = self.raw_moment(4)
        var = _variance(m1, m2)
        sd = math.sqrt(var)
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
        return _variance(self.raw_moment(1), self.raw_moment(2))

    # -- shape ----------------------------------------------------------------

    def mode(self):
        """Where the density peaks: a pole where pdf ~ x^e with e < 0 at the
        origin, else the family's _argmax(), 0 where the density falls from
        the origin (monotone)."""
        e = self._pdf_singular_power()
        if e is not None and e < 0.0:
            return ModeResult(kind="pole", pdf_at_origin=math.inf)
        x = self._argmax()
        if x == 0.0:
            with np.errstate(over="ignore"):  # a finite limit past the largest float
                p0 = float(np.exp(self._logpdf_at_origin()))  # the bits of pdf(0.0)
            return ModeResult(kind="monotone", pdf_at_origin=p0)
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
    _y_power and log g = _y_log_regular(y); and
    _y_ends() = ((n0, d0, log c0), (n1, d1, log c1)) with y pdf_Y(y) ~
    c y^(n/d) as y -> 0 and as y -> inf, None for an end beyond every
    power; and _y_slope(log y) = (S, dS/d log y) with S = d log(y pdf_Y)/
    d log y, so that d log pdf_X/d log x = alpha S - 1, whose root is the
    mode.  This class maps it to X: alpha < 0 swaps the cdf and the
    survival, pdf_X(x) = |alpha| beta^w x^(alpha w - 1) g(y), and the ends
    of Y give the density's limit at the origin and its powers at both
    ends, each power (alpha n - d)/d rounded once, so that it is exactly 0
    where it vanishes with alpha n = d (alpha = -kappa against n/d = -1/kappa).
    _y_invert(share, upper), the y with that share above it (upper) or
    below it, and _y_log_moment(r) = log <Y^r> (None: quadrature) give the
    quantile and <X^m> = beta^(-r) <Y^r>, r = m/alpha; _y_log_draw(gen,
    size), log y for size draws of Y, gives the draws
    x = exp((log y - log beta)/alpha).  By default _y_invert runs the
    solver, _y_solve.  No _y_* hook writes into its argument.
    """

    _y_log_draw = None  # the law of Y has no direct sampler: draws invert uniforms

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

    def _cdf(self, x):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return self._y_share(self._y(x), upper=self.alpha < 0.0)

    def _survival(self, x):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return self._y_share(self._y(x), upper=self.alpha > 0.0)

    def _quantile(self, p, upper=False):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            y = self._y_invert(p, upper != (self.alpha < 0.0))
            return np.power(y / self.beta, 1.0 / self.alpha)

    def _y_invert(self, share, upper):
        """y with that share of Y above it (upper) or below it, elementwise:
        the log-space solver on the lower share where it is below 1/2, else
        on the upper one, the other share 1 - p being exact from 1/2 on, so
        both tails keep their relative precision; a share of 0 is an end."""
        out = np.full(share.shape, math.inf if upper else 0.0)
        on_lower = (share > 0.5) if upper else (share < 0.5)
        inside = share > 0.0
        for side, tail in ((on_lower & inside, False), (~on_lower & inside, True)):
            if np.count_nonzero(side):
                q = share[side]
                out[side] = self._y_solve(np.log(q if tail == upper else 1.0 - q), tail)
        return out

    def _y_solve(self, target, upper):
        """y with log F(y) = target, elementwise, F the share of Y above y
        (upper) or below it, by Newton steps in t = log y: log F has the slope
        -/+ y pdf_Y/F = exp(w t + log g(y))/F, so a step costs one _y_share
        and one _y_log_regular call.  Each element keeps its own bracket in t,
        opened at t = alpha log(-log S), S the share of X above x (X at the
        exponential law's quantile), and grown geometrically from a first step
        of _FIRST_STEP |alpha|: Newton's method being affine invariant, these
        are the steps in log x from that start.  A step that is not finite,
        leaves the bracket or exceeds the growth cap becomes a bisection step
        (a growth step while the bracket is open).  An element is done when
        its step is a few ulp of t, its bracket is that narrow, or F is flat
        to rounding: the residual did not move and the next step is below
        2^-26 (|t| + 1).  A root past the largest float converges onto it, so
        a result within a factor 2 of it is inf where the share there falls
        short of the target."""
        share = functools.partial(self._y_share, upper=upper)
        w = self._y_power
        goal = target
        out = np.empty(target.shape)
        idx = np.arange(target.size)
        log_sx = target if upper == (self.alpha > 0.0) else np.log1p(-np.exp(target))
        t = self.alpha * np.log(-log_sx)
        lo = np.full(target.shape, -np.inf)
        hi = np.full(target.shape, np.inf)
        r_last = math.nan
        cap = _FIRST_STEP * abs(self.alpha)
        for _ in range(_MAX_ITER):
            y = np.exp(t)
            # a hook call on one 0-d value costs half of a 1-element one
            ys = y[0] if y.size == 1 else y
            f = self._on_support(share, ys, 0.0)
            # r increases with t on both sides
            r = target - np.log(f) if upper else np.log(f) - target
            np.copyto(lo, t, where=r < 0.0)
            np.copyto(hi, t, where=r > 0.0)
            # no step at an exact root, where the density may underflow
            log_g = self._on_support(self._y_log_regular, ys, -math.inf)
            step = np.where(r == 0.0, 0.0, r * f / np.exp(w * t + log_g))
            tn = t - step
            size = np.abs(step)
            tol = _STEP_TOL * (np.abs(t) + 1.0)
            done = size <= tol
            stalled = r == r_last
            if np.count_nonzero(stalled):  # done where the step is below 2^-26 (|t| + 1)
                done |= stalled & (size <= 2.0**24 * tol)
            inside = done | ((tn > lo) & (tn < hi) & (size <= cap))
            if np.count_nonzero(inside) < inside.size:
                mid = 0.5 * (lo + hi)
                grow = np.where(r < 0.0, t + cap, t - cap)
                tn = np.where(inside, tn, np.where(np.isfinite(mid), mid, grow))
                done |= hi - lo <= tol
            cap *= 2.0
            if np.count_nonzero(done):
                out[idx[done]] = np.exp(tn[done])
                keep = np.flatnonzero(~done)  # an index gathers faster than a mask
                if not keep.size:
                    break
                idx, tn, lo, hi, target, r = (a[keep] for a in (idx, tn, lo, hi, target, r))
            t, r_last = tn, r
        else:
            raise NoConvergenceError(
                f"quantile solver did not converge in {_MAX_ITER} iterations"
            )
        big = out >= 0.5 * _FLOAT_MAX
        if np.count_nonzero(big):
            log_end = np.log(self._on_support(share, _FLOAT_MAX, 0.0))
            beyond = log_end > goal[big] if upper else log_end < goal[big]
            out[big] = np.where(beyond, math.inf, np.minimum(out[big], _FLOAT_MAX))
        return out

    def _draw(self, gen, size):
        if self._y_log_draw is None:
            return super()._draw(gen, size)
        # from log y, so no y past the largest float is formed on the way
        with np.errstate(over="ignore"):
            return np.exp((self._y_log_draw(gen, size) - math.log(self.beta)) / self.alpha)

    def _logpdf(self, x):
        w = self._y_power
        e, log_c = self.alpha * w - 1.0, math.log(abs(self.alpha)) + w * math.log(self.beta)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = self._y_log_regular(self._y(x))
            if e == 0.0:  # x^0: g holds the density's limits at x = 0 and inf
                out += log_c
                return out
            log_x = np.log(x)
            out += e * log_x + log_c
        # at x = 0 and inf the terms can read 0 * inf or inf - inf; the
        # density vanishes at inf for every family
        if np.count_nonzero(np.isinf(log_x)):
            out = np.where(x == 0.0, self._logpdf_at_origin(), np.where(x == np.inf, -np.inf, out))
        return out

    @functools.cached_property
    def _x_ends(self):
        """(e, log C) with pdf_X ~ C x^e as x -> 0 and as x -> inf, each None
        where the density falls faster than every power; worked out once,
        for the law of Y is fixed at construction."""
        a, out = self.alpha, []
        for end in self._y_ends()[:: 1 if a > 0.0 else -1]:
            if end is not None:
                num, den, log_c = end
                log_c += math.log(abs(a)) + num / den * math.log(self.beta)
                end = (a * num - den) / den, log_c
            out.append(end)
        return out

    def _logpdf_at_origin(self):
        end = self._x_ends[0]
        if end is None:
            return -math.inf  # an essential zero, such as e^(-beta/x^|alpha|)
        e, log_c = end
        if e == 0.0:
            return log_c
        return -math.inf if e > 0.0 else math.inf

    def _pdf_singular_power(self):
        """Exponent s of pdf ~ x**s as x -> 0, or None: faster than every power."""
        end = self._x_ends[0]
        return None if end is None else end[0]

    def _pdf_tail_power(self):
        """Exponent a of pdf ~ x**-a as x -> inf, or None: faster than every power."""
        end = self._x_ends[1]
        return None if end is None else -end[0]

    def _quantile_scale(self):
        return self.beta ** (-1.0 / self.alpha)

    def raw_moment(self, m):
        self.check_moment_order(m)
        r = m / self.alpha
        log_moment = 0.0 if m == 0 else self._y_log_moment(r)
        if log_moment is None:
            return self._moment_by_quadrature(m)
        return _exp(log_moment - r * math.log(self.beta))

    def _argmax(self):
        """The root in t = log x of d log pdf/d log x = alpha S - 1, S =
        _y_slope, by Newton steps kept inside a bracket grown from y = 1 in
        doubling steps; 0 where the slope does not rise above 0 out to
        |log y| = _LOG_Y_END on the origin's side."""
        a, log_b = self.alpha, math.log(self.beta)
        t, width = -log_b / a, 1.0 / abs(a)
        t_end = -(math.copysign(_LOG_Y_END, a) + log_b) / a
        lo, hi = -math.inf, math.inf
        for _ in range(_MAX_ITER):
            s, ds = self._y_slope(log_b + a * t)
            r, dr = a * s - 1.0, a * a * ds
            if r > 0.0:
                # at a finite pdf(0) the slope tends to 0 at the origin, where
                # rounding may set its sign and dr, free of it, has that sign
                if lo > -math.inf or hi == math.inf or dr > 0.0 or self._pdf_singular_power() != 0.0:
                    lo = t
            elif r == 0.0 and lo > -math.inf:
                return _exp(t)  # an exact root
            else:
                hi = t
            if lo == -math.inf and t == t_end:
                return 0.0
            if lo == -math.inf or hi == math.inf:  # toward the origin until a rise, then away
                t = max(t - width, t_end) if lo == -math.inf else t + width
                width *= 2.0
                continue
            tn = t - r / dr if dr else math.nan  # a slope flat to underflow: bisect
            if not lo < tn < hi:
                tn = 0.5 * (lo + hi)
            if abs(tn - t) <= _STEP_TOL * (abs(t) + 1.0):
                return _exp(tn)
            t = tn
        raise NoConvergenceError(f"mode did not converge in {_MAX_ITER} iterations")


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
        # left of 0 the cdf is the half-line survival over 2, not 1/2 minus
        # a share that rounds away the tail
        ax = np.abs(x)
        if not np.count_nonzero(x < 0.0):
            return 0.5 + 0.5 * self.half._cdf(ax)
        if not np.count_nonzero(x >= 0.0):
            return 0.5 * self.half._survival(ax)
        return np.where(x < 0.0, 0.5 * self.half._survival(ax), 0.5 + 0.5 * self.half._cdf(ax))

    def _survival(self, x):
        return self._cdf(-x)

    def _quantile(self, p, upper=False):
        """The half's quantile of the exact share beyond the median, cdf 2p - 1 from
        p = 1/2 up, survival 2p below, so mirrored p give mirrored x."""
        flat = p.reshape(-1)
        out = np.empty(flat.shape)
        up = flat >= 0.5
        if np.count_nonzero(up):
            out[up] = self.half._quantile(2.0 * flat[up] - 1.0)
        low = ~up
        if np.count_nonzero(low):
            out[low] = -self.half._quantile(2.0 * flat[low], upper=True)
        return (-out if upper else out).reshape(p.shape)

    def _draw(self, gen, size):
        """The half's draws, each with a fair random sign."""
        x = self.half._draw(gen, size)
        return np.where(gen.random(size) < 0.5, -x, x)

    def _pdf_tail_power(self):
        return self.half._pdf_tail_power()

    def check_moment_order(self, m):
        if not m % 2 == 1:  # an odd order vanishes; the half checks the rest, NaN too
            self.half.check_moment_order(m)

    def raw_moment(self, m):
        if not float(m).is_integer():  # x^m is not real for x < 0
            raise DomainError(f"moment order of a real-line law must be an integer, got m = {m:g}")
        self.check_moment_order(m)
        if m % 2 == 1:
            return 0.0
        return self.half.raw_moment(m)

    def mode(self):
        return ModeResult(kind="interior", x=0.0)

    def get_params(self):
        return {"half": self.half}

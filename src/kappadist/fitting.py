"""Sampling artifacts, maximum-likelihood fitting and tail diagnostics.

Fitting uses a derivative-free Nelder-Mead simplex (Comput. J. 7, 1965)
over transformed coordinates: log for positive parameters and a scaled
logit for kappa, so every simplex point maps to a valid distribution.
Restarts from three deterministic kappa seeds guard against the
likelihood plateau near kappa = 0.  Fitting loads no scipy module.
"""

import inspect
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .core import _exp
from .errors import (
    BoundaryFitError,
    DomainError,
    FitNonConvergenceError,
    InsufficientTailPointsError,
    UnsupportedOrderError,
)
from .framework import as_integer
from .type1 import Type1
from .type2 import Type2
from .type3 import Type3
from .type4 import Type4
from .type5 import Type5

__all__ = ["Sample", "FitResult", "fit_mle", "tail_index"]

# The family registry read by fit_mle and the CLI: name -> (class, floor
# of kappa in the fitting transform).  Parameter names come from the
# class's constructor signature.
FAMILIES = {
    "type1": (Type1, 0.0),
    "type2": (Type2, 0.0),
    "type3": (Type3, 0.0),
    "type4": (Type4, 2e-3),
    "type5": (Type5, 0.0),
}

_KAPPA_CAP = 0.985
_BOUNDARY = 0.96


@dataclass(frozen=True)
class Sample:
    """Validated, ascending-sorted, non-negative data vector."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise DomainError("sample must be a non-empty 1-d collection")
        if not np.all(np.isfinite(v)):
            raise DomainError("sample values must all be finite")
        if np.any(v < 0.0):
            raise DomainError("sample values must be non-negative")
        object.__setattr__(self, "values", np.sort(v))

    def __len__(self):
        return self.values.size

    @classmethod
    def from_file(cls, path, col=0):
        """One value per line; CSV column col, counted from 0, selectable.
        A first non-empty line none of whose fields is a number is a header
        and is skipped (``kappadist sample`` writes ``value``).  Parse
        failures name the offending line number."""
        rows = []
        first = True
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(",")
                if first:
                    first = False
                    if not any(_is_number(f) for f in fields):
                        continue
                if not 0 <= col < len(fields):
                    raise DomainError(
                        f"line {lineno}: column {col} missing ({len(fields)} columns)"
                    )
                token = fields[col].strip()
                try:
                    rows.append(float(token))
                except ValueError:
                    raise DomainError(
                        f"line {lineno}: could not parse {token!r} as a number"
                    ) from None
        if not rows:
            raise DomainError(f"{path}: no data rows")
        return cls(np.asarray(rows))


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class FitResult:
    distribution: object
    params: dict
    log_likelihood: float
    converged: bool
    iterations: int
    stderr: dict | None = None
    trace: tuple = field(default=(), repr=False)


def _kappa_to_t(kappa, floor):
    frac = (kappa - floor) / (_KAPPA_CAP - floor)
    frac = min(max(frac, 1e-9), 1.0 - 1e-9)
    return math.log(frac / (1.0 - frac))


def _t_to_kappa(t, floor):
    # the logistic 1/(1 + e^-t), 0 where e^-t overflows
    return floor + (_KAPPA_CAP - floor) * (1.0 / (1.0 + _exp(-t)))


def _weibull_shape(cv):
    """The Weibull shape a in [0.08, 60] with coefficient of variation cv:
    the root of CV^2 = Gamma(1+2/a)/Gamma(1+1/a)^2 - 1, whose right side
    falls as a grows, by bisection to adjacent floats; 1 where no a in
    the bracket fits."""

    def cv_gap(a):
        g1 = math.lgamma(1.0 + 1.0 / a)
        g2 = math.lgamma(1.0 + 2.0 / a)
        return math.exp(g2 - 2.0 * g1) - 1.0 - cv * cv

    lo, hi = 0.08, 60.0
    if not cv_gap(lo) >= 0.0 >= cv_gap(hi):
        return 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if cv_gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def _default_init(family, sample):
    """Moment-matching starting point, anchored on the classical Weibull
    shape equation CV^2 = Gamma(1+2/a)/Gamma(1+1/a)^2 - 1."""
    v = sample.values
    mean = float(np.mean(v))
    sd = float(np.std(v))
    alpha0 = _weibull_shape(sd / mean if mean > 0.0 else 1.0)
    beta0 = (math.exp(math.lgamma(1.0 + 1.0 / alpha0)) / mean) ** alpha0
    init = {"alpha": alpha0, "beta": beta0}
    if family == "type1":
        init["nu"] = 1.0
    elif family == "type3":
        init["lam"] = 1.0
    elif family == "type5":
        init = {"n": 1, "beta": 1.0 / mean}
    return init


_Minimum = namedtuple("_Minimum", "x fun nit success")


def _nelder_mead(f, x0, xatol, fatol, maxiter):
    """Minimize f from x0 by the Nelder-Mead simplex, taking the steps,
    sorts and sums of scipy.optimize.minimize(method="Nelder-Mead") with
    these options, so its result to the bit: the start moves each
    coordinate by 5% (from 0 to 0.00025), reflection 1, expansion 2,
    contraction and shrink 1/2.  Returns the best vertex, its value, the
    iteration count and whether it converged before maxiter."""
    x0 = np.asarray(x0, dtype=float).flatten()
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(v) for v in sim], dtype=float)
    # sorted twice, as scipy does: argsort need not keep the order of ties
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            outside = fxr < fsim[-1]
            xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
            fxc = f(xc)
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return _Minimum(sim[0], np.min(fsim), iterations, iterations < maxiter)


def fit_mle(family, sample, init=None, fix_kappa=None):
    """Maximize the log likelihood of `sample` under the named family.

    `init` overrides the moment-matching starting point; `fix_kappa`
    profiles out kappa entirely (e.g. fix_kappa=0 gives the classical
    sub-family MLE).  Deterministic given (family, sample, init).
    """
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}; expected one of {sorted(FAMILIES)}")
    ctor, floor = FAMILIES[family]
    names = inspect.signature(ctor).parameters
    # every parameter but kappa and the fixed order n is positive: log coordinates
    positive = tuple(n for n in names if n not in ("kappa", "n"))
    if not isinstance(sample, Sample):
        sample = Sample(np.asarray(sample, dtype=float))
    v = sample.values
    if float(v[0]) == float(v[-1]):
        raise FitNonConvergenceError("degenerate sample: all values are equal")

    start = _default_init(family, sample)
    if init:
        start.update(init)
    fixed = {}
    if "n" in names:
        fixed["n"] = as_integer(start["n"])
        if fixed["n"] is None:
            raise UnsupportedOrderError(f"the order n must be an integer, got n = {start['n']!r}")

    def build(theta):
        params = dict(fixed)
        for name, t in zip(positive, theta):
            params[name] = math.exp(t)
        if fix_kappa is None:
            params["kappa"] = _t_to_kappa(theta[len(positive)], floor)
        else:
            params["kappa"] = float(fix_kappa)
        return ctor(**params)

    def nll(theta):
        try:
            dist = build(theta)
            ll = float(np.sum(dist.logpdf(v)))
        except DomainError:
            return 1e300
        if not math.isfinite(ll):
            return 1e300
        return -ll

    theta0 = [math.log(start[name]) for name in positive]
    if fix_kappa is not None:
        build(theta0)  # a kappa outside the family's domain is a DomainError, not a failed fit
        kappa_seeds = [None]
    else:
        kappa_seeds = [start["kappa"]] if "kappa" in start else [0.05, 0.2, 0.4]

    best = None
    trace = []
    total_iter = 0
    for k0 in kappa_seeds:
        x0 = list(theta0)
        if fix_kappa is None:
            x0.append(_kappa_to_t(max(k0, floor + 1e-6), floor))
        res = _nelder_mead(nll, x0, xatol=1e-9, fatol=1e-10, maxiter=4000)
        total_iter += int(res.nit)
        trace.append(float(res.fun))
        if best is None or res.fun < best.fun:
            best = res

    if best.fun >= 1e300:
        raise FitNonConvergenceError("likelihood never became finite", best=None)

    dist = build(best.x)
    params = dist.get_params()
    if fix_kappa is None and params["kappa"] > _BOUNDARY:
        raise BoundaryFitError(
            f"kappa estimate {params['kappa']:.4f} pinned at the upper boundary",
            best=FitResult(dist, params, -float(best.fun), False, total_iter),
        )

    stderr = _stderr(nll, best.x, positive, dist, fix_kappa, floor)
    result = FitResult(
        distribution=dist,
        params=params,
        log_likelihood=-float(best.fun),
        converged=bool(best.success),
        iterations=total_iter,
        stderr=stderr,
        trace=tuple(trace),
    )
    if not best.success:
        raise FitNonConvergenceError(
            f"simplex did not converge after {total_iter} iterations", best=result
        )
    return result


def _stderr(nll, xhat, positive, dist, fix_kappa, floor):
    """Asymptotic standard errors in natural coordinates, via a
    finite-difference Hessian of the negative log likelihood and the
    delta method through the coordinate transform."""
    n = len(xhat)
    h = 1e-4
    hess = np.empty((n, n))
    f0 = nll(xhat)
    for i in range(n):
        for j in range(i, n):
            e_i = np.zeros(n)
            e_j = np.zeros(n)
            e_i[i] = h
            e_j[j] = h
            fpp = nll(xhat + e_i + e_j)
            fpm = nll(xhat + e_i - e_j)
            fmp = nll(xhat - e_i + e_j)
            fmm = nll(xhat - e_i - e_j)
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    if not np.all(np.isfinite(hess)) or not math.isfinite(f0):
        return None
    cov_t = np.linalg.pinv(hess)
    var_t = np.clip(np.diag(cov_t), 0.0, np.inf)
    params = dist.get_params()
    out = {}
    for idx, name in enumerate(positive):
        # d(param)/d(log param) = param
        out[name] = params[name] * math.sqrt(var_t[idx])
    if fix_kappa is None:
        k = params["kappa"]
        frac = (k - floor) / (_KAPPA_CAP - floor)
        dk_dt = (_KAPPA_CAP - floor) * frac * (1.0 - frac)
        out["kappa"] = dk_dt * math.sqrt(var_t[len(positive)])
    return out


def tail_index(sample, fraction):
    """Hill estimate of the Pareto density exponent b in p(x) ~ A x^-b,
    computed from the top `fraction` of the order statistics."""
    if not isinstance(sample, Sample):
        sample = Sample(np.asarray(sample, dtype=float))
    if not 0.0 < fraction <= 0.5:
        raise DomainError("fraction must lie in (0, 0.5]")
    v = sample.values
    n = v.size
    k = int(math.floor(n * fraction))
    if k < 30:
        raise InsufficientTailPointsError(
            f"tail fraction {fraction:g} of n = {n} keeps only {k} points (< 30)"
        )
    threshold = v[n - k - 1]
    if not threshold > 0.0:
        raise DomainError("tail threshold must be positive")
    gamma = float(np.mean(np.log(v[n - k :] / threshold)))
    return 1.0 + 1.0 / gamma

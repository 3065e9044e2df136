"""Independent numerical ground truth: quadrature on [0, inf),
finite-difference derivatives, and bracketed argmax.

The quadrature splits the half axis at a caller-supplied scale and maps
the tail through u = 1/x, so Pareto tails x^-a with a > 1 become
integrable endpoint behavior instead of a truncation error.  Optional
power hints remove known algebraic endpoint singularities exactly.

Every routine reports an error estimate and raises NoConvergenceError
instead of returning a value it cannot certify.
"""

import math
import os
from dataclasses import dataclass

from scipy import integrate

from .errors import DomainError, NoConvergenceError

_BUDGET_ENV = "KAPPA_DIST_EVAL_BUDGET"


def _default_budget():
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return 2_000_000
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{_BUDGET_ENV} must be an integer, got {raw!r}")


@dataclass(frozen=True)
class OracleResult:
    value: float
    abs_error_estimate: float
    evaluations: int


class _BudgetExceeded(Exception):
    pass


class _Counted:
    """Wraps an integrand, counting calls and enforcing the evaluation budget."""

    def __init__(self, f, budget):
        self.f = f
        self.budget = budget
        self.count = 0

    def __call__(self, x):
        self.count += 1
        if self.count > self.budget:
            raise _BudgetExceeded()
        return self.f(x)


def integrate_semiaxis(
    f,
    tol=1e-10,
    scale=1.0,
    singular_power=None,
    tail_power=None,
    budget=None,
):
    """Adaptive quadrature of f over (0, inf).

    scale          split point between head and tail (use the
                   distribution's median scale, e.g. beta**(-1/alpha)).
    singular_power s with f ~ x**s as x -> 0 and -1 < s < 0; the head is
                   then computed under x = t**(1/(1+s)), which flattens
                   the singularity exactly.
    tail_power     a with f ~ x**-a as x -> inf; for 1 < a < 2 the
                   mapped tail integrand u**(a-2) is singular at u = 0
                   and is flattened by a further power substitution.
                   For a >= 2 it is not singular and the substitution,
                   t = u**(a-1), would under- or overflow at large a.

    Raises NoConvergenceError if the combined error estimate exceeds
    tol * max(1, |value|) or the evaluation budget runs out.
    """
    if budget is None:
        budget = _default_budget()
    if not scale > 0.0:
        raise DomainError("scale must be positive")
    g = _Counted(f, budget)
    # ask quad for more than we need so its own default cutoff never binds
    opts = {"limit": 200, "epsabs": 0.05 * tol, "epsrel": 0.05 * tol}

    try:
        # head: (0, scale]
        if singular_power is not None and -1.0 < singular_power < 0.0:
            p = 1.0 / (1.0 + singular_power)
            t_hi = scale ** (1.0 / p)
            head, err_h = integrate.quad(
                lambda t: g(t**p) * p * t ** (p - 1.0), 0.0, t_hi, **opts
            )
        else:
            head, err_h = integrate.quad(g, 0.0, scale, **opts)

        # tail: [scale, inf) mapped through u = 1/x
        u_hi = 1.0 / scale

        def mapped(u):
            return g(1.0 / u) / (u * u)

        if tail_power is not None and 1.0 < tail_power < 2.0:
            # u = t**q with q = 1/(a-1) turns u**(a-2) du into dt
            q = 1.0 / (tail_power - 1.0)
            t_hi = u_hi ** (1.0 / q)
            tail, err_t = integrate.quad(
                lambda t: mapped(t**q) * q * t ** (q - 1.0), 0.0, t_hi, **opts
            )
        else:
            tail, err_t = integrate.quad(mapped, 0.0, u_hi, **opts)
    except _BudgetExceeded:
        raise NoConvergenceError(
            f"quadrature exceeded evaluation budget of {budget}"
        ) from None

    value = head + tail
    err = err_h + err_t
    if err > tol * max(1.0, abs(value)):
        raise NoConvergenceError(
            f"quadrature error estimate {err:.3e} exceeds tolerance "
            f"{tol:.1e} (value {value:.6e})"
        )
    return OracleResult(value=value, abs_error_estimate=err, evaluations=g.count)


def differentiate(f, x, order=1, h0=None, budget=None):
    """Central finite difference with Richardson extrapolation.

    order 1 or 2.  The error estimate comes from the change between the
    last two step-halvings.
    """
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    if budget is None:
        budget = _default_budget()
    g = _Counted(f, budget)
    if h0 is None:
        h0 = 1e-2 * max(abs(x), 1.0)

    def central(h):
        if order == 1:
            return (g(x + h) - g(x - h)) / (2.0 * h)
        return (g(x + h) - 2.0 * g(x) + g(x - h)) / (h * h)

    try:
        best = None
        best_err = math.inf
        prev_rich = None
        h = h0
        d_prev = central(h)
        for _ in range(12):
            h *= 0.5
            d = central(h)
            # Richardson: leading error term is O(h^2) for both orders
            rich = (4.0 * d - d_prev) / 3.0
            if prev_rich is not None:
                err = abs(rich - prev_rich)
                if err <= best_err:
                    best, best_err = rich, err
                elif best_err < 1e-6 * max(1.0, abs(best)) and err > 4.0 * best_err:
                    break  # rounding noise is taking over
            prev_rich = rich
            d_prev = d
    except _BudgetExceeded:
        raise NoConvergenceError("differentiation exceeded evaluation budget") from None

    if best is None or not math.isfinite(best):
        raise NoConvergenceError(f"differentiation failed to converge at x = {x}")
    return OracleResult(value=best, abs_error_estimate=best_err, evaluations=g.count)


def argmax(f, lo, hi, tol=1e-10, budget=None):
    """Golden-section maximization of a unimodal f on [lo, hi]."""
    if not hi > lo:
        raise DomainError("argmax requires hi > lo")
    if budget is None:
        budget = _default_budget()
    g = _Counted(f, budget)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    try:
        fc, fd = g(c), g(d)
        while b - a > tol * max(1.0, abs(a) + abs(b)):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = g(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = g(d)
    except _BudgetExceeded:
        raise NoConvergenceError("argmax exceeded evaluation budget") from None
    return 0.5 * (a + b)

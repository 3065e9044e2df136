"""Exact numpy-only samplers for the benchmark's fit inputs.

They share no code with ``kappadist``: each inverts a closed form of the
survival or distribution function, so the fit inputs do not depend on the
library's own (generic, solver-based) ``sample``.  ``rng`` is a
``numpy.random.Generator`` seeded from the workload seed.
"""

import numpy as np


def _open_unit(rng, size):
    """Uniform draws on the open interval (0, 1)."""
    u = rng.random(size)
    u[u == 0.0] = 2.0**-53
    return u


def _neg_kappa_log(u, kappa):
    """-ln_k(u) = (u^-k - u^k) / (2k) for 0 < u <= 1."""
    return -np.sinh(kappa * np.log(u)) / kappa


def _power_map(y, alpha, beta):
    """x = (y / beta)^(1/alpha), the inverse of y = beta x^alpha."""
    return (y / beta) ** (1.0 / alpha)


def type2(rng, size, alpha, beta, kappa):
    """Survival kappa_exp(-beta x^alpha), inverted in closed form."""
    return _power_map(_neg_kappa_log(_open_unit(rng, size), kappa), alpha, beta)


def type3(rng, size, alpha, beta, lam, kappa):
    """Survival lam e / (1 + (lam - 1) e), e = kappa_exp(-beta x^alpha).

    Solving S = u for e gives e = u / (lam - (lam - 1) u).
    """
    u = _open_unit(rng, size)
    e = u / (lam - (lam - 1.0) * u)
    return _power_map(_neg_kappa_log(e, kappa), alpha, beta)


def type4(rng, size, alpha, beta, kappa):
    """cdf P with P^k = 2u / (u + sqrt(1 + u^2)), u = kappa beta x^alpha.

    Solving for u gives c = p^k, u = c / (2 sqrt(1 - c)).
    """
    log_c = kappa * np.log(_open_unit(rng, size))
    c = np.exp(log_c)
    u = c / (2.0 * np.sqrt(-np.expm1(log_c)))
    return _power_map(u, alpha, kappa * beta)


def type1(rng, size, alpha, beta, nu, kappa):
    """Incomplete-Beta mixture sampler for the deformed generalized Gamma.

    With y = beta x^alpha and s = (sqrt(1 + k^2 y^2) - k y)^2, the
    survival is w1 I_s(a, nu) + w2 I_s(a + 1, nu), a = 1/(2k) - nu/2,
    w1 = (a + nu)/(2a + nu), w2 = a/(2a + nu).  So s is drawn from the
    Beta mixture and mapped back through y = (s^-1/2 - s^1/2) / (2k).
    Requires alpha > 0 and 0 < nu < 1/kappa.
    """
    if not alpha > 0.0:
        raise ValueError("type1 sampler needs alpha > 0")
    a = 0.5 / kappa - 0.5 * nu
    w1 = (a + nu) / (2.0 * a + nu)
    first = rng.random(size) < w1
    s = np.where(first, rng.beta(a, nu, size), rng.beta(a + 1.0, nu, size))
    s = np.clip(s, np.finfo(float).tiny, None)
    y = (s**-0.5 - s**0.5) / (2.0 * kappa)
    return _power_map(y, alpha, beta)

import mpmath
import numpy as np
import pytest

from kappadist import oracle


def integrate_pdf(dist, tol=1e-9):
    """Independent quadrature of the density over its support, using the
    family's endpoint hints to flatten known singularities."""
    sp = dist._pdf_singular_power()
    if sp is not None and not -1.0 < sp < 0.0:
        sp = None
    scale = max(dist._quantile_scale(), dist.quantile(0.9))
    res = oracle.integrate_semiaxis(
        dist.pdf,
        tol=tol,
        scale=scale,
        singular_power=sp,
        tail_power=dist._pdf_tail_power(),
    )
    return res.value


def ks_statistic(draws, cdf):
    """Two-sided Kolmogorov-Smirnov distance of draws against cdf."""
    x = np.sort(np.asarray(draws, dtype=float))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return max(upper, lower)


def mp_log_mellin_ratio(r, kappa):
    """40-digit log(M_k(r)/Gamma(r)) from its Gamma-function form; 0 at kappa = 0."""
    with mpmath.workdps(40):
        r, k = mpmath.mpf(r), mpmath.mpf(kappa)
        if k == 0:
            return mpmath.mpf(0)
        z = 1 / (2 * k)
        lg = mpmath.loggamma
        return -(r + 1) * mpmath.log(2 * k) + lg(z - r / 2) - lg(z + 1 + r / 2)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20260823))

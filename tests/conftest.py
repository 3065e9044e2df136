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


# Type V orders above 3 at kappa inside their windows kappa < 1/(n - 2):
# near 0, inside, past the mode's turn at 1/(n - 1), and at the edge
TYPE5_HIGH_ORDERS = [(n, f / (n - 2)) for n in range(4, 9) for f in (1e-3, 0.5, 0.98, 0.9999)]


def mp_xi(q, kappa):
    """40-digit xi(q) = prod_(j=1..(q-1)//2) (1 - ((q-2j) k)^2), the Taylor
    coefficient of x^q/q! in exp_k(x) and P_(q+1)(0) of the Type V ladder."""
    with mpmath.workdps(40):
        k = mpmath.mpf(kappa)
        return mpmath.fprod(1 - ((q - 2 * j) * k) ** 2 for j in range(1, (q - 1) // 2 + 1))


def mp_type5_ladder(top, kappa):
    """40-digit Type V ladder [P_1, ..., P_top], each as its coefficients from
    t^0 up: P_1 = P_2 = 1, P_(m+1) = (1 + (m-1) k t) P_m - k (1 - t^2) P_m'."""
    with mpmath.workdps(40):
        k = mpmath.mpf(kappa)
        ladder = [[mpmath.mpf(1)], [mpmath.mpf(1)]]
        for m in range(2, top):
            p = ladder[-1] + [0, 0]
            ladder.append(
                [p[0] - k * p[1]] + [p[i] - (i + 1) * k * p[i + 1] + (m - 2 + i) * k * p[i - 1] for i in range(1, m)]
            )
        return ladder


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20260823))

"""Self-tests of the benchmark's exact samplers against the library's cdf.

    python3 -m pytest perfbench
"""

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import gen  # noqa: E402
import kappadist  # noqa: E402
from workloads import KS_COEF, ks_distance  # noqa: E402

N = 20_000
KAPPAS = (0.05, 0.3, 0.7, 0.9)


def _assert_ks(x, dist):
    assert x.shape == (N,) and np.all(np.isfinite(x)) and np.all(x > 0.0)
    assert ks_distance(x, dist.cdf) <= KS_COEF / math.sqrt(N)


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("alpha, nu", [(1.5, 1.0), (2.5, 0.5), (0.7, 2.0)])
def test_type1_mixture_sampler(kappa, alpha, nu):
    if not nu < 1.0 / kappa:
        pytest.skip("nu must be below 1/kappa")
    x = gen.type1(np.random.default_rng(1), N, alpha, 1.3, nu, kappa)
    _assert_ks(x, kappadist.Type1(alpha, 1.3, nu, kappa))


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("alpha", [0.6, 1.0, 2.5])
def test_type2_sampler(kappa, alpha):
    x = gen.type2(np.random.default_rng(2), N, alpha, 0.8, kappa)
    _assert_ks(x, kappadist.Type2(alpha, 0.8, kappa))


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_type3_sampler(kappa, lam):
    x = gen.type3(np.random.default_rng(3), N, 1.5, 1.2, lam, kappa)
    _assert_ks(x, kappadist.Type3(1.5, 1.2, lam, kappa))


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("alpha", [0.8, 1.5, 3.0])
def test_type4_sampler(kappa, alpha):
    x = gen.type4(np.random.default_rng(4), N, alpha, 0.9, kappa)
    _assert_ks(x, kappadist.Type4(alpha, 0.9, kappa))


@pytest.mark.parametrize("alpha, beta, kappa", [(1.5, 1.0, 0.3), (0.8, 2.0, 0.7), (3.0, 0.5, 0.9)])
def test_type4_inverse_is_exact(alpha, beta, kappa):
    """The sampler is the closed-form inverse of the cdf: cdf(x(p)) = p."""

    class Fixed:
        def __init__(self, p):
            self.p = p

        def random(self, size):
            return self.p.copy()

    p = np.linspace(0.01, 0.99, 99)
    x = gen.type4(Fixed(p), p.size, alpha, beta, kappa)
    assert np.max(np.abs(kappadist.Type4(alpha, beta, kappa).cdf(x) - p)) <= 1e-13


def test_type5_order_one_is_type2_alpha_one():
    """The fitting operations draw Type5(n=1) data with the Type2(alpha=1) sampler."""
    x = gen.type2(np.random.default_rng(5), N, 1.0, 1.0, 0.7)
    _assert_ks(x, kappadist.Type5(1, 1.0, 0.7))


def test_samplers_are_seeded():
    a = gen.type1(np.random.default_rng(9), 100, 1.5, 1.0, 1.0, 0.3)
    b = gen.type1(np.random.default_rng(9), 100, 1.5, 1.0, 1.0, 0.3)
    assert np.array_equal(a, b)

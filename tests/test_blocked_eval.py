"""An array of more than framework._BLOCK points is evaluated in blocks of
_BLOCK: each public array method hands no private method more points than
that, and its values are those of one private call on the whole array, to
the bit (NaN for NaN), for every family and every symmetrized law."""

import math

import numpy as np
import pytest

from kappadist import (
    KappaErlang,
    KappaLogistic,
    KappaNormal,
    Type1,
    Type2,
    Type3,
    Type4,
    Type5,
    framework,
)

B = framework._BLOCK
SIZES = [(), (1,), (B - 1,), (B,), (B + 1,), (2 * B + 1,), (100_000,), (3, B // 2 + 7)]
PRIVATE = ("_pdf", "_logpdf", "_cdf", "_survival", "_hazard", "_hazard_rate", "_cum_hazard")


def _half_lines(k):
    return [
        Type1(1.5, 1.0, 0.5, k),
        Type1(-2.0, 1.0, 1.05, k),
        Type1(1.5, 1.0, 1.0, k),
        Type2(1.5, 1.0, k),
        Type2(-1.5, 1.0, k),
        Type3(1.5, 1.0, 2.0, k),
        Type3(-1.5, 1.0, 0.5, k),
        Type4(1.5, 1.0, k),
        Type5(3, 1.0, k),
        KappaErlang(2 if 2.0 * k < 1.0 else 1, 1.0, k),
    ]


LAWS = []
for k in (0.3, 0.9):
    half = _half_lines(k)
    LAWS += [*half, *(h.symmetrize() for h in half), KappaNormal(1.0, k), KappaLogistic(1.0, k)]


def _methods(law):
    extra = ("hazard_rate", "cum_hazard") if isinstance(law, Type3) else ()
    return ("pdf", "logpdf", "cdf", "survival", "hazard", *extra)


def _points(shape):
    """sinh of an even grid, both signs, with NaN, +-inf, 0 and -1 mixed in;
    0.75 for fewer than five points."""
    n = math.prod(shape)
    if n < 5:
        return np.full(shape, 0.75)
    x = np.sinh(np.linspace(-8.0, 8.0, n))
    for i, v in enumerate((math.nan, math.inf, -math.inf, 0.0, -1.0)):
        x[(i * 7919) % n] = v
    return x.reshape(shape)


def _spy(law):
    """Wrap the law's private evaluation methods; the list gets each call's size."""
    sizes = []
    for name in PRIVATE:
        fn = getattr(law, name, None)
        if fn is not None:
            def spy(x, fn=fn):
                sizes.append(np.size(x))
                return fn(x)

            setattr(law, name, spy)
    return sizes


def _bits(v):
    """The bits of v, each NaN as np.nan: the sign of a NaN that an operation
    returns follows the NaN's place in numpy's vector loops, so it varies with
    the array's length for one and the same kernel."""
    v = np.asarray(v, dtype=float)
    return np.where(np.isnan(v), np.nan, v).view(np.uint64)


@pytest.mark.parametrize("law", LAWS, ids=repr)
def test_blocks_match_one_call(law, monkeypatch):
    sizes = _spy(law)
    for method in _methods(law):
        for shape in SIZES:
            x = _points(shape)
            sizes.clear()
            got = getattr(law, method)(x)
            assert max(sizes) <= B, (method, shape)
            # one private call on the whole array, as where x fits in a block
            with monkeypatch.context() as m:
                m.setattr(framework, "_BLOCK", x.size)
                sizes.clear()
                whole = getattr(law, method)(x)
            assert max(sizes) == (x.size if law.support_real_line else np.count_nonzero(~(x < 0.0)))
            assert type(got) is type(whole) and np.shape(got) == x.shape, (method, shape)
            assert np.array_equal(_bits(got), _bits(whole)), (method, shape)


@pytest.mark.parametrize(
    "law",
    [Type1(1.5, 1.0, 2.0, 0.3), Type3(1.5, 1.0, 2.0, 0.9), Type5(3, 1.0, 0.3), Type2(1.5, 1.0, 0.3),
     Type4(1.5, 1.0, 0.9).symmetrize(), KappaLogistic(1.0, 0.3)],
    ids=repr,
)
def test_quantile_of_slices(law):
    p = np.linspace(0.0, 1.0, 2 * B + 3)[1:-1]  # 2B + 1 points inside (0, 1)
    got = law.quantile(p)
    parts = [law.quantile(p[i : i + B]) for i in range(0, p.size, B)]
    assert len(parts) == 3
    assert np.array_equal(_bits(got), _bits(np.concatenate(parts)))

import math

import numpy as np
import pytest
from scipy import stats

from kappadist import (
    DegenerateFamilyError,
    DomainError,
    FitNonConvergenceError,
    InsufficientTailPointsError,
    Sample,
    Type2,
    Type5,
    UnsupportedOrderError,
    fit_mle,
    tail_index,
)


class TestSample:
    def test_sorted_and_validated(self):
        s = Sample(np.array([3.0, 1.0, 2.0]))
        assert np.array_equal(s.values, [1.0, 2.0, 3.0])
        assert len(s) == 3
        with pytest.raises(DomainError):
            Sample(np.array([]))
        with pytest.raises(DomainError):
            Sample(np.array([1.0, -2.0]))
        with pytest.raises(DomainError):
            Sample(np.array([1.0, np.inf]))

    def test_from_file(self, tmp_path):
        f = tmp_path / "data.txt"
        f.write_text("1.0\n2.5\n0.3\n")
        s = Sample.from_file(str(f))
        assert np.array_equal(s.values, [0.3, 1.0, 2.5])

    def test_from_file_names_bad_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1.0\nabc\n2.0\n")
        with pytest.raises(DomainError, match="line 2"):
            Sample.from_file(str(f))

    def test_from_file_skips_header(self, tmp_path):
        f = tmp_path / "draws.csv"
        f.write_text("value\n1.0\n2.5\n")
        assert np.array_equal(Sample.from_file(str(f)).values, [1.0, 2.5])
        f.write_text("\nname,value\na,1.5\nb,x\n")
        with pytest.raises(DomainError, match="line 4"):
            Sample.from_file(str(f), col=1)
        f.write_text("value\n")
        with pytest.raises(DomainError, match="no data rows"):
            Sample.from_file(str(f))

    def test_from_file_column_selection(self, tmp_path):
        f = tmp_path / "cols.csv"
        f.write_text("a,1.5\nb,2.5\n")
        s = Sample.from_file(str(f), col=1)
        assert np.array_equal(s.values, [1.5, 2.5])
        with pytest.raises(DomainError, match="line 1"):
            Sample.from_file(str(f), col=2)


    @pytest.mark.parametrize("col", [-1, -3])
    def test_from_file_rejects_a_negative_column(self, tmp_path, col):
        f = tmp_path / "cols.csv"
        f.write_text("a,1.5\nb,2.5\n")
        with pytest.raises(DomainError, match=f"line 1: column {col} missing"):
            Sample.from_file(str(f), col=col)


class TestFitMle:
    def test_recovers_type2_parameters(self):
        true = Type2(2.0, 1.0, 0.3)
        data = Sample(true.sample(10000, 42))
        res = fit_mle("type2", data)
        assert res.converged
        for name, truth in (("alpha", 2.0), ("beta", 1.0), ("kappa", 0.3)):
            err = abs(res.params[name] - truth)
            assert err < 3.0 * res.stderr[name], f"{name}: {res.params[name]}"

    def test_deterministic(self):
        data = Sample(Type2(1.5, 1.0, 0.2).sample(2000, 7))
        r1 = fit_mle("type2", data)
        r2 = fit_mle("type2", data)
        assert r1.params == r2.params
        assert r1.log_likelihood == r2.log_likelihood

    def test_fixed_kappa_zero_matches_classical_weibull_mle(self):
        # independent oracle: scipy's Weibull MLE with fixed location
        rng = np.random.Generator(np.random.Philox(3))
        data = stats.weibull_min.rvs(1.7, scale=2.0, size=5000, random_state=rng)
        res = fit_mle("type2", Sample(data), fix_kappa=0.0)
        c, _, scale = stats.weibull_min.fit(data, floc=0.0)
        assert res.params["alpha"] == pytest.approx(c, rel=1e-3)
        assert res.params["beta"] ** (-1.0 / res.params["alpha"]) == pytest.approx(
            scale, rel=1e-3
        )
        assert res.params["kappa"] == 0.0

    @pytest.mark.parametrize(
        "family, kappa, error",
        [
            ("type2", 1.5, DomainError),
            ("type2", math.nan, DomainError),
            ("type2", -0.1, DomainError),
            ("type4", 0.0, DegenerateFamilyError),
            ("type5", 0.5, UnsupportedOrderError),  # outside order 4's window kappa < 1/2
        ],
    )
    def test_fixed_kappa_outside_the_domain_is_a_domain_error(self, family, kappa, error):
        data = Sample(Type2(1.5, 1.0, 0.2).sample(500, 7))
        init = {"n": 4} if family == "type5" else None
        with pytest.raises(error):
            fit_mle(family, data, init=init, fix_kappa=kappa)

    def test_classical_data_yields_small_kappa(self):
        # kappa enters the density only through kappa^2, so the estimate
        # decays like n^(-1/4): the n = 1e5 scale is load-bearing here
        rng = np.random.Generator(np.random.Philox(5))
        data = stats.weibull_min.rvs(2.0, scale=1.0, size=100000, random_state=rng)
        res = fit_mle("type2", Sample(data))
        assert res.params["kappa"] < 0.05

    def test_loglik_trace_never_decreases(self):
        data = Sample(Type2(2.0, 1.0, 0.3).sample(2000, 9))
        res = fit_mle("type2", data)
        # the reported optimum is at least as good as every restart's end point
        assert -res.log_likelihood <= min(res.trace) + 1e-9

    def test_degenerate_sample(self):
        with pytest.raises(FitNonConvergenceError):
            fit_mle("type2", Sample(np.full(50, 3.0)))

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            fit_mle("type9", Sample(np.array([1.0, 2.0])))

    def test_fit_type1(self):
        true_params = (1.0, 1.0, 2.0, 0.2)
        from kappadist import Type1

        data = Sample(Type1(*true_params).sample(40000, 21))
        res = fit_mle("type1", data)
        assert abs(res.params["nu"] - 2.0) < 0.5
        assert res.log_likelihood > float(
            np.sum(Type1(*true_params).logpdf(data.values))
        ) - 10.0


class TestFitOrder:
    """Type V's order is fixed, not fitted: it is checked as Type5 checks it."""

    DATA = Sample(Type5(2, 1.0, 0.3).sample(500, 3))

    @pytest.mark.parametrize("n", [2.5, True, math.nan])
    def test_non_integer_order_raises(self, n):
        with pytest.raises(UnsupportedOrderError):
            Type5(n, 1.0, 0.3)
        with pytest.raises(UnsupportedOrderError):
            fit_mle("type5", self.DATA, init={"n": n})

    @pytest.mark.parametrize("n", [2, 2.0])
    def test_integral_order_fits(self, n):
        res = fit_mle("type5", self.DATA, init={"n": n})
        assert res.params["n"] == 2 and type(res.params["n"]) is int


class TestTailIndex:
    def test_exact_pareto(self):
        # survival x^-(b-1) on x >= 1, density exponent b = 3
        rng = np.random.Generator(np.random.Philox(11))
        u = rng.random(200000)
        draws = (1.0 - u) ** (-1.0 / 2.0)
        assert tail_index(Sample(draws), 0.05) == pytest.approx(3.0, rel=0.05)

    def test_type2_synthetic(self):
        d = Type2(1.0, 1.0, 0.25)
        draws = Sample(d.sample(300000, 1))
        assert tail_index(draws, 0.002) == pytest.approx(1.0 + 1.0 / 0.25, rel=0.10)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientTailPointsError):
            tail_index(Sample(np.linspace(1.0, 2.0, 20)), 0.5)

    def test_fraction_domain(self):
        s = Sample(np.linspace(1.0, 2.0, 1000))
        with pytest.raises(DomainError):
            tail_index(s, 0.0)
        with pytest.raises(DomainError):
            tail_index(s, 0.6)


class TestSamplingQuantileDuality:
    def test_empirical_quantiles_match_analytic(self):
        d = Type2(2.0, 1.0, 0.3)
        n = 100000
        draws = np.sort(d.sample(n, 23))
        for p in (0.5, 0.9, 0.99):
            emp = draws[int(p * n)]
            q = d.quantile(p)
            # 3x asymptotic order-statistic noise: sqrt(p(1-p)/n)/pdf(q)
            noise = math.sqrt(p * (1 - p) / n) / d.pdf(q)
            assert abs(emp - q) < 3.0 * noise

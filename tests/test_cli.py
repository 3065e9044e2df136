import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kappadist
from kappadist import cli
from kappadist.cli import run

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def invoke(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_single_row_csv(self, capsys):
        code, out, err = invoke(
            ["eval", "--family", "type2", "--alpha", "2", "--beta", "1",
             "--kappa", "0.3", "--x", "1.5", "--what", "pdf,cdf,hazard"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,pdf,cdf,hazard"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert float(fields[0]) == 1.5
        from kappadist import Type2

        d = Type2(2.0, 1.0, 0.3)
        assert float(fields[1]) == pytest.approx(d.pdf(1.5), rel=1e-15)
        assert float(fields[2]) == pytest.approx(d.cdf(1.5), rel=1e-15)

    def test_json_schema(self, capsys):
        code, out, _ = invoke(
            ["eval", "--family", "type2", "--alpha", "2", "--beta", "1",
             "--kappa", "0.3", "--x", "1.0,2.0", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["family", "params", "rows"]
        assert doc["family"] == "type2"
        assert doc["params"]["alpha"] == 2.0
        assert len(doc["rows"]) == 2
        assert set(doc["rows"][0]) == {"x", "pdf"}

    def test_missing_required_param(self, capsys):
        code, _, err = invoke(
            ["eval", "--family", "type1", "--alpha", "1", "--beta", "1",
             "--kappa", "0.3", "--x", "1.0"],
            capsys,
        )
        assert code == 2
        assert "--nu" in err

    def test_invalid_parameters_domain_error(self, capsys):
        code, _, err = invoke(
            ["eval", "--family", "type2", "--alpha", "2", "--beta", "-1",
             "--kappa", "0.3", "--x", "1.0"],
            capsys,
        )
        assert code == 3
        assert "beta" in err

    def test_unknown_function(self, capsys):
        code, _, _ = invoke(
            ["eval", "--family", "type2", "--alpha", "2", "--beta", "1",
             "--kappa", "0.3", "--x", "1.0", "--what", "entropy"],
            capsys,
        )
        assert code == 2


class TestTabulate:
    def test_log_grid_row_count(self, capsys):
        code, out, _ = invoke(
            ["tabulate", "--family", "type4", "--kappa", "0.5", "--alpha", "1",
             "--beta", "1", "--grid", "log:1e-3:1e3:200", "--what", "pdf"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 201  # header + 200 rows

    def test_tail_slope_from_table(self, capsys):
        code, out, _ = invoke(
            ["tabulate", "--family", "type4", "--kappa", "0.5", "--alpha", "1",
             "--beta", "1", "--grid", "log:1e5:1e6:10", "--what", "pdf"],
            capsys,
        )
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        x = np.array([float(r[0]) for r in rows])
        p = np.array([float(r[1]) for r in rows])
        slope = np.polyfit(np.log(x), np.log(p), 1)[0]
        # Type IV tail: pdf ~ x^-(1 + 2 alpha)
        assert slope == pytest.approx(-3.0, abs=1e-3)

    def test_lin_grid(self, capsys):
        code, out, _ = invoke(
            ["tabulate", "--family", "type2", "--alpha", "1", "--beta", "1",
             "--kappa", "0.2", "--grid", "lin:0:5:6", "--what", "cdf"],
            capsys,
        )
        xs = [float(l.split(",")[0]) for l in out.strip().split("\n")[1:]]
        assert xs == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize(
        "grid", ["lin:0:5", "geo:1:2:5", "lin:5:0:10", "log:0:1:5", "lin:a:b:5"]
    )
    def test_bad_grid_is_usage_error(self, grid, capsys):
        code, _, _ = invoke(
            ["tabulate", "--family", "type2", "--alpha", "1", "--beta", "1",
             "--kappa", "0.2", "--grid", grid],
            capsys,
        )
        assert code == 2


class TestMoments:
    def test_divergent_order_flagged_exit_3(self, capsys):
        code, out, err = invoke(
            ["moments", "--family", "type1", "--alpha", "1", "--nu", "1",
             "--beta", "1", "--kappa", "0.3", "--orders", "1,2,3"],
            capsys,
        )
        assert code == 3
        lines = out.strip().split("\n")
        assert lines[0] == "order,value,divergent,constraint"
        rows = [l.split(",") for l in lines[1:]]
        assert [r[2] for r in rows] == ["0", "0", "1"]
        assert "0 < nu + m/alpha < 1/kappa" in err
        assert rows[2][3] == "0 < nu + m/alpha < 1/kappa"

    def test_all_orders_valid_exit_0(self, capsys):
        code, out, _ = invoke(
            ["moments", "--family", "type2", "--alpha", "2", "--beta", "1",
             "--kappa", "0.3", "--orders", "1,2"],
            capsys,
        )
        assert code == 0
        from kappadist import Type2

        d = Type2(2.0, 1.0, 0.3)
        rows = [l.split(",") for l in out.strip().split("\n")[1:]]
        assert float(rows[0][1]) == pytest.approx(d.raw_moment(1), rel=1e-15)

    def test_nan_order_is_a_domain_error(self, capsys):
        # no row flags a NaN order as divergent: it lies on no side of the window
        code, out, err = invoke(
            ["moments", "--family", "type2", "--alpha", "1.5", "--beta", "1",
             "--kappa", "0.3", "--orders", "1,nan"],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert err.startswith("kappadist: domain error:") and "nan" in err
        assert "diverges" not in err


class TestSampleCommand:
    def test_byte_identical_reruns(self, capsys):
        argv = ["sample", "--family", "type2", "--alpha", "2", "--beta", "1",
                "--kappa", "0.3", "--count", "50", "--seed", "7"]
        _, out1, _ = invoke(argv, capsys)
        _, out2, _ = invoke(argv, capsys)
        assert out1 == out2
        assert len(out1.strip().split("\n")) == 51

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "draws.csv"
        code, out, _ = invoke(
            ["sample", "--family", "type5", "--n", "2", "--beta", "1",
             "--kappa", "0.4", "--count", "10", "--seed", "3",
             "--out", str(target)],
            capsys,
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("value\n")


class TestFitAndTail:
    @pytest.fixture
    def datafile(self, tmp_path):
        from kappadist import Type2

        f = tmp_path / "sample.csv"
        draws = Type2(2.0, 1.0, 0.3).sample(2000, 42)
        f.write_text("\n".join(repr(float(v)) for v in draws) + "\n")
        return str(f)

    def test_fit(self, datafile, capsys):
        code, out, _ = invoke(["fit", "--family", "type2", "--input", datafile], capsys)
        assert code == 0
        rows = dict(
            (l.split(",")[0], float(l.split(",")[1]))
            for l in out.strip().split("\n")[1:]
        )
        assert abs(rows["alpha"] - 2.0) < 0.3
        assert abs(rows["kappa"] - 0.3) < 0.15

    def test_tail(self, capsys, tmp_path):
        rng = np.random.Generator(np.random.Philox(1))
        draws = (1.0 - rng.random(50000)) ** -0.5  # Pareto, density exponent 3
        f = tmp_path / "pareto.txt"
        f.write_text("\n".join(repr(float(v)) for v in draws) + "\n")
        code, out, _ = invoke(
            ["tail", "--input", str(f), "--fraction", "0.05"], capsys
        )
        assert code == 0
        value = float(out.strip().split("\n")[1])
        assert value == pytest.approx(3.0, rel=0.08)

    def test_sample_output_feeds_fit(self, capsys, tmp_path):
        target = tmp_path / "draws.csv"
        code, _, _ = invoke(
            ["sample", "--family", "type2", "--alpha", "2", "--beta", "1",
             "--kappa", "0.3", "--count", "2000", "--seed", "4",
             "--out", str(target)],
            capsys,
        )
        assert code == 0
        code, out, _ = invoke(
            ["fit", "--family", "type2", "--input", str(target)], capsys
        )
        assert code == 0
        assert out.startswith("param,estimate")

    def test_parse_error_names_line(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1.0\nabc\n")
        code, _, err = invoke(["tail", "--input", str(f)], capsys)
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys):
        code, _, _ = invoke(["fit", "--family", "type2", "--input", "/no/such"], capsys)
        assert code == 2

    @pytest.mark.parametrize("col", ["-1", "-3"])
    def test_negative_column_is_a_usage_error(self, datafile, capsys, col):
        for argv in (["tail"], ["fit", "--family", "type2"]):
            code, out, err = invoke([*argv, "--input", datafile, "--col", col], capsys)
            assert code == 2 and out == ""
            assert f"column {col} missing" in err

    @pytest.mark.parametrize("family, kappa", [("type2", "1.5"), ("type2", "nan"), ("type2", "-0.1"), ("type4", "0")])
    def test_fixed_kappa_outside_the_domain_exits_3(self, datafile, capsys, family, kappa):
        code, out, err = invoke(
            ["fit", "--family", family, "--input", datafile, "--fix-kappa", kappa], capsys
        )
        assert code == 3 and out == ""
        assert "domain error" in err


def run_console_script(*args):
    """Run the ``kappadist`` console script declared in ``pyproject.toml`` as
    a child process, the way the installer-generated wrapper runs it, but
    through this interpreter, so no installed copy on PATH is needed (or
    used).  The child imports the same ``kappadist`` source as this process."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["kappadist"]
    module, attr = target.split(":")
    code = (f"import sys; from {module} import {attr} as f; "
            "sys.argv[0] = 'kappadist'; sys.exit(f())")
    src = str(Path(kappadist.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestEntryPoint:
    def test_console_script(self):
        proc = run_console_script(
            "eval", "--family", "type2", "--alpha", "1",
            "--beta", "1", "--kappa", "0.2", "--x", "1.0",
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("x,pdf")

    def test_usage_error_exit_code(self):
        proc = run_console_script("frobnicate")
        assert proc.returncode == 2


# one object per line: every family, either sign of alpha, light and heavy tails
_PIN_OBJECTS = [
    ("type1", {"alpha": 2.5, "beta": 1.0, "nu": 0.5, "kappa": 0.3}),
    ("type1", {"alpha": -1.5, "beta": 2.0, "nu": 2.0, "kappa": 0.2}),
    ("type1", {"alpha": 1.0, "beta": 1.0, "nu": 1.0, "kappa": 0.9}),
    ("type2", {"alpha": 2.0, "beta": 1.0, "kappa": 0.3}),
    ("type2", {"alpha": -0.7, "beta": 2.0, "kappa": 0.9}),
    ("type3", {"alpha": 1.5, "beta": 1.0, "lam": 2.0, "kappa": 0.5}),
    ("type3", {"alpha": -1.5, "beta": 1.0, "lam": 0.5, "kappa": 0.6}),
    ("type4", {"alpha": 2.5, "beta": 1.0, "kappa": 0.3}),
    ("type4", {"alpha": 0.5, "beta": 1.0, "kappa": 0.9}),
    ("type5", {"n": 1, "beta": 1.0, "kappa": 0.3}),
    ("type5", {"n": 2, "beta": 1.5, "kappa": 0.6}),
    ("type5", {"n": 3, "beta": 1.0, "kappa": 0.9}),
]
_POINTS = "0,-1,inf,-inf,nan,1e-300,1e300,5e-324,1e-12,0.5,1,2.5,7,1e6"


def _scalar_loop_csv(family, params, xs):
    """The table a per-point scalar call of every function would print."""
    from kappadist.fitting import FAMILIES

    dist = FAMILIES[family][0](**params)
    what = [w for w in ("pdf", "logpdf", "cdf", "survival", "hazard", "cum_hazard") if hasattr(dist, w)]
    lines = [",".join(["x", *what])]
    for x in xs:
        row = [float(x)] + [float(getattr(dist, w)(float(x))) for w in what]
        lines.append(",".join(repr(v) for v in row))
    return ",".join(what), "\n".join(lines) + "\n"


class TestArrayEvaluationMatchesScalarLoop:
    """eval and tabulate call each function once on the whole array; the
    table is byte-identical to calling it once per point."""

    @pytest.mark.parametrize("family, params", _PIN_OBJECTS, ids=lambda v: str(v))
    @pytest.mark.parametrize("grid", [None, "log:1e-300:1e300:200", "lin:-1:30:200"])
    def test_byte_identical(self, family, params, grid, capsys):
        flags = [tok for k, v in params.items() for tok in (f"--{k}", str(v))]
        xs = [float(t) for t in _POINTS.split(",")] if grid is None else cli._parse_grid(grid)
        what, expect = _scalar_loop_csv(family, params, xs)
        where = ["eval", "--x", _POINTS] if grid is None else ["tabulate", "--grid", grid]
        code, out, _ = invoke([where[0], "--family", family, *flags, *where[1:], "--what", what], capsys)
        assert code == 0
        assert out == expect

    def test_empty_point_list(self, capsys):
        code, out, _ = invoke(
            ["eval", "--family", "type2", "--alpha", "2", "--beta", "1", "--kappa", "0.3", "--x", ","],
            capsys,
        )
        assert code == 0 and out == "x,pdf\n"

    def test_cum_hazard_at_origin_is_positive_zero(self, capsys):
        code, out, err = invoke(
            ["eval", "--family", "type2", "--alpha", "-0.7", "--beta", "2", "--kappa", "0.9",
             "--x", "0,inf", "--what", "cum_hazard"],
            capsys,
        )
        assert code == 0 and err == ""
        assert out == "x,cum_hazard\n0.0,0.0\ninf,inf\n"

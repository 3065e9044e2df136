"""Only fitting loads scipy.optimize, and only quadrature loads
scipy.integrate.

The check runs in a fresh interpreter, since this process already holds
scipy.integrate: pyproject.toml's warning filters name one of its classes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import kappadist

HEAVY = ("scipy.integrate", "scipy.optimize")

# imports the CLI, then runs each argv through kappadist.cli.run; prints
# the exit codes and which of HEAVY are loaded after the import and after
# each argv
CHILD = """
import contextlib, io, json, sys
import kappadist, kappadist.cli
heavy = {heavy!r}
codes, loaded = [], [[m for m in heavy if m in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(kappadist.cli.run(argv))
    loaded.append([m for m in heavy if m in sys.modules])
print(json.dumps([codes, loaded]))
"""


def _run_child(argvs):
    src = str(Path(kappadist.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(heavy=HEAVY), json.dumps(argvs)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0] * len(argvs), proc.stderr
    return loaded


def test_only_fit_and_quadrature_load_the_heavy_submodules(tmp_path):
    data = tmp_path / "draws.csv"
    draws = kappadist.Type2(1.5, 1.0, 0.3).sample(1000, 7)
    data.write_text("".join(f"{float(v)!r}\n" for v in draws))
    light = [
        ["eval", "--family", "type2", "--alpha", "1.5", "--beta", "1", "--kappa", "0.3",
         "--x", "0.5,1,2", "--what", "pdf,cdf,survival,hazard"],
        ["tabulate", "--family", "type1", "--alpha", "1.5", "--beta", "1", "--nu", "1",
         "--kappa", "0.3", "--grid", "log:0.001:1000:50", "--what", "pdf,cdf"],
        ["sample", "--family", "type4", "--alpha", "1.5", "--beta", "1", "--kappa", "0.3",
         "--count", "100", "--seed", "3"],
        ["sample", "--family", "type1", "--alpha", "1.5", "--beta", "1", "--nu", "1",
         "--kappa", "0.9", "--count", "100", "--seed", "3"],
        ["tail", "--input", str(data), "--fraction", "0.05"],
        ["moments", "--family", "type3", "--alpha", "2.5", "--beta", "1", "--lam", "2",
         "--kappa", "0.3", "--orders", "1,2,3"],
    ]
    # the positive controls: fitting, then Type3 moments past lambda = 2,
    # which still integrate
    fit = ["fit", "--family", "type2", "--input", str(data)]
    quadrature = ["moments", "--family", "type3", "--alpha", "2.5", "--beta", "1", "--lam", "5",
                  "--kappa", "0.3", "--orders", "1"]
    loaded = _run_child([*light, fit, quadrature])
    assert loaded[: len(light) + 1] == [[]] * (len(light) + 1)  # the import, then each light argv
    assert "scipy.optimize" in loaded[-2]
    assert "scipy.integrate" not in loaded[-2] and "scipy.integrate" in loaded[-1]

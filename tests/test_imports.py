"""scipy is loaded only where a value needs it: scipy.special by the Type I
shares at non-integral nu (and the lower one near the origin at integral
nu >= 2) and by quadrature, scipy.integrate by quadrature.  Importing
kappadist loads no scipy module, nor does fitting any family, a Type I
share at nu = 1, an upper Type I share at integral nu or a Type I draw.

The check runs in a fresh interpreter, since this process already holds
scipy.integrate: pyproject.toml's warning filters name one of its classes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import kappadist

HEAVY = ("scipy.special", "scipy.integrate", "scipy.optimize")

# imports the CLI, then runs each argv through kappadist.cli.run; prints
# the exit codes, which scipy modules are loaded after `import kappadist`
# and after `import kappadist.cli`, and which of HEAVY are loaded after
# each argv
CHILD = """
import contextlib, io, json, sys
import kappadist
scipy_after = [[m for m in sys.modules if m.split(".")[0] == "scipy"]]
import kappadist.cli
scipy_after.append([m for m in sys.modules if m.split(".")[0] == "scipy"])
heavy = {heavy!r}
codes, loaded = [], []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(kappadist.cli.run(argv))
    loaded.append([m for m in heavy if m in sys.modules])
print(json.dumps([scipy_after, codes, loaded]))
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
    scipy_after, codes, loaded = json.loads(proc.stdout)
    assert codes == [0] * len(argvs), proc.stderr
    return scipy_after, loaded


def test_only_type1_shares_and_quadrature_load_scipy(tmp_path):
    laws = {
        "type1": kappadist.Type1(1.5, 1.0, 1.0, 0.3),
        "type2": kappadist.Type2(1.5, 1.0, 0.3),
        "type3": kappadist.Type3(1.5, 1.0, 2.0, 0.3),
        "type4": kappadist.Type4(1.5, 1.0, 0.3),
        "type5": kappadist.Type5(2, 1.0, 0.3),
    }
    fits = []
    for family, law in laws.items():
        data = tmp_path / f"{family}.csv"
        data.write_text("".join(f"{float(v)!r}\n" for v in law.sample(1000, 7)))
        fits.append(["fit", "--family", family, "--input", str(data)])
    fam = ["--beta", "1", "--kappa", "0.3"]
    type1 = ["--family", "type1", "--alpha", "1.5", "--nu", "1", *fam]
    points = ["--x", "0.5,1,2", "--what", "pdf,cdf,survival,hazard"]
    moments = ["--orders", "1,2,3"]
    grid = ["--grid", "log:0.001:1000:50"]
    light = [
        ["--help"],
        ["eval", "--family", "type2", "--alpha", "1.5", *fam, *points],
        ["eval", "--family", "type3", "--alpha", "1.5", "--lam", "0.5", *fam, *points],
        ["eval", "--family", "type4", "--alpha", "1.5", *fam, *points],
        ["eval", "--family", "type5", "--n", "2", *fam, *points],
        ["sample", *type1, "--count", "100", "--seed", "3"],
        # an integral nu draws from exponentials
        ["sample", "--family", "type1", "--alpha", "1.5", "--nu", "3", *fam, "--count", "100", "--seed", "3"],
        ["sample", "--family", "type4", "--alpha", "1.5", *fam, "--count", "100", "--seed", "3"],
        ["sample", "--family", "type5", "--n", "3", *fam, "--count", "100", "--seed", "3"],
        ["tail", "--input", fits[1][-1], "--fraction", "0.05"],
        ["moments", *type1, *moments],
        ["moments", "--family", "type2", "--alpha", "2.5", *fam, *moments],
        ["moments", "--family", "type3", "--alpha", "2.5", "--lam", "2", *fam, *moments],
        ["tabulate", *type1, *grid, "--what", "pdf"],
        # the nu = 1 share is elementary
        ["tabulate", *type1, *grid, "--what", "cdf"],
        ["tabulate", *type1, *grid, "--what", "pdf,cdf,survival,hazard"],
        # the upper share at an integral nu is a finite sum
        ["tabulate", "--family", "type1", "--alpha", "1", "--nu", "3", *fam, *grid,
         "--what", "pdf,survival,hazard"],
        *fits,
    ]
    # the positive controls: a Type I share at nu != 1, then Type3 moments
    # past lambda = 2, which still integrate
    share = ["tabulate", "--family", "type1", "--alpha", "1.5", "--nu", "1.5", *fam, *grid, "--what", "cdf"]
    quadrature = ["moments", "--family", "type3", "--alpha", "2.5", "--lam", "5", *fam, "--orders", "1"]
    scipy_after, loaded = _run_child([*light, share, quadrature])
    assert scipy_after == [[], []]  # import kappadist, then kappadist.cli
    assert loaded[: len(light)] == [[]] * len(light)
    assert loaded[-2] == ["scipy.special"]
    assert "scipy.integrate" in loaded[-1]

"""Command-line front end: evaluate, tabulate, compute moments, sample,
fit and estimate tail indices; emits plot-ready CSV or JSON.

Exit codes: 0 success, 2 usage/parse error, 3 domain error (the message
names the violated constraint), 4 numerical non-convergence.
Diagnostics go to stderr; data go to stdout or --out.  Identical
argv (+seed) produce byte-identical output.
"""

import argparse
import inspect
import json
import sys

import numpy as np

from .errors import DomainError, MomentDivergesError, NumericalError
from .fitting import FAMILIES, Sample, fit_mle, tail_index

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NUMERICAL = 4

_WHAT = ("pdf", "logpdf", "cdf", "survival", "hazard", "cum_hazard")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits with 2 already, but route the message explicitly
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_family_flags(p):
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--kappa", type=float)


def _add_output_flags(p):
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", default="csv", choices=["csv", "json"])


def build_parser():
    top = _Parser(prog="kappadist",
                  description="power-law tailed distribution toolkit")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval", parents=[], help="evaluate functions at points")
    _add_family_flags(p)
    p.add_argument("--x", required=True, help="comma-separated evaluation points")
    p.add_argument("--what", default="pdf",
                   help=f"comma-separated subset of {','.join(_WHAT)}")
    _add_output_flags(p)

    p = sub.add_parser("tabulate", help="evaluate functions on a grid")
    _add_family_flags(p)
    p.add_argument("--grid", required=True, help="lin:a:b:n or log:a:b:n")
    p.add_argument("--what", default="pdf")
    _add_output_flags(p)

    p = sub.add_parser("moments", help="raw moments; divergent orders are flagged")
    _add_family_flags(p)
    p.add_argument("--orders", required=True, help="comma-separated moment orders")
    _add_output_flags(p)

    p = sub.add_parser("sample", help="reproducible inverse-transform draws")
    _add_family_flags(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_output_flags(p)

    p = sub.add_parser("fit", help="maximum-likelihood fit to a data file")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--n", type=int, help="fixed order for type5")
    p.add_argument("--input", required=True)
    p.add_argument("--col", type=int, default=0)
    p.add_argument("--fix-kappa", type=float, default=None, dest="fix_kappa")
    _add_output_flags(p)

    p = sub.add_parser("tail", help="Hill tail-index estimate")
    p.add_argument("--input", required=True)
    p.add_argument("--col", type=int, default=0)
    p.add_argument("--fraction", type=float, default=0.01)
    _add_output_flags(p)

    return top


def _build_distribution(args):
    cls = FAMILIES[args.family][0]
    params = {}
    for name in inspect.signature(cls).parameters:
        value = getattr(args, name)
        if value is None:
            raise _Usage(f"--{name} is required for --family {args.family}")
        params[name] = value
    return cls(**params), params


class _Usage(Exception):
    pass


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 4 or parts[0] not in ("lin", "log"):
        raise _Usage(f"bad grid {text!r}; expected lin:a:b:n or log:a:b:n")
    try:
        a, b, n = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError:
        raise _Usage(f"bad grid {text!r}: non-numeric bounds") from None
    if n < 2 or not a < b:
        raise _Usage(f"bad grid {text!r}: need a < b and n >= 2")
    if parts[0] == "log":
        if not a > 0.0:
            raise _Usage("log grid requires a > 0")
        return np.geomspace(a, b, n)
    return np.linspace(a, b, n)


def _parse_floats(text, flag):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise _Usage(f"bad {flag} value {text!r}") from None


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(args, family, params, rows, columns):
    """Write the table in the requested format; key order is fixed by
    `columns` so reruns are byte identical."""
    if args.format == "json":
        payload = {
            "family": family,
            "params": {k: params[k] for k in sorted(params)},
            "rows": [{c: row[c] for c in columns} for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_eval(args, xs=None):
    dist, params = _build_distribution(args)
    what = [w.strip() for w in args.what.split(",") if w.strip()]
    for w in what:
        if w not in _WHAT or not hasattr(dist, w):
            raise _Usage(f"unknown function {w!r}; choose from {','.join(_WHAT)}")
    if xs is None:
        xs = _parse_floats(args.x, "--x")
    rows = []
    for x in xs:
        row = {"x": float(x)}
        for w in what:
            row[w] = float(getattr(dist, w)(float(x)))
        rows.append(row)
    _emit(args, args.family, params, rows, ["x", *what])
    return EXIT_OK


def _cmd_tabulate(args):
    return _cmd_eval(args, xs=_parse_grid(args.grid))


def _cmd_moments(args):
    dist, params = _build_distribution(args)
    orders = _parse_floats(args.orders, "--orders")
    rows = []
    any_divergent = False
    for m in orders:
        m = int(m) if float(m).is_integer() else m
        try:
            value = dist.raw_moment(m)
            rows.append({"order": m, "value": value, "divergent": 0, "constraint": ""})
        except MomentDivergesError as exc:
            any_divergent = True
            print(f"moment order {m} diverges: violates {exc.constraint}",
                  file=sys.stderr)
            rows.append({"order": m, "value": float("nan"), "divergent": 1,
                         "constraint": exc.constraint})
    _emit(args, args.family, params, rows,
          ["order", "value", "divergent", "constraint"])
    return EXIT_DOMAIN if any_divergent else EXIT_OK


def _cmd_sample(args):
    dist, params = _build_distribution(args)
    draws = dist.sample(args.count, args.seed)
    rows = [{"value": float(v)} for v in np.asarray(draws).ravel()]
    _emit(args, args.family, params, rows, ["value"])
    return EXIT_OK


def _ingest(args):
    try:
        return Sample.from_file(args.input, col=args.col)
    except OSError as exc:
        raise _Usage(f"cannot read {args.input}: {exc}") from None
    except DomainError as exc:
        raise _Usage(f"{args.input}: {exc}") from None


def _cmd_fit(args):
    sample = _ingest(args)
    init = {"n": args.n} if args.family == "type5" and args.n is not None else None
    result = fit_mle(args.family, sample, init=init, fix_kappa=args.fix_kappa)
    rows = []
    for name in sorted(result.params):
        stderr = (result.stderr or {}).get(name, float("nan"))
        rows.append({"param": name, "estimate": float(result.params[name]),
                     "stderr": float(stderr)})
    rows.append({"param": "log_likelihood", "estimate": result.log_likelihood,
                 "stderr": float("nan")})
    _emit(args, args.family, {"n_obs": len(sample)}, rows,
          ["param", "estimate", "stderr"])
    return EXIT_OK


def _cmd_tail(args):
    sample = _ingest(args)
    b = tail_index(sample, args.fraction)
    _emit(args, "pareto-tail", {"fraction": args.fraction, "n_obs": len(sample)},
          [{"tail_exponent": float(b)}], ["tail_exponent"])
    return EXIT_OK


_COMMANDS = {
    "eval": _cmd_eval,
    "tabulate": _cmd_tabulate,
    "moments": _cmd_moments,
    "sample": _cmd_sample,
    "fit": _cmd_fit,
    "tail": _cmd_tail,
}


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.subcommand](args)
    except _Usage as exc:
        print(f"kappadist: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"kappadist: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericalError as exc:
        print(f"kappadist: did not converge: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main():
    raise SystemExit(run())

"""Run-time tracing for the benchmark's traced mode, from its own files.

``Tracer.install`` wraps, in place, the public functions of
``kappadist.core``, ``kappadist.oracle`` and ``kappadist.fitting`` (in
every kappadist module that imported them) and the public methods of each
distribution class.  Each call records a span: name, start, end, parent
span, the size of its first array argument and, where the result carries
one, a count (``OracleResult.evaluations``, ``FitResult.iterations``).
Spans stay in memory; ``uninstall`` restores the originals.  The
untraced mode never imports this module.

``layer_metrics`` turns the spans of a traced run into the per-layer
metrics named in README.md.
"""

import functools
import inspect
import statistics
import sys
import time

import numpy as np

import kappadist
from kappadist import core, fitting, oracle

# span record fields
NAME, START, END, PARENT, SIZE, COUNT = range(6)

CLASSES = (
    kappadist.Distribution,
    kappadist.SymmetrizedDistribution,
    kappadist.Type1,
    kappadist.KappaErlang,
    kappadist.KappaNormal,
    kappadist.Type2,
    kappadist.Type3,
    kappadist.KappaLogistic,
    kappadist.Type4,
    kappadist.Type5,
)
# (layer, class) of every family, in report order
FAMILIES = (
    ("type1", "Type1"),
    ("type1", "KappaErlang"),
    ("type1", "KappaNormal"),
    ("type2", "Type2"),
    ("type3", "Type3"),
    ("type3", "KappaLogistic"),
    ("type4", "Type4"),
    ("type5", "Type5"),
)
HALF_LINE = (
    ("type1", "Type1"),
    ("type2", "Type2"),
    ("type3", "Type3"),
    ("type4", "Type4"),
    ("type5", "Type5"),
    ("type1", "KappaErlang"),
)
SOLVER = ("Type1", "Type4", "Type5", "KappaErlang")  # invert through framework's solver
FIT_FAMILIES = ("type1", "type2", "type3", "type4", "type5")
CLI_SUBCOMMANDS = ("eval", "tabulate", "moments", "sample", "fit", "tail")
COUNTED = {"integrate_semiaxis": "evaluations", "fit_mle": "iterations"}


def _public_functions(mod):
    return [
        n
        for n, f in vars(mod).items()
        if inspect.isfunction(f) and f.__module__ == mod.__name__ and not n.startswith("_")
    ]


def _size(args, first):
    if len(args) <= first:
        return 0
    a = args[first]
    return a.size if isinstance(a, np.ndarray) else 1


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def open(self, name):
        """Start a span of the benchmark's own (a pass or an operation)."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, 0, None])
        self._stack.append(idx)

    def close(self):
        self.spans[self._stack.pop()][END] = time.perf_counter_ns()

    def _wrap(self, fn, name_of, first, counted):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name_of(args), 0, 0, stack[-1] if stack else -1, _size(args, first), None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter_ns()
                stack.pop()
            if counted:
                rec[COUNT] = getattr(out, counted, None)
            return out

        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "kappadist" or n.startswith("kappadist.")]
        for mod in (core, oracle, fitting):
            layer = mod.__name__.rsplit(".", 1)[1]
            for n in _public_functions(mod):
                orig = getattr(mod, n)
                new = self._wrap(orig, lambda _, s=f"{layer}.{n}": s, 0, COUNTED.get(n))
                for m in modules:
                    if getattr(m, n, None) is orig:
                        self._patch(m, n, new)
        names = {}

        def method_name(n):
            def name_of(args):
                key = (type(args[0]), n)
                if key not in names:
                    cls = type(args[0])
                    names[key] = f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}.{n}"
                return names[key]

            return name_of

        for cls in CLASSES:
            for n, f in list(vars(cls).items()):
                if inspect.isfunction(f) and not n.startswith("_"):
                    self._patch(cls, n, self._wrap(f, method_name(n), 1, None))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


class Spans:
    """Index over a traced run's spans: durations, self times and the tree.

    Benchmark spans are ``pass:<workload>`` (roots), ``op:<name>`` around
    each call and ``check:<name>`` around each output check; library spans
    under a check are the benchmark's own work and are left out."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.dur = [s[END] - s[START] for s in spans]
        self.self_ns = list(self.dur)
        self.children = [[] for _ in range(n)]
        self.in_op = [False] * n  # library span made by an operation
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p < 0:
                continue
            self.self_ns[p] -= self.dur[i]
            self.children[p].append(i)
            parent = spans[p][NAME]
            self.in_op[i] = parent.startswith("op:") or (self.in_op[p] and not s[NAME].startswith("check:"))

    def passes(self, workload):
        return [i for i, s in enumerate(self.spans) if s[PARENT] < 0 and s[NAME] == f"pass:{workload}"]

    def ops(self, root, prefix):
        """Operation spans under pass ``root`` whose op name starts with ``prefix``."""
        return [i for i in self.children[root] if self.spans[i][NAME].startswith("op:" + prefix)]

    def calls(self, root, prefix):
        """The library calls the benchmark made directly in those operations."""
        return [c for o in self.ops(root, prefix) for c in self.children[o]]

    def descendants(self, i):
        out, todo = [], list(self.children[i])
        while todo:
            j = todo.pop()
            out.append(j)
            todo.extend(self.children[j])
        return out


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def layer_metrics(spans, sample_size):
    """name -> (value, unit); value is None where the run had no such call."""
    sx = Spans(spans)
    out = {}

    def per_pass(workload, fn):
        return _median([fn(r) for r in sx.passes(workload)])

    def ratio(num, den):
        return num / den if den else None

    def mean_time(workload, prefix, scale):
        def fn(r):
            c = sx.calls(r, prefix)
            return ratio(sum(sx.dur[i] for i in c), len(c) * scale)

        return per_pass(workload, fn)

    def per_point(workload, prefix):
        def fn(r):
            c = sx.calls(r, prefix)
            return ratio(sum(sx.dur[i] for i in c), sum(spans[i][SIZE] for i in c))

        return per_pass(workload, fn)

    for fn in ("kappa_exp", "kappa_log"):
        out[f"core.{fn}_ns_pt"] = (per_point("analytics", f"core.{fn}@"), "ns/pt")
    for fn in ("kappa_erf", "log_mellin_kappa"):
        out[f"core.{fn}_us"] = (mean_time("analytics", f"core.{fn}@", 1e3), "us")

    for layer, cls in FAMILIES:
        for fn in ("pdf", "logpdf", "cdf", "survival"):
            out[f"{layer}.{cls}.{fn}_ns_pt"] = (per_point("analytics", f"{layer}.{cls}.{fn}@"), "ns/pt")
        out[f"{layer}.{cls}.scalar_us"] = (mean_time("analytics", f"{layer}.{cls}.scalar@", 1e3), "us")

    ns_draw = {}
    for layer, cls in HALF_LINE:
        for k in ("0.3", "0.9"):
            v = mean_time("sample", f"{layer}.{cls}.sample@k{k}", sample_size)
            ns_draw[cls, k] = v
            out[f"framework.sample.{cls}.k{k}_ns_draw"] = (v, "ns/draw")
    for layer, cls in HALF_LINE:
        if cls in SOLVER:

            def cdf_work(r, prefix=f"{layer}.{cls}.sample@"):
                """(cdf points, draws, quantile ns, ns inside cdf) in one pass."""
                pts = draws = q_ns = cdf_ns = 0
                for o in sx.ops(r, prefix):
                    draws += sample_size
                    for i in sx.descendants(o):
                        name = spans[i][NAME]
                        parent = spans[spans[i][PARENT]][NAME]
                        if name.endswith(".quantile"):
                            q_ns += sx.dur[i]
                        elif name.endswith(".cdf") and not parent.endswith(".cdf"):
                            pts += spans[i][SIZE]
                            cdf_ns += sx.dur[i]
                return pts, draws, q_ns, cdf_ns

            out[f"framework.quantile.{cls}.cdf_pts_per_draw"] = (
                per_pass("sample", lambda r: ratio(*cdf_work(r)[:2])),
                "count",
            )
            out[f"framework.quantile.{cls}.self_share"] = (
                per_pass("sample", lambda r: (lambda w: ratio(w[2] - w[3], w[2]))(cdf_work(r))),
                "ratio",
            )
    base = [ns_draw["Type2", k] for k in ("0.3", "0.9")]
    for _, cls in HALF_LINE:
        if cls != "Type2":
            mine = [ns_draw[cls, k] for k in ("0.3", "0.9")]
            ok = None not in mine + base
            out[f"framework.sample.{cls}.x_type2"] = (ratio(sum(mine), sum(base)) if ok else None, "ratio")

    for layer, cls in FAMILIES:
        out[f"framework.raw_moment.{cls}_us"] = (mean_time("analytics", f"{layer}.{cls}.raw_moment", 1e3), "us")
        out[f"framework.mode.{cls}_us"] = (mean_time("analytics", f"{layer}.{cls}.mode@", 1e3), "us")

    def named(r, name):
        return [i for i in sx.descendants(r) if sx.in_op[i] and spans[i][NAME] == name]

    def quad(r):
        return named(r, "oracle.integrate_semiaxis")

    out["oracle.integrate_semiaxis.calls"] = (per_pass("analytics", lambda r: len(quad(r))), "count")
    out["oracle.integrate_semiaxis.evals_per_call"] = (
        per_pass("analytics", lambda r: ratio(sum(spans[i][COUNT] or 0 for i in quad(r)), len(quad(r)))),
        "count",
    )
    out["oracle.integrate_semiaxis.self_ms"] = (
        per_pass("analytics", lambda r: sum(sx.self_ns[i] for i in quad(r)) / 1e6),
        "ms",
    )
    out["oracle.argmax.calls"] = (per_pass("analytics", lambda r: len(named(r, "oracle.argmax"))), "count")

    for fam in FIT_FAMILIES:
        prefix = f"fitting.fit_mle.{fam}@"

        def logpdf_calls(r, prefix=prefix):
            return [c for f in sx.calls(r, prefix) for c in sx.children[f] if spans[c][NAME].endswith(".logpdf")]

        out[f"fitting.fit_mle.{fam}_ms"] = (mean_time("fit", prefix, 1e6), "ms")
        out[f"fitting.fit_mle.{fam}.iterations"] = (
            per_pass("fit", lambda r, p=prefix: sum(spans[i][COUNT] or 0 for i in sx.calls(r, p))),
            "count",
        )
        out[f"fitting.fit_mle.{fam}.logpdf_calls"] = (per_pass("fit", lambda r, f=logpdf_calls: len(f(r))), "count")
        out[f"fitting.fit_mle.{fam}.logpdf_share"] = (
            per_pass(
                "fit",
                lambda r, p=prefix, f=logpdf_calls: ratio(
                    sum(sx.dur[i] for i in f(r)), sum(sx.dur[i] for i in sx.calls(r, p))
                ),
            ),
            "ratio",
        )
    out["fitting.tail_index_us"] = (mean_time("fit", "fitting.tail_index@", 1e3), "us")

    def op_ms(workload, prefix):
        return per_pass(workload, lambda r: _median([sx.dur[o] / 1e6 for o in sx.ops(r, prefix)]))

    out["cli.startup_ms"] = (op_ms("cli-startup", "cli.startup"), "ms")
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}_ms"] = (op_ms("cli", f"cli.{sub}"), "ms")
    return out


def self_time_table(spans):
    """Library span name -> (calls, total ms, self ms), over the operations' calls."""
    sx = Spans(spans)
    table = {}
    for i, s in enumerate(spans):
        if sx.in_op[i]:
            calls, total, own = table.get(s[NAME], (0, 0.0, 0.0))
            table[s[NAME]] = (calls + 1, total + sx.dur[i] / 1e6, own + sx.self_ns[i] / 1e6)
    return table

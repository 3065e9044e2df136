"""kappadist benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload analytics --seed 1 --seconds 36 --trace 0

Run it from the root of a kappadist checkout; it imports the library from
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see README.md).  A report goes to
stdout first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")
# The benchmark's workloads.  The traced mode also runs the ``fit`` operations
# (see workloads.fit), so every per-layer metric is measured.
WORKLOADS = ("analytics", "sample", "cli")
SETUP_RUNS = 5  # set-ups per run: this process and SETUP_RUNS - 1 fresh interpreters
MIN_PASSES = 2
TRACED_PASSES = 3  # cap: spans are kept in memory

# One client, one thread: keep numpy's BLAS pools to a single thread,
# here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_workloads():
    """Import the benchmark's workloads, and through them kappadist from src/."""
    init = os.path.join(SRC, "kappadist", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: {init} not found; run from a kappadist checkout")
    sys.path[:0] = [SRC, HERE]
    import kappadist
    import workloads

    if os.path.realpath(kappadist.__file__) != os.path.realpath(init):
        raise SystemExit(f"perfbench: imported kappadist from {kappadist.__file__}, not {init}")
    return workloads


def probe_setup(workload, seed):
    """Set-up time of a fresh interpreter, in seconds."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0", "--probe-setup"],
        capture_output=True, check=True, text=True,
    )
    return float(out.stdout.split()[-1])


def verdict(op, out, err, earlier):
    """Failure reason of one operation, or None."""
    if op.expect is not None:
        if isinstance(err, op.expect):
            return None
        return f"expected {op.expect.__name__}, got {type(err).__name__ if err else 'a value'}"
    if err is not None:
        return f"unexpected {type(err).__name__}: {err}"
    try:
        return op.check(out, earlier) if op.check else None
    except Exception as exc:  # a malformed output is a failed op
        return f"check raised {type(exc).__name__}: {exc}"


class Run:
    """Closed-loop passes over a workload's operations, with their checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []  # seconds, every op of every pass
        self.pass_walls = {}  # workload -> summed op latency of each pass
        self.attempted = 0
        self.failures = []  # (op name, reason, known-defect note)

    def one_pass(self, wl):
        tr = self.tracer
        earlier = {}
        wall = 0.0
        if tr:
            tr.open(f"pass:{wl.name}")
        for op in wl.ops:
            if tr:
                tr.open(f"op:{op.name}")
            t0 = time.perf_counter()
            try:
                out, err = op.call(), None
            except Exception as exc:  # a failed op is recorded; the run goes on
                out, err = None, exc
            dt = time.perf_counter() - t0
            if tr:
                tr.close()
                tr.open(f"check:{op.name}")
            wall += dt
            self.latencies.append(dt)
            self.attempted += 1
            earlier[op.name] = out
            reason = verdict(op, out, err, earlier)
            if tr:
                tr.close()
            if reason:
                self.failures.append((op.name, reason, op.known))
        if tr:
            tr.close()
        self.pass_walls.setdefault(wl.name, []).append(wall)

    def passes(self, wl, seconds, max_passes=None):
        """Passes until the next one would end after ``seconds``; at least MIN_PASSES."""
        start = time.perf_counter()
        n = 0
        while max_passes is None or n < max_passes:
            self.one_pass(wl)
            n += 1
            spent = time.perf_counter() - start
            if n >= MIN_PASSES and spent + spent / n > seconds:
                break
        return self.pass_walls[wl.name][-n:]


def provenance(workload, seed):
    head = os.path.join(ROOT, ".git", "HEAD")
    sha = "unknown (not a git checkout)"
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    sha = fh.read().strip()
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import mpmath
    import numpy
    import scipy

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
    }


def end_to_end(run, wl, walls, setup_s):
    """All end-to-end figures: name -> (value, unit, note)."""
    lat = run.latencies
    n = len(lat)
    if wl.children is not None:
        peak_kb = max(wl.children.peak_kb)
        rss_note = "largest CLI child"
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_note = "benchmark process"
    out = {
        "setup_s": (setup_s, "s", f"median of {SETUP_RUNS} set-ups"),
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} passes of {len(wl.ops)} ops"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms", f"n={n}"),
        "op_p90_ms": (None, "ms", f"omitted: {n} ops < 100"),
        "fail_frac": (len(run.failures) / run.attempted, "ratio", f"{len(run.failures)}/{run.attempted}"),
        "peak_rss_mb": (peak_kb / 1024, "MB", rss_note),
    }
    if n >= 100:
        out["op_p90_ms"] = (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms", f"n={n}")
    return out


JSON_END_TO_END = ("setup_s", "wall_s", "op_p50_ms", "peak_rss_mb")


def report_failures(run):
    for name, reason, known in run.failures:
        tag = f"known seed defect ({known})" if known else "FAILED"
        print(f"  {tag}: {name}: {reason}")


def traced(workloads, wl, seconds, seed):
    """Untraced passes, then traced passes of ``wl`` and one traced pass of
    every other workload, so each per-layer metric is measured."""
    import tracing

    base = Run()
    base.passes(wl, seconds / 2)
    others = [workloads.build(n, seed, WORKDIR) for n in workloads.BY_NAME if n != wl.name]
    children = next(w.children for w in [wl, *others] if w.children is not None)
    tracer = tracing.Tracer()
    run = Run(tracer)
    tracer.install()
    try:
        walls = run.passes(wl, seconds / 2, max_passes=TRACED_PASSES)
        for other in [*others, workloads.cli_startup(children)]:
            run.one_pass(other)
    finally:
        tracer.uninstall()
    # pass j runs the same operations and inputs with and without tracing
    pairs = list(zip(walls, base.pass_walls[wl.name]))
    overhead = statistics.median(t - b for t, b in pairs)
    layers = tracing.layer_metrics(tracer.spans, workloads.SAMPLE_SIZE)
    table = tracing.self_time_table(tracer.spans)
    run.attempted += base.attempted
    run.failures += base.failures
    return run, layers, table, overhead, statistics.median(b for _, b in pairs)


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    workloads = import_workloads()
    wl = workloads.build(args.workload, args.seed, WORKDIR)
    setup0 = time.perf_counter() - t0
    if args.probe_setup:
        print(repr(setup0))
        return 0
    setups = [setup0] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_RUNS - 1)]
    setup_s = statistics.median(setups)

    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance:", json.dumps(provenance(args.workload, args.seed)))
    print("set-up runs (s):", ", ".join(f"{s:.4f}" for s in setups))
    if args.trace:
        run, layers, table, overhead, base_wall = traced(workloads, wl, args.seconds, args.seed)
        print(f"tracing overhead on {wl.name}: {overhead:+.6f} s per pass "
              f"(median of traced minus untraced wall of the same pass; untraced {base_wall:.6f} s)")
        print("per-layer metrics:")
        for name, (value, unit) in layers.items():
            shown = "not measured" if value is None else f"{value:.6g} {unit}"
            print(f"  {name} = {shown}")
        print("spans (name: calls, total ms, self ms):")
        for name in sorted(table):
            calls, total, own = table[name]
            print(f"  {name}: {calls}, {total:.3f}, {own:.3f}")
        metrics = {n: {"value": 0.0 if v is None else v, "unit": u} for n, (v, u) in layers.items()}
    else:
        run = Run()
        walls = run.passes(wl, args.seconds)
        e2e = end_to_end(run, wl, walls, setup_s)
        print("pass walls (s):", ", ".join(f"{w:.4f}" for w in walls))
        print(f"end-to-end metrics ({run.attempted} ops attempted):")
        for name, (value, unit, note) in e2e.items():
            shown = note if value is None else f"{value:.6g} {unit} ({note})"
            print(f"  {name} = {shown}")
        metrics = {n: {"value": e2e[n][0], "unit": e2e[n][1]} for n in JSON_END_TO_END}
    print(f"failures: {len(run.failures)} of {run.attempted} ops")
    report_failures(run)
    correct = all(known for _, _, known in run.failures)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": len(run.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

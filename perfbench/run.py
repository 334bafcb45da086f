"""Benchmark of powercg, run from the root of a checkout.

  python3 perfbench/run.py --workload builtin-defaults --seed 0 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

One workload per process, BLAS and OpenMP pinned to one thread. The run sets
up its inputs several times (set-up time is the median of import plus
construction), runs one untimed warm-up pass, then repeats passes over all
units of the workload until --seconds have gone and at least MIN_PASSES
timed passes ran, checking every pass against the references. solve_s is
the median timed pass.

--trace 0 reports the end-to-end metrics. --trace 1 installs span wrappers
around powercg's layers (see tracing.py), traces one set-up, alternates plain
and traced passes, and reports the per-layer metrics of BENCHMARK.json: self
seconds and calls per layer for one set-up plus one pass, and the tracing
overhead. --workload all runs every workload in a fresh process of its own
and prints one table. The last line of standard output is always one JSON
object: {"correct", "attempted", "failed", "metrics"}; a fuller report and the
spans of the last traced pass go to .perfbench_out/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 3
# traced passes: the spans' self times must cover the pass wall time up to
# this share; the rest is benchmark glue between calls into powercg
COVERAGE_SLACK = 0.05

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import powercg; "
                "print(repr(time.perf_counter() - t))")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny sizes without references (self-test only)")
    return p.parse_args(argv)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment():
    import mpmath
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def import_seconds(src):
    """Seconds to import powercg in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src],
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def seed_of(args):
    """The workload seed: any integer, folded into numpy's seed range."""
    return args.seed % 2 ** 64


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Unit verdicts over every checked pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.verdicts = 0
        self.verdicts_false = 0
        self.unit_s = {}         # untraced seconds per unit

    def add(self, outputs, checked, traced):
        failures, verdicts, false = checked
        self.attempted += len(outputs)
        if not traced:
            for key, _, _, seconds in outputs:
                self.unit_s.setdefault(key, []).append(seconds)
        self.failed += len(failures)
        for key, errs in failures.items():
            self.failures.setdefault(key, errs)
        # every pass runs the same units, so one pass's verdicts stand for all
        self.verdicts, self.verdicts_false = verdicts, false


def run_pass(wl, state, pc, tally, traced=False):
    t0 = time.perf_counter()
    outputs = wl.run_pass(state, pc)
    elapsed = time.perf_counter() - t0
    tally.add(outputs, wl.check(state, outputs, pc), traced)
    return elapsed


def timed_run(wl, pc, args, src, workdir, tally):
    setups = []
    for _ in range(SETUP_REPEATS):
        state = None             # drop the last set-up before the next one
        imp = import_seconds(src)
        t0 = time.perf_counter()
        state = wl.setup(pc, seed_of(args), args.tiny, workdir)
        setups.append(imp + time.perf_counter() - t0)
    if not args.tiny:
        state["reference"] = wl.reference()
    start = time.perf_counter()
    # the first pass pays lazy imports and first-call set-up inside numpy,
    # scipy and mpmath; it is checked but not timed
    warmup = run_pass(wl, state, pc, tally)
    passes = []
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(wl, state, pc, tally))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (statistics.median(passes), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    detail = {"setup_samples_s": setups, "warmup_pass_s": warmup,
              "pass_s": passes}
    return state, metrics, detail


def traced_run(wl, pc, args, workdir, tally, spans_path):
    from tracing import Tracer, steady_counts
    tracer = Tracer()
    tracer.install(pc)
    try:
        tracer.start()
        state = wl.setup(pc, seed_of(args), args.tiny, workdir)
        tracer.stop()
        if not args.tiny:
            state["reference"] = wl.reference()
        setup_calls, setup_self, setup_counts = tracer.summary()
        run_pass(wl, state, pc, tally)             # warm-up, as in timed_run
        plain, traced, coverage = [], [], []
        calls = counts = steady = None
        self_sum = {}
        repeat_ok = True
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds:
            plain.append(run_pass(wl, state, pc, tally))
            tracer.reset()
            tracer.start()
            traced.append(run_pass(wl, state, pc, tally, traced=True))
            tracer.stop()
            c, s, k = tracer.summary()
            if steady is not None and steady_counts(c, k) != steady:
                repeat_ok = False
            calls, counts, steady = c, k, steady_counts(c, k)
            for name, v in s.items():
                self_sum[name] = self_sum.get(name, 0.0) + v
            coverage.append(sum(s.values()) / traced[-1])
        tracer.dump(spans_path)
    finally:
        tracer.uninstall()
    n = len(traced)
    self_s = {name: setup_self.get(name, 0.0) + v / n
              for name, v in self_sum.items()}
    for name, v in setup_self.items():
        self_s.setdefault(name, v)
    all_calls = dict(calls)
    for name, v in setup_calls.items():
        all_calls[name] = all_calls.get(name, 0) + v
    all_counts = {k: counts[k] + setup_counts[k] for k in counts}
    traced_s = statistics.median(traced)
    plain_s = statistics.median(plain)
    values = {"trace.overhead_ratio": traced_s / plain_s,
              "trace.traced_solve_s": traced_s,
              "trace.untraced_solve_s": plain_s,
              "trace.uncovered_ratio": 1.0 - statistics.median(coverage)}
    values.update(all_counts)
    for name, v in all_calls.items():
        values[name + ".calls"] = v
    for name, v in self_s.items():
        values[name + ".s"] = v
    detail = {"plain_pass_s": plain, "traced_pass_s": traced,
              "coverage": coverage, "counts_repeat": repeat_ok,
              "steady_counts": steady,
              "coverage_ok": min(coverage) >= 1.0 - COVERAGE_SLACK,
              "coverage_slack": COVERAGE_SLACK,
              "setup_spans": {"calls": setup_calls, "self_s": setup_self},
              "all_layers": values}
    return state, values, detail


def per_layer_metrics(spec, values):
    out = {}
    for m in spec["per_layer"]:
        out[m["name"]] = (values.get(m["name"], 0), m["unit"])
    return out


def run_one(args, root, src):
    sys.path.insert(0, src)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import powercg
    import powercg.cli  # noqa: F401  (the package does not import it)
    want = os.path.join(src, "powercg", "__init__.py")
    if os.path.realpath(powercg.__file__) != os.path.realpath(want):
        print(f"perfbench: imported {powercg.__file__}, expected {want}",
              file=sys.stderr)
        return 2
    spec = load_spec(root)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    wl = WORKLOADS[args.workload]
    # the diagonal series overflow harmlessly in the bound chain's products;
    # printing those warnings on every pass would only add noise
    warnings.simplefilter("ignore", RuntimeWarning)
    outdir = os.path.join(root, OUT_DIR)
    os.makedirs(outdir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix="work-", dir=outdir)
    tally = Tally()
    try:
        if args.trace:
            state, values, detail = traced_run(
                wl, powercg, args, workdir, tally,
                os.path.join(outdir, f"spans-{stem}.json"))
            metrics = per_layer_metrics(spec, values)
        else:
            state, metrics, detail = timed_run(wl, powercg, args, src,
                                               workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    chain_false = (tally.verdicts_false / tally.verdicts
                   if tally.verdicts else None)
    report = {
        "workload": args.workload, "why": why.get(args.workload),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "sizes": wl.sizes(state), "env": environment(),
        "attempted": tally.attempted, "failed": tally.failed,
        "fail_ratio": tally.failed / tally.attempted,
        "chain_verdicts": tally.verdicts,
        "chain_verdicts_false": tally.verdicts_false,
        "chain_false_ratio": chain_false,
        "failures": tally.failures,
        "unit_median_s": {k: statistics.median(v)
                          for k, v in tally.unit_s.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }
    with open(os.path.join(outdir, f"report-{stem}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}")
    print(f"  env {json.dumps(report['env'], sort_keys=True)}")
    print(f"  sizes {json.dumps(report['sizes'], sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':40s} {tally.failed}/{tally.attempted} units")
    print(f"  {'chain_false_ratio':40s} "
          f"{tally.verdicts_false}/{tally.verdicts} verdicts")
    for key, errs in list(tally.failures.items())[:10]:
        print(f"  FAILED {key}: {'; '.join(errs[:3])}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0


def run_all(args, root):
    spec = load_spec(root)
    names = [w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    print(f"{'workload':18s} {'metric':40s} value")
    metrics = {}
    for name in names:
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        with open(os.path.join(root, OUT_DIR, f"report-{stem}.json")) as fh:
            report = json.load(fh)
        for metric, m in results[name]["metrics"].items():
            print(f"{name:18s} {metric:40s} {m['value']:.6g} {m['unit']}")
            metrics[f"{name}.{metric}"] = m
        print(f"{name:18s} {'fail_ratio':40s} {report['fail_ratio']:.6g} "
              f"({report['failed']}/{report['attempted']} units)")
        if report["chain_verdicts"]:
            print(f"{name:18s} {'chain_false_ratio':40s} "
                  f"{report['chain_false_ratio']:.6g} ({report['chain_verdicts_false']}"
                  f"/{report['chain_verdicts']} verdicts)")
        else:
            print(f"{name:18s} {'chain_false_ratio':40s} n/a (0 verdicts)")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "powercg", "__init__.py")):
        print("perfbench: no src/powercg here; run from the root of a "
              "powercg checkout", file=sys.stderr)
        return 2
    # before numpy loads its BLAS, in this process and every child
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args, root)
    return run_one(args, root, src)


if __name__ == "__main__":
    sys.exit(main())

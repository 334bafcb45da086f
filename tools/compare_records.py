"""Compare the run records of the working tree with those of a revision.

  python3 tools/compare_records.py REV

REV is checked out into a temporary local git worktree (no network), which
is removed again however the comparison ends. Each tree runs the same series
through powercg.runs.run in a fresh process of its own, importing powercg
from its own src/:

  - the built-in cases 1a, 2a, 1b, 2b at their defaults, for xi in {1, 2};
  - the diagonal pool of the benchmark: every slot of DiagSeries.SLOTS times
    every one of its POOL members, xi in {1, 2}, run to full dimension, with
    spectra from this tree's perfbench/workloads.diag_spectrum;
  - six custom spectra, xi in {1, 2}, run to full dimension: three
    where grouping the eigenvalues acts, two clustered ones, 12 seeded
    eigenvalues each with a twin g * MERGE_REL relative above it (g = 0.5:
    every twin merges; g = 3: none does), and a floored one, an equal pair
    whose |e0|^2 entries each lie below WEIGHT_FLOOR but sum above it; an
    overflow one, eigenvalues 1e-160 and 1e-150 with error 1e40 each,
    whose smallest zero overflows the chain's z_1^-q at N = 2 when xi = 1
    (at xi = 2 its nu is floored away and its table is empty); and two
    scaled ones, the pool members (16, 3) and (72, 0), on either side of
    the 64-atom cutoff, with their eigenvalues times 2^-40 (atoms in about
    [1e-15, 1e-9]), whose records are the unscaled ones' scaled exactly
    only while every threshold on atoms and zeros is relative;
  - the matrix-free pool of the benchmark: workloads.dense_case at
    MatrixFree.N for every one of its POOL members, run_cg (theta = 1) and
    theta_iterate (theta >= 2) for every MatrixFree.THETAS at each
    N <= MatrixFree.N_MAX, one problem per member; member 0 also runs
    theta_iterate at theta in {4, 5} on its shared problem, which covers
    s = 2 and the odd weighting beyond the benchmark's thetas;
  - theta_iterate at theta in {1, ..., 5} on workloads.dense_case(40,
    MatrixFree.KERNEL, 0) at N = 0..40, one problem for every theta: run
    to full dimension, past the positive-definite prefix of its Lanczos
    recurrence (37 steps), where roundoff leaks a kernel direction in;
  - spectral_iterates on 2a at n = 256, L = 40, for theta in {0.5, 1.5}
    at N = 0..12, one problem for both thetas;
  - the Krylov routes on the built-in cases 1a, 2a, 1b, 2b at their
    defaults: run_cg (theta = 1) and theta_iterate at theta in {2, 3}, each
    at N <= BUILTIN_N_MAX, one problem per case, so that a change to a
    Krylov route shows on data with a roundoff floor as well.
These run_cg, theta_iterate and spectral_iterates records carry rho
only, at the benchmark's SIGMAS; their node fields and verdicts are None.

Each tree also runs powercg.runs.verify_case on the built-in cases at their
defaults, for xi in {1, 2}, and keeps every check line: name, verdict and
detail string. The built-in runs write their CSV and JSON files into a
temporary directory; each tree keeps the CSV text and the JSON document
without metadata.wall_time_s, so a serializer change shows as well.

Per field the report gives the number of records that differ: rho_sigma
(any sigma), n_sq_rho1, delta_n, ritz_min and ritz_max compared as float
hex, each with its largest relative difference |new - old| / max(|old|,
|new|) (inf where one side is not finite), and the bound_chain_ok and
lemma_ok verdicts. For each series whose values differ it gives the
number of its records that do and its largest rho_sigma difference
relative to max(|old|, |new|, RHO_FLOOR |old rho_sigma at N = 0|), with
the RHO_FLOOR of perfbench/workloads.py, the floor of the benchmark's rho
gate, so that a move among rho values at the roundoff floor reads as the
gate sees it. It lists every verdict flip, every series that is missing,
raised, or has a different number of records on one side, every verify
check line that differs, and every emitted file that differs, with its
first differing line. Exit status: 0 when nothing differs, 1 on any
difference, 2 when REV cannot be checked out or a tree cannot be run.
"""

import argparse
import importlib.util
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILTINS = ("1a", "2a", "1b", "2b")
XIS = (1.0, 2.0)
SPECTRAL_THETAS = (0.5, 1.5)
# theta series that the matrix-free pool member 0 adds to MatrixFree.THETAS
EXTRA_THETAS = (4, 5)
# the full-dimension matrix-free series: its order and thetas
FULL_N = 40
FULL_THETAS = (1, 2, 3, 4, 5)
# the Krylov series of the built-in cases: their thetas and last degree
BUILTIN_THETAS = (1, 2, 3)
BUILTIN_N_MAX = 60
VALUE_FIELDS = ("rho_sigma", "n_sq_rho1", "delta_n", "ritz_min", "ritz_max")
VERDICT_FIELDS = ("bound_chain_ok", "lemma_ok")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def builtin_series():
    """[(key, RunConfig keyword arguments)] of the built-ins at defaults."""
    return [(f"{test}/xi{int(xi)}", {"test": test, "xi": xi})
            for test in BUILTINS for xi in XIS]


def series():
    """[(key, RunConfig keyword arguments)], the same list in every tree."""
    out = builtin_series()
    wl = _workloads()
    for m in wl.DiagSeries.SLOTS:
        for index in range(wl.DiagSeries.POOL):
            lam, e0 = wl.diag_spectrum(m, index)
            for xi in XIS:
                out.append((f"m{m}/i{index}/xi{int(xi)}",
                            {"test": "custom", "xi": xi, "n_max": m,
                             "custom": {"eigenvalues": lam, "error": e0}}))
    return out + custom_series()


def custom_series():
    """[(key, RunConfig keyword arguments)] of the clustered, floored,
    overflow and scaled custom spectra."""
    import numpy as np
    from powercg.measures import MERGE_REL

    base = np.sort(10.0 ** np.random.default_rng(1).uniform(-2, 2, 12))
    e0 = np.random.default_rng(5).standard_normal(24)
    specs = {f"clustered/g{g:g}": {
        "eigenvalues": np.concatenate([base, base * (1 + g * MERGE_REL)]),
        "error": e0} for g in (0.5, 3)}
    e = np.sqrt(0.8e-300)
    specs["floored"] = {"eigenvalues": [0.5, 1, 1, 2, 3],
                        "error": [1, e, e, 1, 0.5]}
    specs["overflow"] = {"eigenvalues": [1e-160, 1e-150],
                         "error": [1e40, 1e40]}
    for m, index in ((16, 3), (72, 0)):
        lam, e0 = _workloads().diag_spectrum(m, index)
        specs[f"scaled/m{m}/i{index}"] = {"eigenvalues": lam * 2.0 ** -40,
                                          "error": e0}
    return [(f"{key}/xi{int(xi)}",
             {"test": "custom", "xi": xi, "custom": spec,
              "n_max": len(spec["error"])})
            for key, spec in specs.items() for xi in XIS]


def _hex(v):
    return None if v is None else float(v).hex()


def rho_row(N, rho):
    """A record row of rho alone, every other field None."""
    return {"N": N,
            "rho_sigma": {repr(s): _hex(v) for s, v in sorted(rho.items())},
            **dict.fromkeys(VALUE_FIELDS[1:] + VERDICT_FIELDS)}


def record_row(r):
    return {**rho_row(r.N, r.rho),
            "n_sq_rho1": _hex(r.n_sq_rho1),
            "delta_n": _hex(r.delta_n),
            "ritz_min": _hex(r.ritz_min),
            "ritz_max": _hex(r.ritz_max),
            "bound_chain_ok": r.bound_chain_ok,
            "lemma_ok": getattr(r, "lemma_ok", None)}


def krylov_rows(problem, theta, n_max, rho_of):
    """rho rows of run_cg (theta = 1) or of theta_iterate at N = 0..n_max
    on problem, measured by the evaluator rho_of."""
    from powercg.krylov import run_cg, theta_iterate

    if theta == 1:
        iterates = run_cg(problem, n_max).iterates
    else:
        iterates = [problem.f0] + [theta_iterate(problem, theta, N)
                                   for N in range(1, n_max + 1)]
    return [rho_row(N, rho_of(f)) for N, f in enumerate(iterates)]


def matrix_free_series(wl, index):
    """[(key, thunk giving rho rows)] for one member of the benchmark's
    matrix-free pool, with EXTRA_THETAS on member 0; the thetas share one
    problem, as in the benchmark."""
    from powercg.diagnostics import rho_evaluator
    from powercg.krylov import InverseProblem
    from powercg.linop import MatrixOperator

    mf = wl.MatrixFree
    matrix, solution = wl.dense_case(mf.N, mf.KERNEL, index)
    problem = InverseProblem(MatrixOperator(matrix), matrix @ solution,
                             known_solution=solution)
    rho_of = rho_evaluator(problem, wl.SIGMAS)
    thetas = mf.THETAS + (EXTRA_THETAS if index == 0 else ())
    return [(f"mf/{mf.unit_key(index, theta)}",
             lambda t=theta: krylov_rows(problem, t, mf.N_MAX, rho_of))
            for theta in thetas]


def builtin_krylov_series(wl, test):
    """[(key, thunk giving rho rows)] of run_cg and theta_iterate at every
    BUILTIN_THETAS on the built-in case test at its defaults, N <=
    BUILTIN_N_MAX; the thetas share one problem."""
    from powercg.diagnostics import rho_evaluator
    from powercg.runs import build_test_case

    problem = build_test_case(test)
    rho_of = rho_evaluator(problem, wl.SIGMAS)
    return [(f"krylov/{test}/theta{theta}",
             lambda t=theta: krylov_rows(problem, t, BUILTIN_N_MAX, rho_of))
            for theta in BUILTIN_THETAS]


def full_dimension_series(wl):
    """[(key, thunk giving rho rows)] of theta_iterate run to full
    dimension on the matrix-free pool member 0 at n = FULL_N, past the
    positive-definite prefix of its Lanczos recurrence: theta in FULL_THETAS
    at N = 0..FULL_N, one problem for every theta."""
    from powercg.diagnostics import rho_evaluator
    from powercg.krylov import InverseProblem, theta_iterate
    from powercg.linop import MatrixOperator

    matrix, solution = wl.dense_case(FULL_N, wl.MatrixFree.KERNEL, 0)
    problem = InverseProblem(MatrixOperator(matrix), matrix @ solution,
                             known_solution=solution)
    rho_of = rho_evaluator(problem, wl.SIGMAS)

    def rows(theta):
        return [rho_row(N, rho_of(theta_iterate(problem, theta, N)))
                for N in range(FULL_N + 1)]
    return [(f"full/n{FULL_N}/theta{theta}", lambda t=theta: rows(t))
            for theta in FULL_THETAS]


def spectral_theta_series(wl):
    """[(key, thunk giving rho rows)] of one spectral_iterates pass per
    theta of SPECTRAL_THETAS: 2a at n = 256, L = 40, N = 0..12."""
    from powercg.diagnostics import rho_evaluator
    from powercg.krylov import spectral_iterates
    from powercg.runs import build_test_case

    problem = build_test_case("2a", 256, 40.0)
    rho_of = rho_evaluator(problem, wl.SIGMAS)

    def rows(theta):
        return [rho_row(N, rho_of(f))
                for N, f in enumerate(spectral_iterates(problem, theta, 12))]
    return [(f"theta/2a/{theta:g}", lambda t=theta: rows(t))
            for theta in SPECTRAL_THETAS]


def _read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def _json_lines(path):
    """The JSON document at path without metadata.wall_time_s, as lines."""
    with open(path) as fh:
        doc = json.load(fh)
    del doc["metadata"]["wall_time_s"]
    return json.dumps(doc, indent=1, sort_keys=True).splitlines()


def dump(path):
    """Run every series and verify case with the powercg on sys.path and
    write {"powercg": its file, "series": {key: [rows] or {"error": ...}},
    "verify": {key: [[name, ok, detail]] or {"error": ...}}, "files":
    {file name: [lines] or {"error": ...}}}."""
    import powercg
    from powercg.runs import RunConfig, run, verify_case

    out = {}
    checks = {}
    files = {}

    def record(into, key, job):
        try:
            into[key] = job()
        except Exception as exc:  # a raising series is part of the record
            into[key] = {"error": f"{type(exc).__name__}: {exc}"}

    with tempfile.TemporaryDirectory() as tmp:
        emitted = {key: {"out": os.path.join(tmp, f"{i}.csv"),
                         "json_out": os.path.join(tmp, f"{i}.json")}
                   for i, (key, _) in enumerate(builtin_series())}
        for key, kwargs in series():
            kwargs = dict(kwargs, **emitted.get(key, {}))
            record(out, key, lambda: [record_row(r)
                                      for r in run(RunConfig(**kwargs)).records])
        for key, paths in emitted.items():
            record(files, f"{key}.csv",
                   lambda: _read_lines(paths["out"]))
            record(files, f"{key}.json",
                   lambda: _json_lines(paths["json_out"]))
    wl = _workloads()
    # one pool member's dense problem at a time
    for index in range(wl.MatrixFree.POOL):
        for key, job in matrix_free_series(wl, index):
            record(out, key, job)
    for key, job in full_dimension_series(wl) + spectral_theta_series(wl):
        record(out, key, job)
    # one built-in problem at a time
    for test in BUILTINS:
        for key, job in builtin_krylov_series(wl, test):
            record(out, key, job)
    for key, kwargs in builtin_series():
        record(checks, key, lambda: [
            [name, bool(ok), detail]
            for name, ok, detail in verify_case(RunConfig(**kwargs))])
    with open(path, "w") as fh:
        json.dump({"powercg": powercg.__file__, "series": out,
                   "verify": checks, "files": files}, fh)


def _rel(a, b, floor=0.0):
    """Relative difference of two float-hex values (None: not finite),
    relative to max(|a|, |b|, floor); inf when they differ and either one
    is not finite."""
    if a == b:
        return 0.0
    if a is None or b is None:
        return float("inf")
    a, b = float.fromhex(a), float.fromhex(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        return float("inf")
    return abs(b - a) / max(abs(a), abs(b), floor)


def _max_rel(a, b, floor=None):
    """The largest _rel over a dict's keys, each with its floor from the
    dict floor (0 where it has none), or _rel of two values."""
    if isinstance(a, dict):
        floor = floor or {}
        return max((_rel(a.get(k), b.get(k), floor.get(k, 0.0))
                    for k in set(a) | set(b)), default=0.0)
    return _rel(a, b)


def _rho_floor(rows, rel):
    """{sigma: rel |rho_sigma at N = 0|} of a series' rows; empty when they
    do not start at N = 0."""
    if not rows or rows[0]["N"] != 0:
        return {}
    return {s: rel * abs(float.fromhex(v))
            for s, v in rows[0]["rho_sigma"].items() if v is not None}


def diff_dumps(old, new):
    """Differences between two {key: [rows] or {"error": ...}} dumps:
    {"counts": {field: differing records}, "max_rel": {value field: largest
    relative difference}, "series": {key: (records whose values differ,
    largest floored rho_sigma difference)} for each series with such a
    record, "flips": [(key, N, field, old, new)], "problems": [str]}.
    Records are matched by series and N."""
    counts = {f: 0 for f in VALUE_FIELDS + VERDICT_FIELDS}
    max_rel = dict.fromkeys(VALUE_FIELDS, 0.0)
    moved = {}
    flips = []
    problems = []
    rho_floor = _workloads().RHO_FLOOR
    for key in sorted(set(old) | set(new)):
        if key not in old or key not in new:
            problems.append(f"{key}: only in the "
                            f"{'new' if key in new else 'old'} tree")
            continue
        a, b = old[key], new[key]
        if isinstance(a, dict) or isinstance(b, dict):
            if a != b:
                problems.append(f"{key}: {_outcome(a)} -> {_outcome(b)}")
            continue
        if len(a) != len(b):
            problems.append(f"{key}: {len(a)} records -> {len(b)}")
        floor = _rho_floor(a, rho_floor)
        changed, floored = 0, 0.0
        for ra, rb in zip(a, b):
            fields = [f for f in VALUE_FIELDS if ra[f] != rb[f]]
            for f in fields:
                counts[f] += 1
                max_rel[f] = max(max_rel[f], _max_rel(ra[f], rb[f]))
            changed += bool(fields)
            floored = max(floored, _max_rel(ra["rho_sigma"], rb["rho_sigma"],
                                            floor))
            for f in VERDICT_FIELDS:
                if ra[f] != rb[f]:
                    counts[f] += 1
                    flips.append((key, ra["N"], f, ra[f], rb[f]))
        if changed:
            moved[key] = (changed, floored)
    return {"counts": counts, "max_rel": max_rel, "series": moved,
            "flips": flips, "problems": problems}


def diff_verify(old, new):
    """Every verify check line that differs between two {key: [[name, ok,
    detail]] or {"error": ...}} dumps, as "verify key: old -> new" (None
    where one side has no such line)."""
    lines = []
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key, []), new.get(key, [])
        if isinstance(a, dict) or isinstance(b, dict):
            pairs = [(a, b)]
        else:
            pairs = itertools.zip_longest(a, b)
        lines += [f"verify {key}: {la} -> {lb}" for la, lb in pairs
                  if la != lb]
    return lines


def diff_files(old, new):
    """One line per emitted file that differs between two {name: [lines] or
    {"error": ...}} dumps, as "file name: line i: old -> new" at its first
    differing line, quoted (None past the end of the shorter one)."""
    lines = []
    for name in sorted(set(old) | set(new)):
        a, b = (d.get(name, {"error": "missing"}) for d in (old, new))
        if a == b:
            continue
        if isinstance(a, list) and isinstance(b, list):
            i, la, lb = next((i, la, lb) for i, (la, lb)
                             in enumerate(itertools.zip_longest(a, b), 1)
                             if la != lb)
            lines.append(f"file {name}: line {i}: {la!r} -> {lb!r}")
        else:
            lines.append(f"file {name}: {_file_outcome(a)} -> "
                         f"{_file_outcome(b)}")
    return lines


def _file_outcome(entry):
    return entry["error"] if isinstance(entry, dict) else f"{len(entry)} lines"


def _outcome(entry):
    return entry["error"] if isinstance(entry, dict) else f"{len(entry)} records"


def differs(diff):
    return bool(any(diff["counts"].values()) or diff["flips"]
                or diff["problems"])


def report(diff, label, n_series, n_records):
    lines = [f"{label}: {n_series} series, {n_records} records"]
    for f, n in diff["counts"].items():
        line = f"  {f:<15} {n} differing records"
        if f in diff["max_rel"]:
            line += f", max rel {diff['max_rel'][f]:.3g}"
        lines.append(line)
    for key, (n, rel) in diff["series"].items():
        lines.append(f"  {key}: {n} differing records, rho_sigma floored "
                     f"max rel {rel:.3g}")
    for key, N, f, a, b in diff["flips"]:
        lines.append(f"  flip {key} N={N} {f}: {a} -> {b}")
    lines += [f"  {p}" for p in diff["problems"]]
    lines.append("differences found" if differs(diff) else "no differences")
    return "\n".join(lines)


def _run_tree(tree, path):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.update({v: "1" for v in THREAD_VARS})
    subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", path],
                   env=env, check=True)
    with open(path) as fh:
        data = json.load(fh)
    if not data["powercg"].startswith(os.path.join(tree, "src") + os.sep):
        raise RuntimeError(f"{tree} imported powercg from {data['powercg']}")
    return data


def _git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv=None):
    p = argparse.ArgumentParser(prog="tools/compare_records.py")
    p.add_argument("rev", nargs="?")
    p.add_argument("--dump", metavar="PATH", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.dump:
        dump(args.dump)
        return 0
    if not args.rev:
        p.error("REV is required")
    tmp = tempfile.mkdtemp(prefix="compare-records-")
    tree = os.path.join(tmp, "tree")
    try:
        try:
            sha = _git("rev-parse", "--verify", args.rev + "^{commit}")
            _git("worktree", "add", "--detach", tree, sha)
            old = _run_tree(tree, os.path.join(tmp, "old.json"))
            new = _run_tree(ROOT, os.path.join(tmp, "new.json"))
        except (subprocess.CalledProcessError, RuntimeError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            print(f"compare_records: {detail}", file=sys.stderr)
            return 2
    finally:
        if os.path.isdir(tree):
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                            tree], capture_output=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    diff = diff_dumps(old["series"], new["series"])
    diff["problems"] += diff_verify(old["verify"], new["verify"])
    diff["problems"] += diff_files(old["files"], new["files"])
    n_records = sum(len(v) for v in new["series"].values()
                    if isinstance(v, list))
    print(report(diff, f"{args.rev} ({sha[:12]}) vs working tree",
                 len(new["series"]), n_records))
    return 1 if differs(diff) else 0


if __name__ == "__main__":
    sys.exit(main())

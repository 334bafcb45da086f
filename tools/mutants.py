"""Run tier-1 against one-line mutants of the tolerances and comparisons in
src/ that the tests are meant to pin.

  python3 tools/mutants.py [NAME ...]

Each mutant replaces one text of one file under src/, a text that occurs
there exactly once, by another. The working tree (less .git and the files
that building and testing leave behind) is copied once into a temporary
directory, which is removed again however the survey ends. The tier-1 suite
runs there first unmutated, which must pass, and then once per mutant, with
that one file mutated:

  python -m pytest -q -x -p no:cacheprovider --ignore=tests/test_mutants.py

with PYTHONPATH=src and BLAS and OpenMP on one thread. A mutant that fails
the suite is "killed", and the first failing test is printed with it; one
that passes is "survived". NAME picks mutants by name; without one every
mutant runs, which takes a few minutes. Exit status: 0 when the survey ran,
2 when a mutant's text does not occur exactly once or the unmutated suite
fails.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
LEFT_BEHIND = (".git", "__pycache__", ".pytest_cache", ".perfbench_out",
               ".benchmarks", "build")

# (name, file under the root, old text, new text)
MUTANTS = [
    ("chain-above-from-k+1", "src/powercg/orthopoly.py",
     "above[i] = s2w[k:].sum()", "above[i] = s2w[k + 1:].sum()"),
    ("CHAIN_SLACK-x10", "src/powercg/orthopoly.py",
     "CHAIN_SLACK = 1e-8", "CHAIN_SLACK = 1e-7"),
    ("_MP_MAX_ATOMS-60", "src/powercg/orthopoly.py",
     "_MP_MAX_ATOMS = 64", "_MP_MAX_ATOMS = 60"),
    ("BREAKDOWN_REL-1e-12", "src/powercg/krylov.py",
     "BREAKDOWN_REL = 1e-13", "BREAKDOWN_REL = 1e-12"),
    ("lanczos-one-gram-schmidt-pass", "src/powercg/krylov.py",
     "B = V[:, :k + 1]\n            for _ in range(2):",
     "B = V[:, :k + 1]\n            for _ in range(1):"),
    ("CG_TOL_REL-1e-11", "src/powercg/krylov.py",
     "CG_TOL_REL = 1e-12", "CG_TOL_REL = 1e-11"),
    ("MERGE_REL-1e-11", "src/powercg/measures.py",
     "MERGE_REL = 1e-12", "MERGE_REL = 1e-11"),
    ("LEMMA_SLACK-1e-6", "src/powercg/orthopoly.py",
     "LEMMA_SLACK = 1e-10", "LEMMA_SLACK = 1e-6"),
    ("EDGE_SLACK-1e-6", "src/powercg/orthopoly.py",
     "EDGE_SLACK = 1e-10", "EDGE_SLACK = 1e-6"),
    ("SEPARATION_SLACK-1e-6", "src/powercg/orthopoly.py",
     "SEPARATION_SLACK = 1e-10", "SEPARATION_SLACK = 1e-6"),
    ("split-capture-1e-10", "src/powercg/orthopoly.py",
     "at = np.abs(lam - z1) <= 1e-12 * z1",
     "at = np.abs(lam - z1) <= 1e-10 * z1"),
    # margin-only: at 32 digits the pool's zeros are the same doubles as at
    # the 47-62 digits dps gives there (see the comment on the dps line),
    # so this mutant is expected to survive
    ("mp-dps-34", "src/powercg/orthopoly.py",
     "dps = 40 + int(np.log10(max(span, 1.0)))",
     "dps = 34 + int(np.log10(max(span, 1.0)))"),
    # margin-only: no record of tools/compare_records.py moves (see the
    # comment on the live line), so this mutant is expected to survive
    ("ladder-breakdown-1e-13", "src/powercg/krylov.py",
     "live = nv > 1e-15 * lmax", "live = nv > 1e-13 * lmax"),
    ("KERNEL_TOL-1e-8", "src/powercg/krylov.py",
     "KERNEL_TOL = 1e-10", "KERNEL_TOL = 1e-8"),
    ("KERNEL_TOL-1e-12", "src/powercg/krylov.py",
     "KERNEL_TOL = 1e-10", "KERNEL_TOL = 1e-12"),
    ("_KER_DRIFT_REL-1e-8", "src/powercg/diagnostics.py",
     "_KER_DRIFT_REL = 1e-10", "_KER_DRIFT_REL = 1e-8"),
    ("_KER_DRIFT_REL-1e-12", "src/powercg/diagnostics.py",
     "_KER_DRIFT_REL = 1e-10", "_KER_DRIFT_REL = 1e-12"),
    ("runs-weight-floor-1e-290", "src/powercg/runs.py",
     "w[w <= WEIGHT_FLOOR] = 0.0", "w[w <= 1e-290] = 0.0"),
    ("zero-table-k-rounded-z1-side", "src/powercg/orthopoly.py",
     '"right" if down else "left"', '"left"'),
    ("rho-no-vector-check", "src/powercg/diagnostics.py",
     'f_n = _as_vector(f_n, problem.dimension, "f_n")',
     "f_n = np.asarray(f_n)"),
    ("image-batch-no-shape-filter", "src/powercg/krylov.py",
     "v is not x and v.shape == x.shape and", "v is not x and"),
    # the factored matrix's alternation starts with L instead of L^T
    ("qr-factor-order", "src/powercg/krylov.py",
     "if f % 2 == 0:", "if f % 2 == 1:"),
    # step 1 applies A to the rounded normalization of R0 again
    ("lanczos-rounded-start", "src/powercg/krylov.py",
     "else self.op.apply(self.start) / self.norm", "else self.op.apply(q)"),
    ("as-vector-any-dtype", "src/powercg/linop.py",
     'if x.dtype.kind not in "biuf":', 'if x.dtype.kind not in "biufOSU":'),
    # verify prints ok on a chain step whatever its count of pairs held
    ("verify-step-always-holds", "src/powercg/runs.py",
     "held == pairs", "held >= 0"),
]


def stale(root=ROOT):
    """[(name, count)] of the mutants whose old text does not occur exactly
    once in their file under root."""
    out = []
    for name, path, old, _ in MUTANTS:
        with open(os.path.join(root, path), encoding="utf-8") as f:
            count = f.read().count(old)
        if count != 1:
            out.append((name, count))
    return out


def run_tier1(tree):
    """(passed, first failing test or None) of tier-1 in tree."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    # tests/test_mutants.py checks this list against unmutated files, so
    # it would kill every mutant
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--ignore=tests/test_mutants.py"],
        cwd=tree, env=env, capture_output=True, text=True)
    first = next((line.split(" - ")[0].split(maxsplit=1)[1]
                  for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), None)
    return proc.returncode == 0, first


def main(argv=None):
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}")
        return 2
    bad = stale()
    for name, count in bad:
        print(f"{name}: old text occurs {count} times, expected once")
    if bad:
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    tmp = tempfile.mkdtemp(prefix="powercg-mutants-")
    try:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree,
                        ignore=shutil.ignore_patterns(*LEFT_BEHIND))
        passed, first = run_tier1(tree)
        if not passed:
            print(f"the unmutated tree fails tier-1 at {first}")
            return 2
        killed = 0
        for name, path, old, new in chosen:
            target = os.path.join(tree, path)
            with open(target, encoding="utf-8") as f:
                text = f.read()
            with open(target, "w", encoding="utf-8") as f:
                f.write(text.replace(old, new))
            try:
                passed, first = run_tier1(tree)
            finally:
                with open(target, "w", encoding="utf-8") as f:
                    f.write(text)
            killed += not passed
            verdict = f"killed    {first}" if not passed else "survived"
            print(f"{name:32s} {verdict}", flush=True)
        print(f"{killed} of {len(chosen)} killed")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at tiny sizes.

  python3 perfbench/selftest.py          # from the root of a checkout

For every workload, two traced runs in fresh processes must report identical
counts (calls of every span, Lanczos steps, verdicts, computed bytes; not the
bytes written, see tracing.UNSTEADY), the same counts
in every traced pass of a run, correct outputs, and self times that sum to the
traced pass wall time within the slack run.py states. Last, the benchmark
must refuse to run, with a nonzero exit and no result line, in a directory
that holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
KEY_COUNTS = ("linop.apply.calls", "krylov.lanczos.steps",
              "measures.DiscreteSpectralMeasure.calls", "orthopoly.verdicts")


def traced(root, workload):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0.5", "--trace", "1", "--tiny"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    path = os.path.join(root, ".perfbench_out",
                        f"report-{workload}-seed0-trace1.json")
    with open(path) as fh:
        return json.load(fh)


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    ok = True

    def verdict(good, what):
        nonlocal ok
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} {what}")

    for name in names:
        first, second = traced(root, name), traced(root, name)
        c1 = first["detail"]["steady_counts"]
        c2 = second["detail"]["steady_counts"]
        verdict(c1 == c2, f"{name}: counts repeat between runs "
                f"({', '.join(f'{k}={c1.get(k, 0)}' for k in KEY_COUNTS)})")
        for i, rep in enumerate((first, second)):
            d = rep["detail"]
            verdict(d["counts_repeat"], f"{name} run {i}: counts repeat "
                    f"across {len(d['traced_pass_s'])} traced passes")
            verdict(d["coverage_ok"], f"{name} run {i}: self times cover "
                    f"{min(d['coverage']):.4f} of traced wall time "
                    f"(slack {d['coverage_slack']})")
            verdict(rep["failed"] == 0, f"{name} run {i}: "
                    f"{rep['failed']}/{rep['attempted']} units failed")

    bare = os.path.join(root, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", names[0],
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        verdict(proc.returncode != 0 and not last.startswith("{"),
                f"bare directory: exit {proc.returncode}, no result line")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

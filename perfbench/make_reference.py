"""Record the reference rho_sigma series of every pool input.

  python3 perfbench/make_reference.py            # from the root of a checkout

Writes reference/<workload>.json: for each unit of each pool input, the
rho_0, rho_1 and rho_2 series over N. Only rho values go in; bound-chain
verdicts and Ritz values stay out, so that a later accuracy fix to them does
not read as a failed unit. Rerun only on purpose: the references pin what the
package computed when they were recorded.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def builtin(pc, wl, record_series, workdir):
    state = wl.setup(pc, 0, False, workdir)
    units = {}
    for (key, call, paths), (_, kind, value, _) in zip(state["units"],
                                                       wl.run_pass(state, pc)):
        assert kind == "ok" and value[0] == 0, (key, kind, value)
        units[key] = record_series(pc.runs.read_json(paths[1]).records)
    return units


def diag(pc, wl, record_series):
    units = {}
    for m in wl.SLOTS:
        for index in range(wl.POOL):
            for key, call, xi in wl.units(pc, m, index):
                units[key] = record_series(call(pc).records)
        print(f"diag-series: {m} atoms done", flush=True)
    return units


def matrix_free(pc, wl):
    units = {}
    for index in range(wl.POOL):
        state = wl.build(pc, index, False)
        for key, kind, value, _ in wl.run_pass(state, pc):
            assert kind == "ok", (key, value)
            units[key] = value[1]
        print(f"matrix-free: pool input {index} done", flush=True)
    return units


def main():
    root = os.getcwd()
    from run import THREAD_VARS
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(root, "src"))
    import warnings
    import powercg
    import powercg.cli  # noqa: F401
    from workloads import RHO_FLOOR, RHO_RTOL, WORKLOADS, record_series
    warnings.simplefilter("ignore")
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root) as workdir:
        tables = {
            "builtin-defaults": builtin(powercg, WORKLOADS["builtin-defaults"],
                                        record_series, workdir),
            "diag-series": diag(powercg, WORKLOADS["diag-series"],
                                record_series),
            "matrix-free": matrix_free(powercg, WORKLOADS["matrix-free"]),
        }
    for name, units in tables.items():
        doc = {"meta": {"workload": name, "powercg": powercg.__version__,
                        "rtol": RHO_RTOL, "floor_times_rho_at_0": RHO_FLOOR},
               "units": units}
        with open(os.path.join(HERE, "reference", name + ".json"), "w") as fh:
            json.dump(doc, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()

"""Exit codes, config merging, and file outputs of the command line tool."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import powercg
from powercg import runs
from powercg.cli import main
from powercg.runs import read_csv, read_json

CUSTOM = {"test": "custom", "n_max": 6,
          "custom": {"dimension": 6, "seed": 2, "kappa": 100.0}}


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_solve_writes_csv_and_json(tmp_path, capsys):
    cfg = write_config(tmp_path, CUSTOM)
    csv = tmp_path / "run.csv"
    js = tmp_path / "run.json"
    code = main(["solve", "--config", cfg, "--out", str(csv),
                 "--json", str(js)])
    assert code == 0
    out = capsys.readouterr().out
    assert "7 records" in out and "csv ->" in out
    rows = read_csv(str(csv))
    assert [r["N"] for r in rows] == list(range(7))
    back = read_json(str(js))
    assert back.metadata["config"]["n_max"] == 6
    assert back.metadata["config"]["test"] == "custom"


def test_flags_override_config_file(tmp_path):
    cfg = write_config(tmp_path, CUSTOM)
    js = tmp_path / "run.json"
    code = main(["solve", "--config", cfg, "--nmax", "3", "--xi", "2",
                 "--json", str(js)])
    assert code == 0
    back = read_json(str(js))
    assert back.metadata["config"]["n_max"] == 3
    assert back.metadata["config"]["xi"] == 2.0
    assert len(back.records) == 4


def test_config_supplies_extra_sigmas(tmp_path):
    payload = dict(CUSTOM, sigmas=[0.0, 0.5, 1.0])
    cfg = write_config(tmp_path, payload)
    js = tmp_path / "run.json"
    assert main(["solve", "--config", cfg, "--json", str(js)]) == 0
    back = read_json(str(js))
    # 2 is always recorded even when not requested
    assert set(back.records[0].rho) == {0.0, 0.5, 1.0, 2.0}


def test_unknown_config_field_rejected(tmp_path, capsys):
    for field in ("bogus", "tol_rel"):
        cfg = write_config(tmp_path, dict(CUSTOM, **{field: 1}))
        assert main(["solve", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "unknown config fields" in err and field in err


def test_removed_flags_are_usage_errors(capsys):
    for flag in ("--tol-rel", "--tol-abs", "--consistency-tol"):
        assert main(["solve", "--test", "1a", flag, "1e-3"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def test_malformed_custom_spec_exits_one(tmp_path, capsys):
    spec = {"eigenvalues": [1.0, 2.0], "error": [1.0, 2.0, 3.0]}
    cfg = write_config(tmp_path, {"test": "custom", "n_max": 2,
                                  "custom": spec})
    for command in ("solve", "verify"):
        assert main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert "equal length" in captured.err, command
        assert "FAIL" not in captured.out


def test_malformed_config_exits_one(tmp_path, capsys):
    bad = [(payload, "JSON object") for payload in ([1, 2], [["test", "1a"]], 3)]
    bad += [({"test": "1a", field: value}, field)
            for field, value in (("xi", [1]), ("n_max", [3]), ("sigmas", 5))]
    # non-finite numbers fail before any work, naming their field
    inf, nan = float("inf"), float("nan")
    bad += [({"test": "1a", "n": 256, "n_max": 4, field: value}, field)
            for field, value in (("xi", inf), ("xi", nan), ("L", inf),
                                 ("sigmas", [0.0, nan]))]
    # a finite xi whose weights overflow fails before any work, naming the
    # exponent
    bad += [({"test": "1a", "n": 256, "n_max": 4, "xi": 400}, "overflows")]
    bad += [(dict(CUSTOM, custom={"dimension": 6, "kappa": kappa}), "kappa")
            for kappa in (0, -1, float("inf"), float("nan"))]
    # no value is coerced silently: no field takes a string or a bool (a
    # string of sigmas is not iterated by character), and an integer field
    # takes no fraction
    bad += [({"test": "1a", "n": 256, "n_max": 4, field: value}, repr(field))
            for field, value in (("sigmas", "12"), ("sigmas", [True, "2"]),
                                 ("sigmas", {"0": 1}), ("n_max", 4.7),
                                 ("n_max", True), ("n", 256.5), ("xi", "1"),
                                 ("xi", True))]
    bad += [(dict(CUSTOM, custom=spec), repr(field))
            for spec, field in (({"dimension": 6.7, "seed": 1}, "dimension"),
                                ({"dimension": 6, "seed": 1.9}, "seed"),
                                ({"dimension": True}, "dimension"))]
    # n and L mean nothing for a diagonal spec
    bad += [(dict(CUSTOM, **{field: value}), repr(field))
            for field, value in (("n", 5), ("L", "abc"))]
    # a path field of the wrong type fails before the series runs (an int
    # would be taken as a file descriptor to write to)
    bad += [({"test": "custom", "custom": {"dimension": 4}, "n_max": 2,
              field: value}, repr(field))
            for field, value in (("json_out", [1]), ("out", 7))]
    for payload, match in bad:
        cfg = write_config(tmp_path, payload)
        for command in ("solve", "verify"):
            assert main([command, "--config", cfg]) == 1, (payload, command)
            captured = capsys.readouterr()
            assert "powercg: error:" in captured.err and match in captured.err
            assert captured.out == ""
    # a finite sigma whose power of the live eigenvalues overflows fails
    # before any work, naming the exponent; verify measures no rho and
    # accepts the same config
    for test, sigma in (("1a", 400.0), ("2a", -400.0)):
        cfg = write_config(tmp_path, {"test": test, "n": 256, "n_max": 4,
                                      "sigmas": [0.0, 1.0, 2.0, sigma]})
        assert main(["solve", "--config", cfg]) == 1, (test, sigma)
        captured = capsys.readouterr()
        assert "powercg: error:" in captured.err
        assert f"overflows: exponent t = {sigma:g}" in captured.err
        assert captured.out == ""
        assert main(["verify", "--config", cfg]) == 0, (test, sigma)
        capsys.readouterr()


def test_missing_config_file(tmp_path, capsys):
    # an unreadable config, and an output path that cannot be written,
    # exit 1 with one error line
    missing = tmp_path / "no" / "such"
    for argv, match in (
            (["--config", str(missing / "file.json")], "cannot read --config"),
            (["--test", "1a", "--n", "256", "--nmax", "4",
              "--out", str(missing / "x.csv")], "x.csv")):
        assert main(["solve", *argv]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("powercg: error:"), captured.err
        assert captured.err.count("\n") == 1 and match in captured.err


def test_test_id_required(capsys):
    assert main(["solve"]) == 1
    assert "--test is required" in capsys.readouterr().err


def test_bad_test_choice_is_usage_error(capsys):
    assert main(["solve", "--test", "9x"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_bad_sigma_string(capsys):
    assert main(["solve", "--test", "1a", "--sigma", "a,b"]) == 1
    assert "cannot parse --sigma" in capsys.readouterr().err


def test_resolve_failure_exits_one(capsys):
    assert main(["solve", "--test", "1a", "--n", "300"]) == 1
    assert "power of two" in capsys.readouterr().err


def test_custom_without_spec_exits_one(capsys):
    assert main(["verify", "--test", "custom"]) == 1
    assert "custom" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["solve", "--help"]) == 0
    capsys.readouterr()


def test_solve_gate_failure_exits_two(capsys):
    # the Lorentzian pair genuinely fails its gate on a 256-point box of
    # half width 200, so this exercises the invariant exit path end to end
    code = main(["solve", "--test", "1b", "--n", "256", "--L", "200",
                 "--nmax", "4"])
    assert code == 2
    assert "invariant failure" in capsys.readouterr().err


def test_verify_ok_prints_all_checks(capsys):
    sizes = {"1a": ("256", "40"), "2a": ("256", "40"),
             "1b": ("256", "25"), "2b": ("256", "25")}
    for test, (n, L) in sizes.items():
        for xi in ("1", "2"):
            code = main(["verify", "--test", test, "--n", n, "--L", L,
                         "--xi", xi])
            assert code == 0, (test, xi)
            lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
            names = [ln.split()[1].rstrip(":") for ln in lines]
            assert names == ["consistency_gate", "zeros_interlace",
                             "integral_identity", "split_bound",
                             "tail_bound", "split_orthogonality",
                             "weighted_left_bound", "assembled_bound",
                             "edge_times_delta", "coarse_bound"], \
                (test, xi)
            assert all(ln.startswith("ok") for ln in lines), (test, xi, lines)
            # the whole 60-degree table, and each chain step on every
            # (degree, sigma) pair with sigma <= xi
            assert "60 degrees" in lines[1], (test, xi, lines[1])
            pairs = 60 * (int(xi) + 1)
            assert all(ln.endswith(f"{pairs} of {pairs} (degree, sigma) "
                                   "pairs hold") for ln in lines[2:]), \
                (test, xi, lines)
            # on 256 points the table's converged zeros meet to roundoff
            worst = float(lines[1].rsplit(maxsplit=1)[1])
            assert abs(worst) <= 1e-14, (test, xi, lines[1])
    # at their default sizes every table interlaces strictly, and the line
    # gives the signed worst overshoot, the margin, not a clamped 0
    for test in sizes:
        assert main(["verify", "--test", test]) == 0, test
        line = capsys.readouterr().out.splitlines()[1]
        assert line.startswith("ok   zeros_interlace: 60 degrees"), line
        assert -1e-4 < float(line.rsplit(maxsplit=1)[1]) < -1e-6, line


def test_verify_gate_failure_exits_two(capsys):
    code = main(["verify", "--test", "1b", "--n", "256", "--L", "200"])
    assert code == 2
    out = capsys.readouterr().out
    assert out.startswith("FAIL consistency_gate")


def test_verify_chain_step_failure_exits_two(capsys, monkeypatch):
    # a chain step false at one degree of each sigma's table fails its own
    # line, counted, and leaves every other line ok
    real = runs.chain_table

    def one_false(*args, **kwargs):
        table = real(*args, **kwargs)
        for name, _, _, ok in table.steps:
            if name == "tail_bound":
                ok[0] = False
        return table

    monkeypatch.setattr(runs, "chain_table", one_false)
    code = main(["verify", "--test", "1a", "--n", "256", "--L", "40",
                 "--nmax", "8"])
    assert code == 2
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    failed = [ln for ln in lines if not ln.startswith("ok")]
    assert len(failed) == 1 and failed[0].startswith("FAIL tail_bound: "), \
        lines
    # 8 degrees at sigma = 0 and 1, one false pair in each
    held, pairs = (int(v) for v in failed[0].split()[2:5:2])
    assert (held, pairs) == (14, 16), failed[0]


def test_installed_entry_point(tmp_path):
    cfg = write_config(tmp_path, CUSTOM)
    csv = tmp_path / "run.csv"
    exe = shutil.which("powercg")
    cmd = [exe] if exe else [sys.executable, "-m", "powercg.cli"]
    proc = subprocess.run(cmd + ["solve", "--config", cfg, "--out", str(csv)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "records" in proc.stdout
    assert len(read_csv(str(csv))) == 7


def test_solve_loads_no_scipy():
    # the runtime is numpy only: a whole solve in a fresh interpreter leaves
    # no scipy module behind
    code = ("import sys\n"
            "from powercg.cli import main\n"
            "code = main(['solve', '--test', '1a', '--n', '256', '--L', '40', "
            "'--nmax', '8'])\n"
            "print(code, sorted(m for m in sys.modules\n"
            "                   if m == 'scipy' or m.startswith('scipy.')))\n")
    src = os.path.dirname(os.path.dirname(powercg.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"

"""The record comparison of tools/compare_records.py, on in-memory dumps."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "compare_records.py")


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_records", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(N, rho1=0.5, chain=True, lemma=True):
    return {"N": N, "rho_sigma": {"0.0": (1.0).hex(), "1.0": rho1.hex()},
            "n_sq_rho1": (N * N * rho1).hex(), "delta_n": (2.0).hex(),
            "ritz_min": (0.25).hex(), "ritz_max": (4.0).hex(),
            "bound_chain_ok": chain, "lemma_ok": lemma}


def test_identical_dumps_do_not_differ(compare):
    dump = {"1a/xi1": [_row(0), _row(1)], "m2/i0/xi1": {"error": "boom"}}
    diff = compare.diff_dumps(dump, dump)
    assert not compare.differs(diff)
    assert set(diff["counts"]) == set(compare.VALUE_FIELDS
                                      + compare.VERDICT_FIELDS)
    assert "no differences" in compare.report(diff, "x", 2, 2)


def test_changed_value_and_flipped_verdict(compare):
    # a matrix-free series carries rho alone, every other field None
    mf_row = compare.rho_row(4, {0.0: 1.0, 1.0: 0.5, 2.0: 0.25})
    assert mf_row["delta_n"] is None and mf_row["lemma_ok"] is None
    moved = dict(mf_row, rho_sigma=dict(mf_row["rho_sigma"],
                                        **{"2.0": (0.25 + 2.0 ** -54).hex()}))
    # a delta_n that turns nan (written 'nan' as float hex) differs by inf
    finite = dict(_row(1), delta_n=(1.5).hex())
    # a rho at the roundoff floor that doubles moves by 0.5 relative, and by
    # 1e-8 relative to the floor 1e-12 rho(N = 0) of the benchmark's gate
    start = compare.rho_row(0, {0.0: 1.0})
    old = {"1a/xi1": [_row(0), _row(1), _row(2)],
           "2a/xi1": [_row(0), _row(1)],
           "m2/i0/xi1": [finite],
           "mf/p0/theta2": [mf_row],
           "full/n40/theta1": [start, compare.rho_row(1, {0.0: 1e-20})]}
    new = {"1a/xi1": [_row(0), _row(1, rho1=0.5 + 2.0 ** -53), _row(2)],
           "2a/xi1": [_row(0), _row(1, lemma=False)],
           "m2/i0/xi1": [dict(finite, delta_n=float("nan").hex())],
           "mf/p0/theta2": [moved],
           "full/n40/theta1": [start, compare.rho_row(1, {0.0: 2e-20})]}
    diff = compare.diff_dumps(old, new)
    assert diff["counts"] == {"rho_sigma": 3, "n_sq_rho1": 1, "delta_n": 1,
                              "ritz_min": 0, "ritz_max": 0,
                              "bound_chain_ok": 0, "lemma_ok": 1}
    one_ulp = 2.0 ** -53 / (0.5 + 2.0 ** -53)
    assert diff["max_rel"] == {"rho_sigma": 0.5, "n_sq_rho1": one_ulp,
                               "delta_n": float("inf"), "ritz_min": 0.0,
                               "ritz_max": 0.0}
    # per series: its records whose values differ and the floored rho move;
    # a verdict flip alone moves no value
    assert diff["series"] == {
        "1a/xi1": (1, one_ulp), "m2/i0/xi1": (1, 0.0),
        "mf/p0/theta2": (1, 2.0 ** -54 / (0.25 + 2.0 ** -54)),
        "full/n40/theta1": (1, 1e-20 / 1e-12)}
    assert diff["flips"] == [("2a/xi1", 1, "lemma_ok", True, False)]
    assert diff["problems"] == []
    assert compare.differs(diff)
    text = compare.report(diff, "x", 5, 9)
    assert "flip 2a/xi1 N=1 lemma_ok: True -> False" in text
    assert "rho_sigma       3 differing records, max rel 0.5\n" in text
    assert ("  full/n40/theta1: 1 differing records, rho_sigma floored max "
            "rel 1e-08\n") in text
    assert (f"  1a/xi1: 1 differing records, rho_sigma floored max rel "
            f"{one_ulp:.3g}\n") in text
    assert "delta_n         1 differing records, max rel inf\n" in text
    assert "ritz_min        0 differing records, max rel 0\n" in text
    assert "lemma_ok        1 differing records\n" in text
    assert text.endswith("differences found")


def test_structural_differences_are_problems(compare):
    old = {"a": [_row(0), _row(1)], "b": [_row(0)], "c": [_row(0)]}
    new = {"a": [_row(0)], "b": {"error": "RuntimeError: x"}, "d": [_row(0)]}
    diff = compare.diff_dumps(old, new)
    assert not any(diff["counts"].values())
    assert diff["problems"] == ["a: 2 records -> 1",
                                "b: 1 records -> RuntimeError: x",
                                "c: only in the old tree",
                                "d: only in the new tree"]
    assert compare.differs(diff)


def test_changed_verify_line_is_reported(compare):
    old = {"1a/xi1": [["measure_mass", True, "rel gap 0.000e+00"],
                      ["zeros_interlace", True,
                       "8 degrees, max violation 0.000e+00"]],
           "2b/xi2": {"error": "ValueError: x"}}
    new = {"1a/xi1": [["measure_mass", True, "rel gap 0.000e+00"],
                      ["zeros_interlace", True,
                       "8 degrees, max violation 1.000e-16"]],
           "2b/xi2": {"error": "ValueError: x"}}
    assert compare.diff_verify(old, old) == []
    lines = compare.diff_verify(old, new)
    assert lines == ["verify 1a/xi1: ['zeros_interlace', True, '8 degrees, "
                     "max violation 0.000e+00'] -> ['zeros_interlace', True, "
                     "'8 degrees, max violation 1.000e-16']"]
    diff = compare.diff_dumps({}, {})
    diff["problems"] += lines
    assert compare.differs(diff)
    text = compare.report(diff, "x", 0, 0)
    assert f"  {lines[0]}" in text and text.endswith("differences found")
    # lines pair by check name: a check on one side only reads None on the
    # other, and the checks after it do not move
    probe = ["operator_symmetry", True, "max rel gap 0.000e+00"]
    extra = ["coarse_bound", True, "8 of 8 (degree, sigma) pairs hold"]
    removed = dict(old, **{"1a/xi1": [old["1a/xi1"][0], probe,
                                      old["1a/xi1"][1]]})
    assert compare.diff_verify(removed, old) == [
        f"verify 1a/xi1: {probe} -> None"]
    added = dict(old, **{"1a/xi1": old["1a/xi1"] + [extra]})
    assert compare.diff_verify(old, added) == [
        f"verify 1a/xi1: None -> {extra}"]


def test_changed_emitted_file_is_reported(compare):
    csv = ["N, rho0", "0, 1.0", "1, 0.5"]
    doc = ["{", ' "schema_version": 1', "}"]
    old = {"1a/xi1.csv": csv, "1a/xi1.json": doc,
           "2a/xi1.csv": {"error": "ValueError: x"}}
    assert compare.diff_files(old, old) == []
    new = {"1a/xi1.csv": csv[:2] + ["1, 0.25"], "1a/xi1.json": doc,
           "2a/xi1.csv": {"error": "ValueError: x"}}
    lines = compare.diff_files(old, new)
    assert lines == ["file 1a/xi1.csv: line 3: '1, 0.5' -> '1, 0.25'"]
    shorter = dict(new, **{"1a/xi1.json": doc[:2]})
    del shorter["2a/xi1.csv"]
    assert compare.diff_files(old, shorter)[1:] == [
        "file 1a/xi1.json: line 3: '}' -> None",
        "file 2a/xi1.csv: ValueError: x -> missing"]
    diff = compare.diff_dumps({}, {})
    diff["problems"] += lines
    assert compare.differs(diff)
    text = compare.report(diff, "x", 0, 0)
    assert f"  {lines[0]}" in text and text.endswith("differences found")

"""Tests of the benchmark's reference checks: each check accepts real output
and rejects a corrupted copy of it.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refcheck as rc  # noqa: E402
import workloads  # noqa: E402
from refcheck import CheckFailure  # noqa: E402

SRC = os.path.join(os.path.dirname(HERE), "src")


def polimage(args: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c",
                          "import sys; from polimage.cli import main; sys.exit(main())",
                          *args], capture_output=True, text=True, env=env, check=True)
    return json.loads(out.stdout)


def command(build, label: str):
    return next(c for c in build(7) if c.label == label)


def off_by_one(matrix: str) -> str:
    head, _, rest = matrix.partition(",")
    return f"{int(head) + 1},{rest}"


# -- the reference itself ----------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4])
def test_every_traceless_matrix_is_a_commutator(q):
    F = rc.field_for_order(q)
    assert rc.brute_image(F, rc.comm, 2) == rc.traceless(F)
    assert len(rc.traceless(F)) == q ** 3


def test_f4_is_a_field():
    F = rc.F4()
    for x in range(1, 4):
        assert F.mul(x, F.inv(x)) == 1
    for x in range(4):
        for y in range(4):
            for z in range(4):
                assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))


def test_amitsur_levitzki_on_units():
    assert rc.unit_span(rc.QQ, "s4") == (0, "zero")
    assert rc.unit_span(rc.QQ, "s3") == (4, "full")


def test_capelli_c4_is_alternating():
    F = rc.PrimeField(101)
    xs = [rc.M.ints(F, *(range(i, i + 4))) for i in range(7)]
    swapped = [xs[1], xs[0]] + xs[2:]
    assert rc.capelli(*swapped) == rc.capelli(*xs).neg()


def test_composed_image_matches_brute_force_over_f3():
    F = rc.PrimeField(3)
    direct = rc.brute_image(F, rc.POLYS["[[x1,x2],x3]"][1], 3)
    composed = rc.brute_image(F, rc.comm, 2, first=rc.traceless(F))
    assert direct == composed


# -- each check rejects a corrupted output -----------------------------------------------


def test_image_with_one_element_removed_is_rejected():
    cmd = command(workloads.enumerate_workload, "[x1,x2]^3 q=3")
    doc = polimage(cmd.args)
    cmd.check(doc)
    bad = copy.deepcopy(doc)
    bad["report"]["elements"].pop()
    with pytest.raises(CheckFailure):
        cmd.check(bad)


def test_image_with_a_foreign_element_is_rejected():
    F = rc.PrimeField(3)
    expected = rc.brute_image(F, rc.POLYS["[x1,x2]^2"][1], 2)
    printed = ["%s,%s;%s,%s" % rc.decode(F, c).entries() for c in expected]
    rc.check_image_elements(F, expected, printed)
    printed[0] = "1,1;0,1"
    with pytest.raises(CheckFailure):
        rc.check_image_elements(F, expected, printed)


def test_wrong_verdict_is_rejected():
    cmd = command(workloads.classify_semihomog, "x1^2")
    doc = polimage(cmd.args)
    cmd.check(doc)
    bad = copy.deepcopy(doc)
    bad["result"]["verdict"] = "scalars"
    with pytest.raises(CheckFailure):
        cmd.check(bad)


def test_ratio_witness_off_by_one_is_rejected():
    cmd = command(workloads.classify_semihomog, "x1^2")
    doc = polimage(cmd.args)
    wit = doc["result"]["witnesses"][0]
    assert wit["kind"] == "distinct_ratios"
    for part in ("first", "second"):
        bad = copy.deepcopy(doc)
        w = bad["result"]["witnesses"][0][part]
        w["value"] = off_by_one(w["value"])
        with pytest.raises(CheckFailure):
            cmd.check(bad)


def test_unit_witness_off_by_one_is_rejected():
    cmd = command(workloads.classify_multilinear, "[x1,x2]*[x3,x4]")
    doc = polimage(cmd.args)
    cmd.check(doc)
    for k in range(len(doc["result"]["witnesses"])):
        bad = copy.deepcopy(doc)
        w = bad["result"]["witnesses"][k]
        w["value"] = off_by_one(w["value"])
        with pytest.raises(CheckFailure):
            cmd.check(bad)


def test_witness_without_its_property_is_rejected():
    F = rc.QQ
    # e11 * e12 = e12 is nonzero but nilpotent, so it is no nonzero-trace value
    wit = {"kind": "nonzero_trace_value", "args": "e11,e12,e11,e11,e11,e11",
           "value": "0,1;0,0"}
    with pytest.raises(CheckFailure):
        rc.check_witness(F, "x1*x2*x3*x4*x5*x6", 1, wit)


def test_shared_ratio_is_rejected():
    F = rc.QQ
    # x1^2 at diag(1,2) and diag(2,4): both ratio 4 + 1/4, so not distinct
    wit = {"kind": "distinct_ratios", "ratios": ["17/4", "17/4"],
           "first": {"args": ["1,0;0,2"], "value": "1,0;0,4"},
           "second": {"args": ["2,0;0,4"], "value": "4,0;0,16"}}
    with pytest.raises(CheckFailure):
        rc.check_witness(F, "x1^2", 1, wit)


def test_corpus_entry_with_wrong_oracle_size_is_rejected():
    entry = {"name": "commutator", "verdict": "sl2", "expected": "sl2", "ok": True,
             "checks_ok": True,
             "classification": {"verdict": "sl2", "witnesses": []},
             "checks": {"oracle_F2": {"ok": True, "size": 8, "span_tag": "sl2"},
                        "oracle_F3": {"ok": True, "size": 27, "span_tag": "sl2"}}}
    ref = {("commutator", 2): (8, "sl2"), ("commutator", 3): (27, "sl2")}
    workloads.check_corpus_entry(entry, ref)
    entry["checks"]["oracle_F3"]["size"] = 26
    with pytest.raises(CheckFailure):
        workloads.check_corpus_entry(entry, ref)


def test_failing_verify_report_is_rejected():
    cmd = command(workloads.selfcheck, "verify Q")
    doc = {"command": "verify", "report": {
        "field": "Q", "trials": 5, "seed": 7, "ok": True, "failures": [],
        "matches_trace_factor": True, "matches_identity_factor": True,
        "linear_in_t": True}}
    cmd.check(doc)
    doc["report"]["linear_in_t"] = False
    with pytest.raises(CheckFailure):
        cmd.check(doc)


def test_zeroed_corpus_witness_is_rejected():
    # what a matrix evaluator that returned zero matrices would print
    cmd = command(workloads.selfcheck, "corpus commutator-square")
    doc = polimage(cmd.args)
    cmd.check(doc)
    assert doc["entries"][0]["classification"]["witnesses"]
    bad = copy.deepcopy(doc)
    for w in bad["entries"][0]["classification"]["witnesses"]:
        w["value"] = "0,0;0,0"
    with pytest.raises(CheckFailure):
        cmd.check(bad)

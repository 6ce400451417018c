"""The polimage command: JSON envelopes, determinism, exit codes."""

import json

import pytest
from click.testing import CliRunner

from polimage.cli import main


@pytest.fixture
def runner():
    return CliRunner(mix_stderr=False) if _mix_supported() else CliRunner()


def _mix_supported():
    import inspect
    return "mix_stderr" in inspect.signature(CliRunner.__init__).parameters


def invoke(runner, args):
    return runner.invoke(main, args)


def payload(result):
    assert result.output.strip(), result
    doc = json.loads(result.output.strip().splitlines()[-1])
    assert doc["schema"] == 1
    return doc


def test_classify_commutator(runner):
    res = invoke(runner, ["classify", "[x1,x2]", "-m", "2"])
    assert res.exit_code == 0
    doc = payload(res)
    assert doc["command"] == "classify"
    assert doc["result"]["verdict"] == "sl2"


def test_classify_builtin_s4(runner):
    res = invoke(runner, ["classify", "s4"])
    assert res.exit_code == 0
    assert payload(res)["result"]["verdict"] == "zero"


def test_classify_probabilistic(runner):
    res = invoke(runner, ["classify", "[x1,x2]^2 * x1", "-m", "2",
                          "--mode", "probabilistic", "--trials", "40"])
    assert res.exit_code == 0
    doc = payload(res)
    assert doc["result"]["verdict"] == "dense"
    assert doc["result"]["probe"]["seed"] == 0


def test_classify_deterministic_bytes(runner):
    # stdout carries only the JSON; timing goes to stderr and may vary
    args = ["classify", "[x1,x2]^2 * x1", "-m", "2"]
    out1 = invoke(runner, args).stdout
    out2 = invoke(runner, args).stdout
    assert out1 == out2 and out1.startswith("{")


@pytest.mark.parametrize("args", [
    ["x1 + @", "-m", "1"],
    # 1/5 has no value mod 5, nor 1/11 mod 11
    ["1/5*x1*x2*x1", "-m", "2", "--char", "5"],
    ["1/11*[x1,x2]^2*x1", "-m", "2", "--mode", "probabilistic", "--prime", "11"],
    # past the nesting limit, not a RecursionError traceback
    ["(" * 3000 + "x1" + ")" * 3000, "-m", "1"],
], ids=["syntax", "char_divides_denominator", "prime_divides_denominator",
        "nesting_3000"])
def test_classify_parse_error_exit_2(runner, args):
    res = invoke(runner, ["classify", *args])
    assert res.exit_code == 2
    assert payload(res)["error"]["kind"] == "bad_input"


def test_classify_nesting_300_parses(runner):
    text = "(" * 299 + "[x1,x2]" + ")" * 299
    res = invoke(runner, ["classify", text, "-m", "2"])
    assert res.exit_code == 0
    assert payload(res)["result"]["verdict"] == "sl2"


def test_classify_term_budget_exit_3(runner):
    res = invoke(runner, ["classify", "[x1,x2]^3", "-m", "2",
                          "--term-budget", "10"])
    assert res.exit_code == 3
    assert payload(res)["error"]["kind"] == "term_budget"


def test_enumerate_commutator(runner):
    res = invoke(runner, ["enumerate", "[x1,x2]", "-m", "2", "-q", "3"])
    assert res.exit_code == 0
    rep = payload(res)["report"]
    assert rep["size"] == 27 and rep["span_tag"] == "sl2"
    assert "elapsed" not in rep


def test_enumerate_budget_exit_3(runner):
    res = invoke(runner, ["enumerate", "s4", "-q", "3",
                          "--tuple-budget", "1000"])
    assert res.exit_code == 3


@pytest.mark.parametrize("text, order", [("x1", "6"), ("1/5*x1", "5")],
                         ids=["not_a_field_order", "char_divides_denominator"])
def test_enumerate_bad_field_exit_2(runner, text, order):
    res = invoke(runner, ["enumerate", text, "-m", "1", "-q", order])
    assert res.exit_code == 2
    assert payload(res)["error"]["kind"] == "bad_input"


def test_enumerate_rational_rejected(runner):
    res = invoke(runner, ["enumerate", "x1", "-m", "1", "-q", "q"])
    assert res.exit_code == 2


def test_cone_command(runner):
    res = invoke(runner, ["cone", "1,1;0,1"])
    assert payload(res)["cone"]["kind"] == "scaled_unipotent"
    res = invoke(runner, ["cone", "1,1;0,1", "--field", "F2"])
    assert payload(res)["cone"]["kind"] == "traceless_invertible"
    res = invoke(runner, ["cone", "1,0;0,2"])
    doc = payload(res)
    assert doc["cone"]["kind"] == "distinct_eigenvalues"
    assert doc["ratio"] == "5/2"


def test_cone_bad_matrix_exit_2(runner):
    res = invoke(runner, ["cone", "1,2;x"])
    assert res.exit_code == 2


def test_euler_command(runner):
    res = invoke(runner, ["euler", "e11,e12"])
    doc = payload(res)
    assert doc["verdict"]["kind"] == "path"
    assert (doc["verdict"]["from"], doc["verdict"]["to"]) == (1, 2)
    res = invoke(runner, ["euler", "e12,e12", "--poly", "[x1,x2]"])
    doc = payload(res)
    assert doc["verdict"]["kind"] == "no_path_or_circuit"
    assert doc["consistent"] is True


def test_linearize_command(runner):
    res = invoke(runner, ["linearize", "[x1,x2]^2", "-m", "2"])
    doc = payload(res)
    assert doc["m_out"] == 4
    assert doc["back_substitution_factor"] == 4
    assert doc["linearized"].count("x") == 64  # 16 words of 4 variables


def test_verify_command(runner):
    res = invoke(runner, ["verify", "--trials", "5"])
    assert res.exit_code == 0
    assert payload(res)["report"]["ok"] is True


def test_corpus_single_entry(runner):
    res = invoke(runner, ["corpus", "--only", "commutator"])
    assert res.exit_code == 0
    doc = payload(res)
    assert doc["ok"] is True
    assert doc["entries"][0]["verdict"] == "sl2"


def test_corpus_list(runner):
    res = invoke(runner, ["corpus", "--list"])
    names = [e["name"] for e in payload(res)["entries"]]
    assert "commutator" in names and "cone-product" in names
    assert len(names) == 9


def test_corpus_unknown_name_exit_2(runner):
    res = invoke(runner, ["corpus", "--only", "nonesuch"])
    assert res.exit_code == 2


def test_corpus_mismatch_exit_4(runner, monkeypatch):
    import dataclasses
    import polimage.corpus as corpus_mod
    broken = dataclasses.replace(corpus_mod.entry_by_name("coordinate"),
                                 expected="zero")
    monkeypatch.setattr(corpus_mod, "ENTRIES",
                        [broken if e.name == "coordinate" else e
                         for e in corpus_mod.ENTRIES])
    res = invoke(runner, ["corpus", "--only", "coordinate"])
    assert res.exit_code == 4


def test_pretty_flag(runner):
    res = invoke(runner, ["cone", "0,0;0,0", "--pretty"])
    assert res.output.startswith("{\n")
    assert json.loads(res.output)["cone"]["kind"] == "zero"


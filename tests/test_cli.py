"""The polimage command: JSON envelopes, determinism, exit codes."""

import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

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



@pytest.mark.parametrize("args, command", [
    (["classify", "x1", "-m", "abc"], "classify"),
    (["classify", "x1", "-m", "1", "--mode", "nope"], "classify"),
    (["classify", "x1", "-m", "1", "--bogus"], "classify"),
    (["classify"], "classify"),
    (["enumerate", "x1", "-m", "1"], "enumerate"),
    (["nosuch", "x1"], None),
], ids=["bad_option_value", "bad_choice", "unknown_option", "missing_argument",
        "missing_option", "unknown_command"])
def test_usage_error_envelope(runner, args, command):
    res = invoke(runner, args)
    assert res.exit_code == 2
    doc = payload(res)
    assert doc["command"] == command
    assert doc["error"]["kind"] == "bad_input"
    assert doc["error"]["message"]


def test_help_and_version_print_text(runner):
    for args in (["--help"], ["classify", "--help"], ["--version"]):
        res = invoke(runner, args)
        assert res.exit_code == 0
        assert not res.stdout.startswith("{")
    assert "0.1.0" in invoke(runner, ["--version"]).stdout


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_refuses_no_trials(runner, trials):
    res = invoke(runner, ["verify", "--trials", trials])
    assert res.exit_code == 2
    assert payload(res)["error"]["kind"] == "bad_input"


def test_probe_prime_follows_char(runner):
    args = ["classify", "[x1,x2]^2*x1", "-m", "2", "--mode", "probabilistic"]
    res = invoke(runner, [*args, "--char", "101"])
    assert res.exit_code == 0
    doc = payload(res)
    assert doc["result"]["verdict"] == "dense"
    assert doc["result"]["probe"]["prime"] == 101
    # F_5 is too small for a degree-5 probe
    res = invoke(runner, [*args, "--char", "5"])
    assert res.exit_code == 2
    assert "must exceed twice the degree" in payload(res)["error"]["message"]
    res = invoke(runner, [*args, "--char", "5", "--prime", "7"])
    assert res.exit_code == 2
    message = payload(res)["error"]["message"]
    assert "7" in message and "5" in message


# -- fuzzing every command ---------------------------------------------------

_leaf = st.sampled_from(["x1", "x2", "x3", "2*x1", "1/2*x2"])
polys = st.recursive(_leaf, lambda inner: st.one_of(
    st.tuples(inner, inner).map(lambda t: f"[{t[0]},{t[1]}]"),
    st.tuples(inner, inner, st.sampled_from("*+-")).map(lambda t: t[0] + t[2] + t[1]),
    st.tuples(inner, st.integers(1, 3)).map(lambda t: f"({t[0]})^{t[1]}")), max_leaves=3)
junk = st.sampled_from(["", "@", "x0", "x9", "[x1", "x1^0", "1/0*x1", "s9", "s3",
                        "--bogus", "-m", "abc", "-q", "--pretty", "e13", "1,2;3"])


def _mostly(valid, invalid=junk):
    """valid three times in four (0, hypothesis's simplest draw, is valid)"""
    return st.integers(0, 3).flatmap(lambda i: valid if i < 3 else invalid)


def _opt(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


_text = _mostly(polys).map(lambda t: [t])
_m = _mostly(st.sampled_from([3, 2, 1])).map(lambda v: ["-m", str(v)])
_seed = _opt("--seed", st.integers(0, 3))
_fields = _mostly(st.sampled_from(["q", "F2", "F3", "F4", "F5", "F101"]),
                  st.sampled_from(["6", "F9^3", "zz", "0"]))
_commands = st.one_of(
    st.tuples(st.just(["classify"]), _text, _m,
              _opt("--char", _mostly(st.sampled_from([0, 2, 3, 5]), st.sampled_from([4, "x"]))),
              _opt("--mode", _mostly(st.sampled_from(["symbolic", "probabilistic"]))),
              _opt("--trials", st.integers(-1, 3)), _opt("--prime", st.sampled_from([7, 101])),
              _opt("--search-budget", st.integers(0, 50)), _seed),
    st.tuples(st.just(["enumerate"]), _text, _m,
              _mostly(st.sampled_from([2, 3]), st.sampled_from([6, "q", "x"])).map(
                  lambda q: ["-q", str(q)]),
              _opt("--method", _mostly(st.sampled_from(["auto", "naive", "fast"]))),
              # walks past the budget (q = 3 with m = 3) are refused, not run
              st.integers(1, 20000).map(lambda b: ["--tuple-budget", str(b)])),
    st.tuples(st.just(["corpus"]), st.one_of(st.just(["--list"]), st.sampled_from(
        ["commutator", "coordinate", "nondense", "nonesuch"]).map(lambda n: ["--only", n]))),
    st.tuples(st.just(["cone"]), _mostly(st.sampled_from(["1,1;0,1", "0,0;0,0", "1,t;0,2"]))
              .map(lambda t: [t]), _opt("--field", _fields)),
    st.tuples(st.just(["euler"]), _mostly(st.sampled_from(["e11,e12", "e12,e21", "e11"]))
              .map(lambda t: [t]), st.one_of(st.just([]), polys.map(lambda t: ["--poly", t]))),
    st.tuples(st.just(["verify"]), _opt("--field", _fields),
              st.integers(-1, 3).map(lambda n: ["--trials", str(n)]), _seed),
    st.tuples(st.just(["linearize"]), _text, _m),
    st.tuples(st.sampled_from([["nosuch"], []]), junk.map(lambda t: [t])))
argvs = st.tuples(_commands, _mostly(st.just([]), junk.map(lambda t: [t]))).map(
    lambda t: [a for part in t[0] for a in part] + t[1])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argvs)
def test_every_argv_ends_in_an_envelope(argv):
    res = CliRunner().invoke(main, argv)
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exc_info
    assert res.exit_code in (0, 1, 2, 3, 4)
    assert "Traceback" not in res.output
    if "--help" in argv or "--version" in argv:
        return
    doc = json.loads(res.stdout)  # the whole of stdout, --pretty or not
    assert doc["schema"] == 1
    assert ("error" in doc) == (res.exit_code in (2, 3))

"""The polimage command: JSON envelopes, determinism, exit codes."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polimage.cli import main
from polimage.fields import FieldSpec, TermBudgetExceeded


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved, as a terminal shows them
    exception: BaseException | None


class _Tee(io.StringIO):
    def __init__(self, mixed: io.StringIO):
        super().__init__()
        self.mixed = mixed

    def write(self, s):
        self.mixed.write(s)
        return super().write(s)


def invoke(args):
    """Run polimage in this process on args, capturing its output, exit
    code and any exception that escaped main."""
    mixed = io.StringIO()
    out, err = _Tee(mixed), _Tee(mixed)
    code, exc = 0, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(args, prog_name="polimage")
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
            exc = e if code else None
        except Exception as e:
            code, exc = 1, e
    return Result(code, out.getvalue(), err.getvalue(), mixed.getvalue(), exc)


def payload(result):
    assert result.output.strip(), result
    doc = json.loads(result.output.strip().splitlines()[-1])
    assert doc["schema"] == 1
    return doc


def test_classify_commutator():
    res = invoke(["classify", "[x1,x2]", "-m", "2"])
    assert res.exit_code == 0
    doc = payload(res)
    assert doc["command"] == "classify"
    assert doc["result"]["verdict"] == "sl2"


def test_classify_builtin_s4():
    res = invoke(["classify", "s4"])
    assert res.exit_code == 0
    assert payload(res)["result"]["verdict"] == "zero"


def test_classify_probabilistic():
    res = invoke(["classify", "[x1,x2]^2 * x1", "-m", "2",
                  "--mode", "probabilistic", "--trials", "40"])
    assert res.exit_code == 0
    doc = payload(res)
    assert doc["result"]["verdict"] == "dense"
    assert doc["result"]["probe"]["seed"] == 0


def test_classify_deterministic_bytes():
    # stdout carries only the JSON; timing goes to stderr and may vary
    args = ["classify", "[x1,x2]^2 * x1", "-m", "2"]
    out1 = invoke(args).stdout
    out2 = invoke(args).stdout
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
def test_classify_parse_error_exit_2(args):
    res = invoke(["classify", *args])
    assert res.exit_code == 2
    assert payload(res)["error"]["kind"] == "bad_input"


def test_classify_nesting_300_parses():
    text = "(" * 299 + "[x1,x2]" + ")" * 299
    res = invoke(["classify", text, "-m", "2"])
    assert res.exit_code == 0
    assert payload(res)["result"]["verdict"] == "sl2"


def test_classify_term_budget_exit_3():
    res = invoke(["classify", "[x1,x2]^3", "-m", "2",
                  "--term-budget", "10"])
    assert res.exit_code == 3
    assert payload(res)["error"]["kind"] == "term_budget"


@pytest.mark.parametrize("args", [
    ["classify", "(x1+x2)^10*(x1+x2)^10", "-m", "2"],
    ["classify", "[(x1+x2)^10,(x1+x2)^9]", "-m", "2"],
    ["classify", "[x1,x2]^200", "-m", "2"],
    ["enumerate", "[x1,x2]^200", "-m", "2", "-q", "2"],
    ["classify", "x1^2000000", "-m", "1"],
], ids=["product", "commutator", "power", "power_enumerate", "power_word_length"])
def test_classify_term_budget_exit_3_at_parse(args):
    # 1024*1024, 2*1024*512 and 2^200 words would pass the 10^6 term budget,
    # and so would one word of 2*10^6 letters
    t0 = time.monotonic()
    res = invoke(args)
    assert time.monotonic() - t0 < 1.0
    assert res.exit_code == 3
    error = payload(res)["error"]
    assert error["kind"] == "term_budget"
    assert "1000000" in error["message"] and "probabilistic" not in error["message"]


def test_parse_term_budget_boundary(monkeypatch):
    import polimage.freealg as freealg
    monkeypatch.setattr(freealg, "DEFAULT_TERM_BUDGET", 4)
    for text in ("(x1+x2)*(x1+x2)", "[x1+x2,x1]", "(x1+x2)^2"):  # bound 4: parsed
        freealg.parse_poly(text, 2)
    for text in ("(x1+x2+x1*x2)*(x1+x2)", "[x1+x2,x1+x2*x1]", "(x1+x2)^3"):
        with pytest.raises(TermBudgetExceeded) as e:
            freealg.parse_poly(text, 2)
        assert e.value.budget == 4 and e.value.count > 4
    res = invoke(["classify", "(x1+x2)^3", "-m", "2"])
    assert res.exit_code == 3
    assert payload(res)["error"]["message"] == (
        "expanding this power could give 2^3 words, over the term budget 4")


def test_classify_supplied_weights():
    res = invoke(["classify", "x1^2+x2", "-m", "2", "--weights", "1,2"])
    assert res.exit_code == 0
    result = payload(res)["result"]
    assert result["verdict"] == "dense"
    assert "semi-homogeneous for supplied weights [1, 2]" in result["diagnostics"]


@pytest.mark.parametrize("weights", ["1,2,3", "a,b"], ids=["wrong_length", "not_ints"])
def test_classify_bad_weights_exit_2(weights):
    res = invoke(["classify", "x1^2+x2", "-m", "2", "--weights", weights])
    assert res.exit_code == 2
    assert payload(res)["error"]["kind"] == "bad_input"


@pytest.mark.parametrize("args, message", [
    (["classify", "s4", "-m", "8"], "builtin s4 uses 4 variables, not 8"),
    (["classify", "x1"], "-m is required unless the input is a builtin name"),
], ids=["builtin_count", "missing_m"])
def test_load_poly_refusal_messages(args, message):
    res = invoke(args)
    assert res.exit_code == 2
    assert payload(res)["error"] == {"kind": "bad_input", "message": message}


@pytest.mark.parametrize("args", [
    ["classify", "[x1,x2]^3", "-m", "2", "--search-budget", "-5"],
    ["classify", "[x1,x2]^3", "-m", "2", "--term-budget", "-1"],
    ["enumerate", "x1", "-m", "1", "-q", "2", "--tuple-budget", "-1"],
], ids=["search", "term", "tuple"])
def test_negative_budget_refused(args):
    res = invoke(args)
    assert res.exit_code == 2
    error = payload(res)["error"]
    assert error["kind"] == "bad_input"
    assert error["message"] == f"argument {args[-2]}: must be at least 0, got {args[-1]}"
    # a budget of 0 is a budget, not a refusal of the option
    assert invoke(args[:-1] + ["0"]).exit_code != 2


def test_single_variable_fast_enumeration_bounded():
    # m = 1 spans the four unit images once: four evaluations
    args = ["enumerate", "x1", "-m", "1", "-q", "2", "--method", "fast"]
    res = invoke([*args, "--tuple-budget", "3"])
    assert res.exit_code == 3
    assert payload(res)["error"]["kind"] == "tuple_budget"
    assert invoke([*args, "--tuple-budget", "4"]).exit_code == 0


def test_enumerate_commutator():
    res = invoke(["enumerate", "[x1,x2]", "-m", "2", "-q", "3"])
    assert res.exit_code == 0
    rep = payload(res)["report"]
    assert rep["size"] == 27 and rep["span_tag"] == "sl2"
    assert "elapsed" not in rep


def test_enumerate_budget_exit_3():
    res = invoke(["enumerate", "s4", "-q", "3",
                  "--tuple-budget", "1000"])
    assert res.exit_code == 3


@pytest.mark.parametrize("text, order", [("x1", "6"), ("1/5*x1", "5")],
                         ids=["not_a_field_order", "char_divides_denominator"])
def test_enumerate_bad_field_exit_2(text, order):
    res = invoke(["enumerate", text, "-m", "1", "-q", order])
    assert res.exit_code == 2
    assert payload(res)["error"]["kind"] == "bad_input"


def test_enumerate_rational_rejected():
    res = invoke(["enumerate", "x1", "-m", "1", "-q", "q"])
    assert res.exit_code == 2


def test_cone_command():
    res = invoke(["cone", "1,1;0,1"])
    assert payload(res)["cone"]["kind"] == "scaled_unipotent"
    res = invoke(["cone", "1,1;0,1", "--field", "F2"])
    assert payload(res)["cone"]["kind"] == "traceless_invertible"
    res = invoke(["cone", "1,0;0,2"])
    doc = payload(res)
    assert doc["cone"]["kind"] == "distinct_eigenvalues"
    assert doc["ratio"] == "5/2"


@pytest.mark.parametrize("args, stdout", [
    (["cone", "1+t,0;0,1", "--field", "F9"],
     '{"command":"cone","cone":{"kind":"distinct_eigenvalues","ratio_invariant":"0+2*t"},'
     '"det":"1+1*t","disc":"2","field":"F3^2","matrix":"1+1*t,0;0,1","ratio":"0+2*t",'
     '"schema":1,"trace":"2+1*t"}'),
    (["cone", "1,0;0,2"],
     '{"command":"cone","cone":{"kind":"distinct_eigenvalues","ratio_invariant":"5/2"},'
     '"det":"2","disc":"1","field":"Q","matrix":"1,0;0,2","ratio":"5/2","schema":1,'
     '"trace":"3"}'),
    (["cone", "1,0;0,0"],
     '{"command":"cone","cone":{"kind":"distinct_eigenvalues","ratio_invariant":"infinite"},'
     '"det":"0","disc":"1","field":"Q","matrix":"1,0;0,0","ratio":"infinite","schema":1,'
     '"trace":"1"}'),
    (["cone", "0,1;0,0", "--field", "F2"],
     '{"command":"cone","cone":{"kind":"nilpotent"},"det":"0","disc":"0","field":"F2",'
     '"matrix":"0,1;0,0","ratio":"undefined","schema":1,"trace":"0"}'),
    (["cone", "1,0;0,3", "--field", "F25"],
     '{"command":"cone","cone":{"kind":"distinct_eigenvalues","ratio_invariant":"0"},'
     '"det":"3","disc":"4","field":"F5^2","matrix":"1,0;0,3","ratio":"0","schema":1,'
     '"trace":"4"}'),
    (["classify", "x1^2", "-m", "1", "--char", "2"],
     '{"command":"classify","input":"x1^2","m":1,"result":{"assumptions":'
     '{"characteristic":2,"field":"quadratic closure of the prime field of characteristic 2",'
     '"root_closure_degree":2,"weighted_degree":2,"weights":[1]},"budget_consumed":'
     '{"symbolic_terms":8},"diagnostics":["tr^2 and det are not proportional; witnesses at '
     'exponents [[4, 0, 0, 0], [2, 0, 0, 2]]","semi-homogeneous for inferred weights [1]"],'
     '"mode":"symbolic","seed":0,"verdict":"dense","witnesses":[{"first":{"args":'
     '["1,0;0,0"],"kind":"value","value":"1,0;0,0"},"kind":"distinct_ratios","ratios":'
     '["0","infinite"],"second":{"args":["0,1;1,0"],"kind":"value","value":"1,0;0,1"}}]},'
     '"schema":1}'),
], ids=["F9", "Q", "infinite", "undefined", "F25", "classify_char2"])
def test_printed_ratio_invariants(args, stdout):
    res = invoke(args)
    assert res.exit_code == 0
    assert res.stdout == stdout + "\n"


def test_cone_bad_matrix_exit_2():
    res = invoke(["cone", "1,2;x"])
    assert res.exit_code == 2


def test_euler_command():
    res = invoke(["euler", "e11,e12"])
    doc = payload(res)
    assert doc["verdict"]["kind"] == "path"
    assert (doc["verdict"]["from"], doc["verdict"]["to"]) == (1, 2)
    res = invoke(["euler", "e12,e12", "--poly", "[x1,x2]"])
    doc = payload(res)
    assert doc["verdict"]["kind"] == "no_path_or_circuit"
    assert doc["consistent"] is True


def test_linearize_command():
    res = invoke(["linearize", "[x1,x2]^2", "-m", "2"])
    doc = payload(res)
    assert doc["m_out"] == 4
    assert doc["back_substitution_factor"] == 4
    assert doc["linearized"].count("x") == 64  # 16 words of 4 variables


def test_verify_command():
    res = invoke(["verify", "--trials", "5"])
    assert res.exit_code == 0
    assert payload(res)["report"]["ok"] is True


def test_corpus_single_entry():
    res = invoke(["corpus", "--only", "commutator"])
    assert res.exit_code == 0
    doc = payload(res)
    assert doc["ok"] is True
    assert doc["entries"][0]["verdict"] == "sl2"


def test_corpus_list():
    res = invoke(["corpus", "--list"])
    names = [e["name"] for e in payload(res)["entries"]]
    assert "commutator" in names and "cone-product" in names
    assert len(names) == 9


def test_corpus_unknown_name_exit_2():
    res = invoke(["corpus", "--only", "nonesuch"])
    assert res.exit_code == 2
    error = payload(res)["error"]
    assert error == {"kind": "bad_input", "message": "no corpus entry named 'nonesuch'"}


def test_corpus_empty_name_exit_2():
    res = invoke(["corpus", "--only", ""])
    assert res.exit_code == 2
    error = payload(res)["error"]
    assert error["kind"] == "bad_input"
    assert "no corpus entry named ''" in error["message"]
    assert error["message"] == "no corpus entry named ''"


def test_verify_failure_exit_1(monkeypatch):
    # a monomial is linear in every slot but not alternating, so the
    # substitution sum is tr(T) times the value, not 2 tr(T) times it
    import polimage.oracle as oracle
    from polimage.freealg import parse_poly
    monkeypatch.setattr(oracle, "capelli_poly",
                        lambda t: parse_poly("x1*x2*x3*x4*x5*x6*x7", 7))
    rep = oracle.verify_alternating_trace(FieldSpec(101), trials=3)
    assert not rep.ok and not rep.matches_trace_factor
    assert {f["kind"] for f in rep.failures} == {"trace_factor"}
    res = invoke(["verify", "--trials", "3"])
    assert res.exit_code == 1
    doc = payload(res)
    assert doc["command"] == "verify" and "error" not in doc
    assert doc["report"]["ok"] is False
    assert [f["kind"] for f in doc["report"]["failures"]] == ["trace_factor"] * 3


def test_corpus_mismatch_exit_4(monkeypatch):
    import dataclasses
    import polimage.corpus as corpus_mod
    broken = dataclasses.replace(corpus_mod.entry_by_name("coordinate"),
                                 expected="zero")
    monkeypatch.setattr(corpus_mod, "ENTRIES",
                        [broken if e.name == "coordinate" else e
                         for e in corpus_mod.ENTRIES])
    res = invoke(["corpus", "--only", "coordinate"])
    assert res.exit_code == 4


def test_pretty_flag():
    res = invoke(["cone", "0,0;0,0", "--pretty"])
    assert res.output.startswith("{\n")
    assert json.loads(res.output)["cone"]["kind"] == "zero"



@pytest.mark.parametrize("args, command", [
    (["classify", "x1", "-m", "abc"], "classify"),
    (["classify", "x1", "-m", "1", "--mode", "nope"], "classify"),
    (["classify", "x1", "-m", "1", "--bogus"], "classify"),
    (["classify"], "classify"),
    (["enumerate", "x1", "-m", "1"], "enumerate"),
    (["nosuch", "x1"], None),
    (["classify", "x1", "-m", "1", "--pre"], "classify"),
    (["classify", "x1", "y", "-m", "1"], "classify"),
    ([], None),
], ids=["bad_option_value", "bad_choice", "unknown_option", "missing_argument",
        "missing_option", "unknown_command", "abbreviated_option", "extra_argument",
        "no_command"])
def test_usage_error_envelope(args, command):
    res = invoke(args)
    assert res.exit_code == 2
    doc = payload(res)
    assert doc["command"] == command
    assert doc["error"]["kind"] == "bad_input"
    assert doc["error"]["message"]


def test_help_and_version_print_text():
    for args in (["--help"], ["classify", "--help"], ["--version"]):
        res = invoke(args)
        assert res.exit_code == 0
        assert not res.stdout.startswith("{")
    assert "0.1.0" in invoke(["--version"]).stdout
    assert invoke(["--version"]).stdout == "polimage, version 0.1.0\n"


def test_interrupt_prints_aborted(monkeypatch):
    import polimage.cli as cli

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "classify_general", interrupt)
    res = invoke(["classify", "x1", "-m", "1"])
    assert res.exit_code == 1
    assert res.stdout == "" and res.stderr == "Aborted!\n"


def test_option_value_may_begin_with_dash():
    # an option takes the next argument as its value, whatever it looks like
    res = invoke(["classify", "x1^2+x2", "-m", "2", "--weights", "-1,2"])
    assert res.exit_code == 0
    assert payload(res)["result"]["verdict"] == "dense"
    res = invoke(["corpus", "--only", "-x"])
    assert res.exit_code == 2
    assert "no corpus entry named '-x'" in payload(res)["error"]["message"]
    assert payload(res)["error"]["message"] == "no corpus entry named '-x'"


@pytest.mark.parametrize("args, name", [
    (["enumerate", "x1", "-m", "1", "-q", "x"], "x"),
    (["verify", "--field", "F"], "F"),
    (["cone", "1,1;0,1", "--field", "zz"], "zz"),
    (["cone", "1,1;0,1", "--field", "F5^x"], "F5^x"),
], ids=["enumerate", "verify", "cone", "bad_degree"])
def test_unknown_field_name_exit_2(args, name):
    res = invoke(args)
    assert res.exit_code == 2
    error = payload(res)["error"]
    assert error["kind"] == "bad_input"
    assert repr(name) in error["message"] and "int()" not in error["message"]
    for form in ("q", "F<p>", "F<p^2>", "F<p>^2"):
        assert form in error["message"]


def test_cli_imports_only_stdlib():
    # start-up cost: nothing outside the standard library may creep back in
    import polimage
    src = os.path.dirname(os.path.dirname(os.path.abspath(polimage.__file__)))
    code = ("import sys; before = set(sys.modules); import polimage.cli; "
            "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    loaded = {name.partition(".")[0] for name in out.split()}
    assert "polimage" in loaded and "click" not in loaded
    assert loaded - set(sys.stdlib_module_names) == {"polimage"}


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_refuses_no_trials(trials):
    res = invoke(["verify", "--trials", trials])
    assert res.exit_code == 2
    assert payload(res)["error"]["kind"] == "bad_input"


def test_probe_prime_follows_char():
    args = ["classify", "[x1,x2]^2*x1", "-m", "2", "--mode", "probabilistic"]
    res = invoke([*args, "--char", "101"])
    assert res.exit_code == 0
    doc = payload(res)
    assert doc["result"]["verdict"] == "dense"
    assert doc["result"]["probe"]["prime"] == 101
    # F_5 is too small for a degree-5 probe
    res = invoke([*args, "--char", "5"])
    assert res.exit_code == 2
    assert "must exceed twice the degree" in payload(res)["error"]["message"]
    res = invoke([*args, "--char", "5", "--prime", "7"])
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
    res = invoke(argv)
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code in (0, 1, 2, 3, 4)
    assert "Traceback" not in res.output
    if "--help" in argv or "--version" in argv:
        return
    doc = json.loads(res.stdout)  # the whole of stdout, --pretty or not
    assert doc["schema"] == 1
    assert ("error" in doc) == (res.exit_code in (2, 3))

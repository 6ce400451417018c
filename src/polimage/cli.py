"""Command line front end.

Every command prints a single JSON document to stdout with schema 1,
serialized compactly with sorted keys so identical inputs give identical
bytes; --pretty switches to indented output.  Timing goes to stderr,
never into the JSON.  Exit codes: 0 success, 1 a verification check
failed, 2 bad input, 3 a budget refusal, 4 a corpus mismatch.  Failures,
from a malformed command line to a budget refusal deep in the engine, end
in the same document with an "error" member (see :func:`main`).  The
command line is read by the standard library's argparse.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from polimage import __version__
from polimage.classify import (DEFAULT_PROBE_TRIALS, DEFAULT_SEARCH_BUDGET,
                               check_euler, classify_general, euler_predict,
                               parse_units)
from polimage.corpus import ENTRIES, run_corpus
from polimage.fields import FieldSpec, QQ
from polimage.freealg import (FreePoly, capelli_poly, format_poly, multilinearize,
                              parse_poly, standard_poly)
from polimage.generic import DEFAULT_PROBE_PRIME, DEFAULT_TERM_BUDGET, TermBudgetExceeded
from polimage.matalg import cone_classify, parse_mat2, ratio_invariant
from polimage.oracle import (DEFAULT_TUPLE_BUDGET, EnumerationBudgetError,
                             enumerate_image, verify_alternating_trace)

EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_CORPUS_MISMATCH = 4


def emit(payload: dict, command: str, pretty: bool, code: int = 0):
    doc = {"schema": 1, "command": command}
    doc.update(payload)
    if pretty:
        text = json.dumps(doc, sort_keys=True, indent=2)
    else:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    print(text, flush=True)
    if code:
        sys.exit(code)


def parse_field(text: str) -> FieldSpec:
    """Field names: q or Q for the rationals, F5, F25 or F5^2 for finite."""
    t = text.strip()
    if t.lower() in ("q", "0", "qq"):
        return QQ
    if t.startswith(("F", "f")):
        t = t[1:]
    base, hat, deg = t.partition("^")
    try:
        q, k = int(base), int(deg) if hat else 1
    except ValueError:
        raise ValueError(f"unknown field {text!r}: expected q, F<p>, F<p^2> "
                         "or F<p>^2") from None
    if hat:
        return FieldSpec(q, k)
    root = math.isqrt(max(q, 0))
    if root * root == q and root >= 2:
        try:
            return FieldSpec(root, 2)
        except ValueError:
            pass
    return FieldSpec(q)


_BUILTINS = {"s": standard_poly, "c": capelli_poly}


def load_poly(text: str, m: int | None, field: FieldSpec = QQ) -> FreePoly:
    """Parse polynomial text, accepting builtin names s2..s6 and c2..c6."""
    t = text.strip()
    if len(t) == 2 and t[0] in _BUILTINS and t[1].isdigit() and 2 <= int(t[1]) <= 6:
        p = _BUILTINS[t[0]](int(t[1]), field)
        if m is not None and m != p.m:
            raise ValueError(f"builtin {t} uses {p.m} variables, not {m}")
        return p
    if m is None:
        raise ValueError("-m is required unless the input is a builtin name")
    return parse_poly(t, m, field)


def parse_weight_list(chunks: list[str], m: int) -> list[tuple[int, ...]]:
    out = []
    for chunk in chunks:
        w = tuple(int(x) for x in chunk.split(","))
        if len(w) != m:
            raise ValueError(f"weight vector {chunk!r} has {len(w)} entries, need {m}")
        out.append(w)
    return out


def classify(a):
    """Classify the image of a polynomial (variables x1..xm)."""
    t0 = time.monotonic()
    p = load_poly(a.text, a.nvars)
    wlist = parse_weight_list(a.weights, p.m) if a.weights else None
    result = classify_general(
        p, char=a.char, mode=a.mode, weights=wlist, term_budget=a.term_budget,
        search_budget=a.search_budget, seed=a.seed, trials=a.trials, prime=a.prime)
    print(f"elapsed {time.monotonic() - t0:.3f}s", file=sys.stderr)
    emit({"input": a.text, "m": p.m, "result": result.to_json()}, "classify", a.pretty)


def enumerate(a):
    """Exhaustively enumerate the image over M_2(F_q)."""
    t0 = time.monotonic()
    field = parse_field(a.order)
    if field.char == 0:
        raise ValueError("enumeration needs a finite field")
    p = load_poly(a.text, a.nvars)
    report = enumerate_image(p, field, a.method, a.tuple_budget, a.elements_limit)
    print(f"elapsed {time.monotonic() - t0:.3f}s", file=sys.stderr)
    emit({"input": a.text, "report": report.to_json()}, "enumerate", a.pretty)


def corpus(a):
    """Re-derive the pinned reference classifications; exit 4 on any drift."""
    if a.list_only:
        emit({"entries": [{"name": e.name, "input": e.source,
                           "expected": e.expected} for e in ENTRIES]},
             "corpus", a.pretty)
        return
    t0 = time.monotonic()
    names = None if a.only is None else [n.strip() for n in a.only.split(",")]
    result = run_corpus(names)
    print(f"elapsed {time.monotonic() - t0:.3f}s", file=sys.stderr)
    emit(result, "corpus", a.pretty,
         code=0 if result["ok"] else EXIT_CORPUS_MISMATCH)


def cone(a):
    """Cone position and invariants of one matrix, written a,b;c,d."""
    field = parse_field(a.field_name)
    mt = parse_mat2(a.matrix, field)
    cls = cone_classify(mt)
    fmt = field.ops.fmt
    payload = {
        "matrix": str(mt), "field": str(field), "cone": cls.to_json(),
        "trace": fmt(mt.trace()), "det": fmt(mt.det()), "disc": fmt(mt.disc()),
        "ratio": ratio_invariant(mt),
    }
    emit(payload, "cone", a.pretty)


def euler(a):
    """Trail verdict for a matrix-unit tuple like e11,e12."""
    tup = parse_units(a.units)
    payload = {"units": a.units, "verdict": euler_predict(tup).to_json()}
    if a.poly is not None:
        p = load_poly(a.poly, a.nvars if a.nvars is not None else len(tup))
        if len(tup) != p.m:
            raise ValueError(f"{p.m} variables but {len(tup)} units")
        payload["consistent"] = check_euler(p, tup)
    emit(payload, "euler", a.pretty)


def verify(a):
    """Check the alternating substitution-sum identity on random data."""
    t0 = time.monotonic()
    report = verify_alternating_trace(parse_field(a.field_name), a.trials, a.seed)
    print(f"elapsed {time.monotonic() - t0:.3f}s", file=sys.stderr)
    emit({"report": report.to_json()}, "verify", a.pretty,
         code=0 if report.ok else EXIT_CHECK_FAILED)


def linearize(a):
    """Full multilinearization of a homogeneous polynomial."""
    p = load_poly(a.text, a.nvars)
    if p.is_zero():
        raise ValueError("empty polynomial")
    lin = multilinearize(p)
    factor = 1
    for d in p.multidegree(p.sorted_terms()[0][0]):
        factor *= math.factorial(d)
    emit({"input": a.text, "m": p.m, "linearized": format_poly(lin),
          "m_out": lin.m, "back_substitution_factor": factor},
         "linearize", a.pretty)


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ValueError rather than
    exit, and which takes neither abbreviated long options nor -h."""

    def __init__(self, **kw):
        super().__init__(add_help=False, allow_abbrev=False, **kw)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        raise ValueError(message)


DEFAULT = " [default: %(default)s]"


def budget(text: str) -> int:
    """The type of every budget option: an int of at least 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def _parser(prog: str) -> tuple[_Parser, dict[str, _Parser]]:
    """The polimage parser and its command parsers by name."""
    top = _Parser(prog=prog, description=(
        "Classify images of noncommutative polynomials on 2x2 matrices."))
    top.add_argument("--version", action="version",
                     version=f"polimage, version {__version__}",
                     help="Show the version and exit.")
    sub = top.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(run, *args: str, nvars: bool = False) -> _Parser:
        doc = run.__doc__
        p = sub.add_parser(run.__name__, help=doc, description=doc)
        p.set_defaults(run=run)
        for name in args:
            p.add_argument(name)
        if nvars:
            p.add_argument("-m", dest="nvars", type=int, help="Number of variables.")
        p.add_argument("--pretty", action="store_true", help="Indent the JSON output.")
        return p

    p = command(classify, "text", nvars=True)
    p.add_argument("--char", type=int, default=0,
                   help="Characteristic of the base field (0 or a prime)." + DEFAULT)
    p.add_argument("--mode", choices=["symbolic", "probabilistic"], default="symbolic",
                   help=DEFAULT)
    p.add_argument("--weights", action="append",
                   help="Candidate weight vector like 2,1 (repeatable).")
    p.add_argument("--trials", type=int, default=DEFAULT_PROBE_TRIALS, help=DEFAULT)
    p.add_argument("--seed", type=int, default=0, help=DEFAULT)
    p.add_argument("--prime", type=int, help=(
        "Modulus for probabilistic evaluation [default: the characteristic "
        f"if nonzero, else {DEFAULT_PROBE_PRIME}]."))
    p.add_argument("--term-budget", type=budget, default=DEFAULT_TERM_BUDGET, help=DEFAULT)
    p.add_argument("--search-budget", type=budget, default=DEFAULT_SEARCH_BUDGET,
                   help=DEFAULT)

    p = command(enumerate, "text", nvars=True)
    p.add_argument("-q", dest="order", required=True,
                   help="Finite field size (2,3,4,5,7).")
    p.add_argument("--method", choices=["auto", "naive", "fast"], default="auto",
                   help=DEFAULT)
    p.add_argument("--tuple-budget", type=budget, default=DEFAULT_TUPLE_BUDGET, help=DEFAULT)
    p.add_argument("--elements-limit", type=int, default=100, help=(
        "List the image elements when the image is at most this big." + DEFAULT))

    p = command(corpus)
    p.add_argument("--only", help="Comma-separated entry names to run (default: all).")
    p.add_argument("--list", dest="list_only", action="store_true",
                   help="List entry names and exit.")

    p = command(cone, "matrix")
    p.add_argument("--field", dest="field_name", default="q",
                   help="Base field: q, F5, F25, F5^2 ..." + DEFAULT)

    p = command(euler, "units", nvars=True)
    p.add_argument("--poly", help="Multilinear polynomial to check.")

    p = command(verify)
    p.add_argument("--field", dest="field_name", default="F101", help=DEFAULT)
    p.add_argument("--trials", type=int, default=100, help=DEFAULT)
    p.add_argument("--seed", type=int, default=0, help=DEFAULT)

    command(linearize, "text", nvars=True)
    return top, sub.choices


def _join_dash_values(args: list[str], parsers) -> list[str]:
    """Join each option that takes a value to a following value that begins
    with '-' (--weights -1,2), which argparse would read as an option."""
    takes_value = {s for p in parsers for act in p._actions if act.nargs != 0
                   for s in act.option_strings}
    out = []
    for a in args:
        if out and out[-1] in takes_value and a.startswith("-") and "--" not in out:
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def main(args=None, prog_name=None, standalone_mode=True, **_):
    """Run one polimage command; every failure ends in the JSON envelope.

    Usage errors (a bad option value, an unknown option or command, a
    missing argument or option) and the engine's input and budget exceptions
    all print {"error": {"kind", "message"}} on stdout with their exit code.
    "command" names the command, or is null when none was named; --help and
    --version print text and exit 0.  The keywords are those of the console
    script's call; standalone_mode is accepted and ignored.
    """
    args = list(sys.argv[1:] if args is None else args)
    top, commands = _parser(prog_name or "polimage")
    try:
        opts = top.parse_args(_join_dash_values(args, commands.values()))
        opts.run(opts)
        return
    except (KeyboardInterrupt, EOFError):
        print("Aborted!", file=sys.stderr)
        sys.exit(1)
    except TermBudgetExceeded as e:
        kind, code, message = "term_budget", EXIT_BUDGET, str(e)
    except EnumerationBudgetError as e:
        kind, code, message = "tuple_budget", EXIT_BUDGET, str(e)
    except ValueError as e:  # usage errors, PolyParseError and ScalarParseError
        kind, code, message = "bad_input", EXIT_BAD_INPUT, str(e)
    # polimage takes no option values, so its first bare word is the command
    command = next((a for a in args if not a.startswith("-")), None)
    emit({"error": {"kind": kind, "message": message}},
         command if command in commands else None, "--pretty" in args, code)


if __name__ == "__main__":
    main()

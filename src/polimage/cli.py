"""Command line front end.

Every command prints a single JSON document to stdout with schema 1,
serialized compactly with sorted keys so identical inputs give identical
bytes; --pretty switches to indented output.  Timing goes to stderr,
never into the JSON.  Exit codes: 0 success, 1 a verification check
failed, 2 bad input, 3 a budget refusal, 4 a corpus mismatch.  Failures,
from a malformed command line to a budget refusal deep in the engine, end
in the same document with an "error" member (see :class:`EnvelopeGroup`).
"""

from __future__ import annotations

import json
import math
import sys
import time

import click

from polimage import __version__
from polimage.classify import (DEFAULT_PROBE_TRIALS, DEFAULT_SEARCH_BUDGET,
                               check_euler, classify_general, euler_predict,
                               parse_units)
from polimage.corpus import ENTRIES, run_corpus
from polimage.fields import FieldSpec, QQ
from polimage.freealg import (FreePoly, PolyParseError, capelli_poly, format_poly,
                              multilinearize, parse_poly, standard_poly)
from polimage.generic import DEFAULT_PROBE_PRIME, DEFAULT_TERM_BUDGET, TermBudgetExceeded
from polimage.matalg import (cone_classify, parse_mat2, ratio_invariant, ratio_key)
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
    click.echo(text)
    if code:
        sys.exit(code)


class EnvelopeGroup(click.Group):
    """The command group, ending every failure in the schema-1 envelope.

    Click's usage errors (a bad option value, an unknown option or command,
    a missing argument or option) and the engine's input and budget
    exceptions all print {"error": {"kind", "message"}} on stdout with their
    exit code.  "command" names the subcommand, or is null when none was
    named; --help and --version still print text and exit 0.
    """

    def main(self, args=None, prog_name=None, standalone_mode=True, **extra):
        # click's standalone handling is replaced here whatever the caller asks
        args = list(sys.argv[1:] if args is None else args)
        try:
            return super().main(args, prog_name, standalone_mode=False, **extra)
        except click.Abort:
            click.echo("Aborted!", err=True)
            sys.exit(1)
        except click.ClickException as e:
            kind, code, message = "bad_input", EXIT_BAD_INPUT, e.format_message()
        except TermBudgetExceeded as e:
            kind, code, message = "term_budget", EXIT_BUDGET, str(e)
        except EnumerationBudgetError as e:
            kind, code, message = "tuple_budget", EXIT_BUDGET, str(e)
        except ValueError as e:  # PolyParseError and ScalarParseError among them
            kind, code, message = "bad_input", EXIT_BAD_INPUT, str(e)
        # the group takes no option values, so its first bare word is the command
        command = next((a for a in args if not a.startswith("-")), None)
        emit({"error": {"kind": kind, "message": message}},
             command if command in self.commands else None, "--pretty" in args, code)


def parse_field(text: str) -> FieldSpec:
    """Field names: q or Q for the rationals, F5, F25 or F5^2 for finite."""
    t = text.strip()
    if t.lower() in ("q", "0", "qq"):
        return QQ
    if t.startswith(("F", "f")):
        t = t[1:]
    if "^" in t:
        base, _, deg = t.partition("^")
        return FieldSpec(int(base), int(deg))
    q = int(t)
    root = math.isqrt(q)
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
            raise PolyParseError(f"builtin {t} uses {p.m} variables, not {m}", 0)
        return p
    if m is None:
        raise PolyParseError("-m is required unless the input is a builtin name", 0)
    return parse_poly(t, m, field)


def parse_weight_list(chunks: tuple[str, ...], m: int) -> list[tuple[int, ...]]:
    out = []
    for chunk in chunks:
        w = tuple(int(x) for x in chunk.split(","))
        if len(w) != m:
            raise ValueError(f"weight vector {chunk!r} has {len(w)} entries, need {m}")
        out.append(w)
    return out


pretty_option = click.option("--pretty", is_flag=True, help="Indent the JSON output.")


@click.group(cls=EnvelopeGroup)
@click.version_option(__version__, prog_name="polimage")
def main():
    """Classify images of noncommutative polynomials on 2x2 matrices."""


@main.command()
@click.argument("text")
@click.option("-m", "nvars", type=int, default=None, help="Number of variables.")
@click.option("--char", type=int, default=0, show_default=True,
              help="Characteristic of the base field (0 or a prime).")
@click.option("--mode", type=click.Choice(["symbolic", "probabilistic"]),
              default="symbolic", show_default=True)
@click.option("--weights", multiple=True,
              help="Candidate weight vector like 2,1 (repeatable).")
@click.option("--trials", type=int, default=DEFAULT_PROBE_TRIALS, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--prime", type=int, default=None,
              help="Modulus for probabilistic evaluation [default: the "
                   f"characteristic if nonzero, else {DEFAULT_PROBE_PRIME}].")
@click.option("--term-budget", type=int, default=DEFAULT_TERM_BUDGET, show_default=True)
@click.option("--search-budget", type=int, default=DEFAULT_SEARCH_BUDGET,
              show_default=True)
@pretty_option
def classify(text, nvars, char, mode, weights, trials, seed, prime,
             term_budget, search_budget, pretty):
    """Classify the image of a polynomial (variables x1..xm)."""
    t0 = time.monotonic()
    p = load_poly(text, nvars)
    wlist = parse_weight_list(weights, p.m) if weights else None
    result = classify_general(
        p, char=char, mode=mode, weights=wlist, term_budget=term_budget,
        search_budget=search_budget, seed=seed, trials=trials, prime=prime)
    click.echo(f"elapsed {time.monotonic() - t0:.3f}s", err=True)
    emit({"input": text, "m": p.m, "result": result.to_json()}, "classify", pretty)


@main.command()
@click.argument("text")
@click.option("-m", "nvars", type=int, default=None, help="Number of variables.")
@click.option("-q", "order", required=True, help="Finite field size (2,3,4,5,7).")
@click.option("--method", type=click.Choice(["auto", "naive", "fast"]),
              default="auto", show_default=True)
@click.option("--tuple-budget", type=int, default=DEFAULT_TUPLE_BUDGET,
              show_default=True)
@click.option("--elements-limit", type=int, default=100, show_default=True,
              help="List the image elements when the image is at most this big.")
@pretty_option
def enumerate(text, nvars, order, method, tuple_budget, elements_limit, pretty):
    """Exhaustively enumerate the image over M_2(F_q)."""
    t0 = time.monotonic()
    field = parse_field(order)
    if field.char == 0:
        raise ValueError("enumeration needs a finite field")
    p = load_poly(text, nvars)
    report = enumerate_image(p, field, method, tuple_budget, elements_limit)
    click.echo(f"elapsed {report.elapsed:.3f}s "
               f"(total {time.monotonic() - t0:.3f}s)", err=True)
    emit({"input": text, "report": report.to_json()}, "enumerate", pretty)


@main.command()
@click.option("--only", default=None,
              help="Comma-separated entry names to run (default: all).")
@click.option("--list", "list_only", is_flag=True, help="List entry names and exit.")
@pretty_option
def corpus(only, list_only, pretty):
    """Re-derive the pinned reference classifications; exit 4 on any drift."""
    if list_only:
        emit({"entries": [{"name": e.name, "input": e.source,
                           "expected": e.expected} for e in ENTRIES]},
             "corpus", pretty)
        return
    t0 = time.monotonic()
    result = run_corpus(None if only is None else [n.strip() for n in only.split(",")])
    click.echo(f"elapsed {time.monotonic() - t0:.3f}s", err=True)
    emit(result, "corpus", pretty,
         code=0 if result["ok"] else EXIT_CORPUS_MISMATCH)


@main.command()
@click.argument("matrix")
@click.option("--field", "field_name", default="q", show_default=True,
              help="Base field: q, F5, F25, F5^2 ...")
@pretty_option
def cone(matrix, field_name, pretty):
    """Cone position and invariants of one matrix, written a,b;c,d."""
    field = parse_field(field_name)
    mt = parse_mat2(matrix, field)
    cls = cone_classify(mt)
    fmt = field.ops.fmt
    payload = {
        "matrix": str(mt), "field": str(field), "cone": cls.to_json(),
        "trace": fmt(mt.trace()), "det": fmt(mt.det()), "disc": fmt(mt.disc()),
        "ratio": ratio_key(ratio_invariant(mt)),
    }
    emit(payload, "cone", pretty)


@main.command()
@click.argument("units")
@click.option("--poly", default=None, help="Multilinear polynomial to check.")
@click.option("-m", "nvars", type=int, default=None)
@pretty_option
def euler(units, poly, nvars, pretty):
    """Trail verdict for a matrix-unit tuple like e11,e12."""
    tup = parse_units(units)
    payload = {"units": units, "verdict": euler_predict(tup).to_json()}
    if poly is not None:
        p = load_poly(poly, nvars if nvars is not None else len(tup))
        if len(tup) != p.m:
            raise ValueError(f"{p.m} variables but {len(tup)} units")
        payload["consistent"] = check_euler(p, tup)
    emit(payload, "euler", pretty)


@main.command()
@click.option("--field", "field_name", default="F101", show_default=True)
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@pretty_option
def verify(field_name, trials, seed, pretty):
    """Check the alternating substitution-sum identity on random data."""
    t0 = time.monotonic()
    report = verify_alternating_trace(parse_field(field_name), trials, seed)
    click.echo(f"elapsed {time.monotonic() - t0:.3f}s", err=True)
    emit({"report": report.to_json()}, "verify", pretty,
         code=0 if report.ok else EXIT_CHECK_FAILED)


@main.command()
@click.argument("text")
@click.option("-m", "nvars", type=int, default=None)
@pretty_option
def linearize(text, nvars, pretty):
    """Full multilinearization of a homogeneous polynomial."""
    p = load_poly(text, nvars)
    if p.is_zero():
        raise ValueError("empty polynomial")
    lin = multilinearize(p)
    factor = 1
    for d in p.multidegree(p.sorted_terms()[0][0]):
        factor *= math.factorial(d)
    emit({"input": text, "m": p.m, "linearized": format_poly(lin),
          "m_out": lin.m, "back_substitution_factor": factor},
         "linearize", pretty)


if __name__ == "__main__":
    main()

"""Reference inputs with pinned classifications and side conditions.

Each entry records a polynomial, the classifier settings, the expected
verdict, and extra named checks (oracle comparisons over tiny fields,
cross-mode agreement, deterministic witnesses).  The runner re-derives
everything with fixed seeds, so its JSON output is byte-stable and any
drift in the engine shows up as a corpus mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from polimage.classify import (DEFAULT_SEARCH_BUDGET, ImageClass, classify_general,
                               nondense_invariant_check, seeded_matrix_pairs,
                               NONDENSE_TEXT)
from polimage.fields import FieldSpec, QQ
from polimage.freealg import FreePoly, multilinearize, parse_poly, standard_poly
from polimage.generic import eval_on_matrices
from polimage.matalg import Mat2, cone_classify, ConeKind
from polimage.oracle import cross_check

CONE_PRODUCT_TEXT = ("[(x1*x2)^2,(x3*x4)^2]^2 "
                     "+ [(x1*x2)^2,(x3*x4)^2]*[x1*x3,x2*x4]^2")


def _check_cone_product(p: FreePoly, result) -> dict:
    out = {}
    probe = result.probe or {}
    counts = probe.get("cone_counts", {})
    out["probe_scaled_unipotent_absent"] = counts.get("scaled_unipotent", 0) == 0
    f = QQ
    x = Mat2.from_ints(f, 1, 1, 0, 1)
    y = Mat2.from_ints(f, 1, 0, 1, 1)
    xs = [x, Mat2.unit(2, 2, f), Mat2.unit(1, 2, f), Mat2.unit(2, 1, f)]
    nil = eval_on_matrices(p, xs)
    out["nilpotent_witness"] = {
        "args": [str(m) for m in xs], "value": str(nil),
        "ok": cone_classify(nil).kind is ConeKind.NILPOTENT}
    sc = eval_on_matrices(p, [x, x, y, y])
    out["scalar_witness"] = {
        "args": [str(x), str(x), str(y), str(y)], "value": str(sc),
        "ok": cone_classify(sc).kind is ConeKind.SCALAR}
    return out


def _check_nondense(p: FreePoly, result) -> dict:
    pairs = seeded_matrix_pairs(QQ, 100, seed=11)
    ok_q = nondense_invariant_check(pairs)
    pairs = seeded_matrix_pairs(FieldSpec(101), 100, seed=11)
    ok_f = nondense_invariant_check(pairs)
    a, b = Mat2.unit(1, 1, QQ), Mat2.unit(1, 2, QQ)
    ok_u = nondense_invariant_check([(a, b)])
    return {"gap_invariant": {"rational_pairs": ok_q, "F101_pairs": ok_f,
                              "unit_pair": ok_u,
                              "ok": ok_q and ok_f and ok_u}}


def _check_cube_cone_counts(p: FreePoly, result) -> dict:
    cc = cross_check(p, FieldSpec(3), "trace_zero_undetermined")
    counts = cc["oracle"]["cone_counts"]
    return {"oracle_F3": {
        "ok": cc["ok"] and counts == {"traceless_invertible": 18, "zero": 1},
        "cone_counts": counts}}


@dataclass(frozen=True)
class CorpusEntry:
    """A pinned input.  ``oracle`` lists (q, expected image size or None)
    for the exhaustive cross-checks over F_q; ``check`` is an extra side
    check, called with the polynomial and the classification."""

    name: str
    source: str             # parseable text, or builtin: prefix
    m: int
    expected: str
    char: int = 0
    mode: str = "symbolic"
    trials: int = 200
    seed: int = 0
    search_budget: int = DEFAULT_SEARCH_BUDGET
    known_image: str | None = None
    cross_mode: bool = False
    oracle: tuple[tuple[int, int | None], ...] = ()
    check: Callable[[FreePoly, ImageClass], dict] | None = None
    note: str = ""


ENTRIES: list[CorpusEntry] = [
    CorpusEntry(
        name="commutator", source="[x1,x2]", m=2, expected="sl2",
        oracle=((2, 8), (3, 27)),
        note="image is every trace-zero matrix, over any base field"),
    CorpusEntry(
        name="standard-s4", source="builtin:s4", m=4, expected="zero",
        oracle=((2, None),),
        note="alternating in four arguments; an identity of 2x2 matrices"),
    CorpusEntry(
        name="coordinate", source="x1", m=1, expected="full",
        oracle=((2, None), (3, None)),
        note="tautological surjection"),
    CorpusEntry(
        name="commutator-square-linearized", source="builtin:lin-comm-sq", m=4,
        expected="scalars", cross_mode=True, oracle=((2, None),),
        note="full linearization of [x1,x2]^2; multilinear with scalar span"),
    CorpusEntry(
        name="commutator-square", source="[x1,x2]^2", m=2, expected="scalars",
        cross_mode=True, oracle=((2, None), (3, None)),
        note="square of a trace-zero value is -det times the identity"),
    CorpusEntry(
        name="commutator-square-times-x1", source="[x1,x2]^2 * x1", m=2,
        expected="dense", cross_mode=True,
        note="eigenvalue ratio varies, so the image misses at most a thin set"),
    CorpusEntry(
        name="commutator-cube", source="[x1,x2]^3", m=2,
        expected="trace_zero_undetermined", known_image="traceless_invertible",
        cross_mode=True, search_budget=4000, check=_check_cube_cone_counts,
        note="odd power of a commutator: trace zero, never nilpotent except at 0; "
             "the witness hunt is capped low because it provably finds nothing"),
    CorpusEntry(
        name="cone-product", source=CONE_PRODUCT_TEXT, m=4, expected="dense",
        mode="probabilistic", trials=200, seed=3, check=_check_cone_product,
        note="dense, yet the cone misses the scaled unipotents; witnesses for "
             "the nilpotent and scalar strata are specific substitutions"),
    CorpusEntry(
        name="nondense", source=NONDENSE_TEXT, m=2,
        expected="top_part_inconclusive", check=_check_nondense,
        note="disc = 2 tr on every value pins the eigenvalue gap; image is "
             "neither dense nor any of the closed cases"),
]


class UnknownEntryError(ValueError):
    """No corpus entry has the requested name; the command line reports it
    as bad input."""


def entry_by_name(name: str) -> CorpusEntry:
    for e in ENTRIES:
        if e.name == name:
            return e
    raise UnknownEntryError(f"no corpus entry named {name!r}")


def build_poly(entry: CorpusEntry) -> FreePoly:
    if entry.source == "builtin:s4":
        return standard_poly(4)
    if entry.source == "builtin:lin-comm-sq":
        return multilinearize(parse_poly("[x1,x2]^2", 2))
    return parse_poly(entry.source, entry.m)


def _check_oracle(entry: CorpusEntry, p: FreePoly) -> dict:
    out = {}
    for q, size in entry.oracle:
        cc = cross_check(p, FieldSpec(q), entry.expected)
        rec = {"ok": cc["ok"], "size": cc["oracle"]["size"],
               "span_tag": cc["oracle"]["span_tag"]}
        if size is not None:
            rec["expected_size"] = size
            rec["ok"] &= rec["size"] == size
        out[f"oracle_F{q}"] = rec
    return out


def _check_cross_mode(entry: CorpusEntry, p: FreePoly) -> dict:
    other = "probabilistic" if entry.mode == "symbolic" else "symbolic"
    res = classify_general(p, char=entry.char, mode=other, trials=entry.trials,
                           search_budget=entry.search_budget, seed=entry.seed)
    return {"cross_mode": {"mode": other, "verdict": res.verdict,
                           "agrees": res.verdict == entry.expected}}


def run_entry(entry: CorpusEntry) -> dict:
    """Classify one corpus entry and run its side checks."""
    p = build_poly(entry)
    result = classify_general(p, char=entry.char, mode=entry.mode,
                              trials=entry.trials, seed=entry.seed,
                              search_budget=entry.search_budget)
    checks = _check_oracle(entry, p)
    if entry.check is not None:
        checks.update(entry.check(p, result))
    if entry.cross_mode:
        checks.update(_check_cross_mode(entry, p))
    verdict_ok = result.verdict == entry.expected
    checks_ok = _all_ok(checks)
    out = {
        "name": entry.name, "input": entry.source, "m": entry.m,
        "char": entry.char, "mode": entry.mode, "seed": entry.seed,
        "expected": entry.expected, "verdict": result.verdict,
        "verdict_ok": verdict_ok, "checks": checks, "checks_ok": checks_ok,
        "ok": verdict_ok and checks_ok, "note": entry.note,
        "classification": result.to_json(),
    }
    if entry.known_image is not None:
        out["known_image"] = entry.known_image
    return out


def _all_ok(node) -> bool:
    """Whether every bool in a nested check dict is true."""
    if isinstance(node, dict):
        return all(_all_ok(v) for v in node.values())
    if isinstance(node, list):
        return all(_all_ok(v) for v in node)
    return node is not False


def run_corpus(names: list[str] | None = None) -> dict:
    chosen = ENTRIES if names is None else [entry_by_name(n) for n in names]
    results = [run_entry(e) for e in chosen]
    return {"entries": results, "total": len(results),
            "mismatches": [r["name"] for r in results if not r["ok"]],
            "ok": all(r["ok"] for r in results)}

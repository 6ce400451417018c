"""Image classification of free polynomials evaluated on 2x2 matrices.

Multilinear polynomials are classified exactly: over a quadratically closed
field the image is a linear-ish object determined by the span of the finitely
many matrix-unit evaluations (zero, the scalars, the trace-zero matrices, or
everything).  Semi-homogeneous polynomials go through a decision ladder on
the generic evaluation; one branch is undecidable by these techniques and is
reported honestly as trace_zero_undetermined rather than guessed.  General
polynomials are routed by shape, with a top-part density criterion as the
fallback.

Verdicts name image sets, on the understanding that the ambient field is the
quadratic (and for weighted degree d, d-th root) closure of the prime field
of the requested characteristic:

  zero | scalars | sl2 | full          exact images of multilinear inputs
  dense                                image contains matrices with two
                                       different eigenvalue ratios, hence
                                       misses at most a thin set
  traceless_invertible                 vocabulary for known answers; the
                                       classifier itself never certifies it
  trace_zero_undetermined              trace-zero image, no nilpotent witness
                                       found within budget
  top_part_inconclusive                no candidate weight vector produced a
                                       dense top part
  anomaly                              a state the supporting theory rules
                                       out; indicates a bug, surfaced loudly
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field as dc_field
from itertools import islice, product

from polimage.fields import FieldSpec, QQ, row_reduce
from polimage.freealg import (FreePoly, infer_weights, semi_homogeneous_check,
                              weighted_parts)
from polimage.generic import (DEFAULT_PROBE_PRIME, DEFAULT_TERM_BUDGET,
                              eval_on_matrices, generic_eval, is_central,
                              is_identically_zero, is_trace_zero,
                              probabilistic_probe, proportionality, random_mat2)
from polimage.matalg import Mat2, ratio_invariant

DEFAULT_SEARCH_BUDGET = 20000
DEFAULT_PROBE_TRIALS = 200
DEFAULT_UNIT_BUDGET = 4 ** 10

Unit = tuple[int, int]
UnitTuple = tuple[Unit, ...]


def format_units(units: UnitTuple) -> str:
    return ",".join(f"e{i}{j}" for i, j in units)


def parse_units(text: str) -> UnitTuple:
    """Parse 'e12,e21' into ((1,2),(2,1)); single-digit indices."""
    out = []
    for chunk in text.strip().split(","):
        chunk = chunk.strip()
        if len(chunk) != 3 or chunk[0] != "e" or not chunk[1:].isdigit():
            raise ValueError(f"bad matrix unit {chunk!r}, expected e<i><j>")
        i, j = int(chunk[1]), int(chunk[2])
        if i < 1 or j < 1:
            raise ValueError(f"unit indices must be >= 1 in {chunk!r}")
        out.append((i, j))
    if not out:
        raise ValueError("empty unit tuple")
    return tuple(out)


def all_unit_tuples(m: int, n: int = 2) -> list[UnitTuple]:
    units = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return [tuple(t) for t in product(units, repeat=m)]


def eval_on_units(p: FreePoly, units: UnitTuple, n: int = 2) -> dict[Unit, object]:
    """Exact evaluation at matrix units over M_n, as a sparse {(i,j): c} map
    of raw values of p's field.

    Unit products collapse symbolically: e_ab * e_cd is e_ad when b = c and
    zero otherwise, so each word contributes to at most one cell.
    """
    if len(units) != p.m:
        raise ValueError(f"expected {p.m} units, got {len(units)}")
    for i, j in units:
        if i > n or j > n:
            raise ValueError(f"unit e{i}{j} does not fit in M_{n}")
    add, z = p.field.ops.add, p.field.ops.zero
    cells: dict[Unit, object] = {}
    for w, c in p.terms.items():
        if not w:
            for k in range(1, n + 1):
                cells[k, k] = add(cells.get((k, k), z), c)
            continue
        row, col = units[w[0] - 1]
        for idx in w[1:]:
            r2, c2 = units[idx - 1]
            if col != r2:
                break
            col = c2
        else:
            cells[row, col] = add(cells.get((row, col), z), c)
    return {key: v for key, v in cells.items() if v != z}


def cells_to_mat2(cells: dict[Unit, object], field: FieldSpec) -> Mat2:
    z = field.ops.zero
    return Mat2(cells.get((1, 1), z), cells.get((1, 2), z),
                cells.get((2, 1), z), cells.get((2, 2), z), field)


def unit_evaluations(p: FreePoly,
                     budget: int = DEFAULT_UNIT_BUDGET) -> list[tuple[UnitTuple, Mat2]]:
    """The nonzero matrix-unit values of a multilinear p in canonical tuple
    order; the 4^m tuples are refused above budget.

    A word x_{w1}...x_{wm} is nonzero at a unit tuple only along a path
    a0 -> a1 -> ... -> am of indices, which gives x_{wk} the unit
    (a_{k-1}, a_k) and the word the value e_{a0 am}.  So each word is added
    along its 2^(m+1) paths rather than tried on every tuple.
    """
    count = 4 ** p.m
    if count > budget:
        raise ValueError(f"{count} unit tuples exceed the budget {budget}")
    if not p.is_multilinear():
        raise ValueError("unit evaluations are walked for multilinear polynomials")
    add, z = p.field.ops.add, p.field.ops.zero
    # each path's units (edge k-1 -> k at index k-1) and its value's cell
    paths = [(tuple(zip(a, a[1:])), 2 * a[0] + a[-1] - 3)
             for a in product((1, 2), repeat=p.m + 1)]
    acc: dict[UnitTuple, list] = {}
    for w, c in p.terms.items():
        slot = [0] * p.m  # slot[v - 1]: the position of x_v in the word
        for k, v in enumerate(w):
            slot[v - 1] = k
        for edges, cell in paths:
            t = tuple(map(edges.__getitem__, slot))
            cells = acc.get(t) or acc.setdefault(t, [z] * 4)
            cells[cell] = add(cells[cell], c)
    return [(t, Mat2(*cells, p.field)) for t, cells in sorted(acc.items())
            if any(v != z for v in cells)]


# -- Eulerian analysis -------------------------------------------------------


@dataclass(frozen=True)
class EulerVerdict:
    """What a unit tuple's multigraph permits the evaluation to be.

    kind 'no_path_or_circuit' forces the value 0, 'path' confines it to
    multiples of e_ij (i the excess-out vertex, j the excess-in one), and
    'circuit' confines it to diagonal matrices.
    """

    kind: str
    i: int | None = None
    j: int | None = None

    def to_json(self):
        out = {"kind": self.kind}
        if self.kind == "path":
            out["from"] = self.i
            out["to"] = self.j
        return out

    def __str__(self):
        return f"path({self.i},{self.j})" if self.kind == "path" else self.kind


def euler_predict(units: UnitTuple, n: int | None = None) -> EulerVerdict:
    """Classify the directed multigraph with one edge i -> j per unit e_ij.

    A nonzero product of all the units traverses every edge exactly once,
    so it exists only with balanced degrees (closed trail, diagonal value)
    or a single +1/-1 imbalance pair (open trail from the excess-out vertex
    to the excess-in vertex).  Anything else forces the zero value.  Note
    (e12, e12) has even total degrees everywhere yet admits no trail; the
    out/in imbalance is the decisive test.
    """
    if n is None:
        n = max(max(i, j) for i, j in units)
    balance = [0] * (n + 1)
    for i, j in units:
        balance[i] += 1
        balance[j] -= 1
    plus = [v for v in range(1, n + 1) if balance[v] > 0]
    minus = [v for v in range(1, n + 1) if balance[v] < 0]
    if not plus and not minus:
        return EulerVerdict("circuit")
    if (len(plus) == 1 and len(minus) == 1
            and balance[plus[0]] == 1 and balance[minus[0]] == -1):
        return EulerVerdict("path", plus[0], minus[0])
    return EulerVerdict("no_path_or_circuit")


def check_euler(p: FreePoly, units: UnitTuple, n: int | None = None) -> bool:
    """Verify the evaluation at a unit tuple obeys the graph verdict."""
    if not p.is_multilinear():
        raise ValueError("Eulerian compatibility is stated for multilinear polynomials")
    if n is None:
        n = max(2, max(max(i, j) for i, j in units))
    verdict = euler_predict(units, n)
    cells = eval_on_units(p, units, n)
    if verdict.kind == "no_path_or_circuit":
        return not cells
    if verdict.kind == "path":
        return all(key == (verdict.i, verdict.j) for key in cells)
    return all(i == j for i, j in cells)


# -- linear span ---------------------------------------------------------------


class SpanAnomalyError(RuntimeError):
    """The span of multilinear values left the four admissible subspaces.

    For genuinely multilinear input the span is conjugation-invariant and
    so lands in one of those four, so reaching this means a bug or a
    non-multilinear input.
    """

    def __init__(self, dimension: int, basis: list[Mat2]):
        super().__init__(
            f"span of dimension {dimension} is none of 0, scalars, sl2, full: "
            + "; ".join(str(b) for b in basis))
        self.dimension = dimension
        self.basis = basis


@dataclass
class SpanResult:
    dimension: int
    basis: list[Mat2]
    tag: str  # zero | scalars | sl2 | full


def span_dimension(mats: list[Mat2]) -> SpanResult:
    """Dimension and canonical tag of the linear span of 2x2 matrices.

    The basis keeps the first spanning elements in input order, so unit
    evaluations produce a reproducible basis.
    """
    ops = (mats[0].field if mats else QQ).ops
    rows, _, raised = row_reduce((mt.entries_vector() for mt in mats), ops)
    basis = [mats[i] for i in raised]
    dim, z = len(rows), ops.zero
    if dim == 0:
        return SpanResult(0, [], "zero")
    if dim == 4:
        return SpanResult(4, basis, "full")
    if dim == 1:
        v = rows[0]
        if v[1] == z and v[2] == z and v[0] == v[3] and v[0] != z:
            return SpanResult(1, basis, "scalars")
        raise SpanAnomalyError(1, basis)
    if dim == 3 and all(ops.add(r[0], r[3]) == z for r in rows):
        return SpanResult(3, basis, "sl2")
    raise SpanAnomalyError(dim, basis)


# -- verdicts -------------------------------------------------------------------


class Verdict:
    ZERO = "zero"
    SCALARS = "scalars"
    SL2 = "sl2"
    FULL = "full"
    DENSE = "dense"
    TRACELESS_INVERTIBLE = "traceless_invertible"
    TRACE_ZERO_UNDETERMINED = "trace_zero_undetermined"
    TOP_PART_INCONCLUSIVE = "top_part_inconclusive"
    ANOMALY = "anomaly"


@dataclass
class ImageClass:
    """A classification outcome plus everything needed to audit it."""

    verdict: str
    assumptions: dict = dc_field(default_factory=dict)
    witnesses: list[dict] = dc_field(default_factory=list)
    mode: str = "symbolic"
    seed: int | None = None
    budget_consumed: dict = dc_field(default_factory=dict)
    diagnostics: list[str] = dc_field(default_factory=list)
    note: str | None = None
    probe: dict | None = None

    def to_json(self):
        return {k: v for k, v in asdict(self).items()
                if v is not None or k not in ("note", "probe")}


def _assumptions(char: int, extra: dict | None = None) -> dict:
    out = {
        "characteristic": char,
        "field": "quadratic closure of the prime field"
                 + (f" of characteristic {char}" if char else " (char 0)"),
    }
    if extra:
        out.update(extra)
    return out


def _wit(kind: str, units_or_mats, value: Mat2) -> dict:
    if units_or_mats and isinstance(units_or_mats[0], tuple):
        args = format_units(units_or_mats)
    else:
        args = [str(mt) for mt in units_or_mats]
    return {"kind": kind, "args": args, "value": str(value)}


def coerce_to_char(p: FreePoly, char: int) -> FreePoly:
    """Move coefficients into the prime field of the requested characteristic."""
    if char == 0:
        if p.field.char != 0:
            raise ValueError("cannot lift finite-field coefficients to characteristic 0")
        return p
    return p.coerce(FieldSpec(char))


def probe_prime(char: int, prime: int | None = None) -> int:
    """The probe modulus: the characteristic when it is nonzero (a prime
    given with it must equal it), otherwise prime or DEFAULT_PROBE_PRIME."""
    if not char:
        return DEFAULT_PROBE_PRIME if prime is None else prime
    if prime is not None and prime != char:
        raise ValueError(f"probe prime {prime} differs from the characteristic {char}")
    return char


def classify_multilinear(p: FreePoly, char: int = 0) -> ImageClass:
    """Exact image of a multilinear polynomial via its unit-evaluation span.

    Over the quadratic closure the image of a multilinear polynomial is one
    of 0, the scalars, the trace-zero matrices, or all of M_2, and these are
    distinguished by the span of the finitely many matrix-unit values.
    """
    q = coerce_to_char(p, char)
    if not q.is_multilinear():
        raise ValueError("polynomial is not multilinear")
    evals = unit_evaluations(q)
    res = span_dimension([v for _, v in evals])
    verdict = {"zero": Verdict.ZERO, "scalars": Verdict.SCALARS,
               "sl2": Verdict.SL2, "full": Verdict.FULL}[res.tag]
    out = ImageClass(verdict, assumptions=_assumptions(char), mode="symbolic")
    out.budget_consumed["unit_tuples"] = 4 ** q.m
    if verdict != Verdict.ZERO:
        for kind, test in (("nonzero_value", _nonzero),
                           ("non_scalar_value", lambda v: not v.is_scalar()),
                           ("nonzero_trace_value", lambda v: not v.is_traceless())):
            hit = _first(evals, test)
            if hit is not None:
                out.witnesses.append(_wit(kind, *hit))
    out.diagnostics.append(f"span dimension {res.dimension} over {q.field}")
    return out


def _candidate_tuples(m: int, field: FieldSpec, search_budget: int, seed: int):
    """Deterministic witness-search stream: matrix units, then every matrix
    with entries in {0, 1, -1}, then seeded random tuples, budget-capped."""
    units = [Mat2.unit(i, j, field) for i, j in ((1, 1), (1, 2), (2, 1), (2, 2))]
    emitted = 0
    for t in product(units, repeat=m):
        if emitted >= search_budget:
            return
        emitted += 1
        yield list(t)
    small_entries = [0, 1, -1]
    small = [Mat2.from_ints(field, a, b, c, d)
             for a in small_entries for b in small_entries
             for c in small_entries for d in small_entries]
    for t in islice(product(small, repeat=m), max(0, search_budget - emitted)):
        emitted += 1
        yield list(t)
    rng = random.Random(seed)
    while emitted < search_budget:
        emitted += 1
        yield [random_mat2(field, rng, -9, 9) for _ in range(m)]


def _witness_scan(q: FreePoly, search_budget: int, seed: int):
    """Each candidate tuple with its value, in the witness-search order."""
    for mats in _candidate_tuples(q.m, q.field, search_budget, seed):
        yield mats, eval_on_matrices(q, mats)


def _first(pairs, test):
    """The first (arguments, value) pair whose value passes test, or None."""
    return next(((args, val) for args, val in pairs if test(val)), None)


def _nonzero(val: Mat2) -> bool:
    return not val.is_zero()


def classify_semihomogeneous(p: FreePoly, weights: tuple[int, ...], char: int = 0,
                             mode: str = "symbolic",
                             term_budget: int = DEFAULT_TERM_BUDGET,
                             search_budget: int = DEFAULT_SEARCH_BUDGET,
                             seed: int = 0,
                             trials: int = DEFAULT_PROBE_TRIALS,
                             prime: int | None = None) -> ImageClass:
    """Decision ladder for a semi-homogeneous polynomial.

    Order: identically zero, central, trace zero (resolved by a bounded
    hunt for a nonzero nilpotent value), then density via the failure of
    tr^2 and det to be proportional.  The trace-zero branch without a
    nilpotent witness is genuinely open and reported as undetermined.
    """
    if p.has_constant_term():
        raise ValueError("classification requires a zero constant term")
    check = semi_homogeneous_check(p, weights)
    if not check.ok:
        raise ValueError(
            f"not semi-homogeneous for weights {weights}: words {check.offenders}")
    q = coerce_to_char(p, char)
    extra = {"weights": list(weights), "weighted_degree": check.degree}
    if check.degree not in (None, 0):
        extra["root_closure_degree"] = check.degree
    if check.degree == 0:
        extra["warning"] = "weighted degree 0; scaling argument degenerate"
    if mode == "symbolic":
        out = ImageClass("", assumptions=_assumptions(char, extra), mode="symbolic", seed=seed)
        P = generic_eval(q, term_budget)  # TermBudgetExceeded propagates
        out.budget_consumed["symbolic_terms"] = P.term_count()
        if is_identically_zero(P):
            out.verdict = Verdict.ZERO
            return out
        if is_central(P):
            out.verdict = Verdict.SCALARS
            hit = _first(_witness_scan(q, search_budget, seed), _nonzero)
            if hit is not None:
                out.witnesses.append(_wit("nonzero_value", *hit))
            return out
        if is_trace_zero(P):
            return _trace_zero_branch(out, q, search_budget, seed)
        tau = P.trace().mul(P.trace(), term_budget)
        delta = P.det(term_budget)
        prop = proportionality(tau, delta)
        return _ratio_branch(out, q, prop, search_budget, seed)
    if mode == "probabilistic":
        out = ImageClass("", assumptions=_assumptions(char, extra),
                         mode="probabilistic", seed=seed)
        report = probabilistic_probe(q, trials, probe_prime(char, prime), seed)
        out.probe = report.to_json()
        out.budget_consumed["probe_trials"] = trials
        out.diagnostics.append(
            f"per-trial false negative bound {report.false_negative_bound}")
        if report.all_zero:
            out.verdict = Verdict.ZERO
            return out
        if report.all_central:
            out.verdict = Verdict.SCALARS
            out.witnesses.append({"kind": "nonzero_value", **report.witnesses["nonzero"]})
            return out
        if report.all_trace_zero:
            return _trace_zero_branch(out, q, search_budget, seed)
        if not report.constant_ratio:
            out.verdict = Verdict.DENSE
            out.witnesses.append({"kind": "distinct_ratios",
                                  **report.witnesses["distinct_ratios"]})
            return out
        out.verdict = Verdict.ANOMALY
        out.diagnostics.append(
            "probe saw a single eigenvalue ratio despite nonzero trace; "
            "the supporting theory forbids this for semi-homogeneous inputs")
        return out
    raise ValueError(f"unknown mode {mode!r}")


def _trace_zero_branch(out: ImageClass, q: FreePoly, search_budget: int,
                       seed: int) -> ImageClass:
    scanned, hit = 0, None
    for scanned, (mats, val) in enumerate(_witness_scan(q, search_budget, seed), 1):
        if not val.is_zero() and val.is_nilpotent():
            hit = mats, val
            break
    out.budget_consumed["witness_tuples"] = scanned
    if hit is not None:
        out.verdict = Verdict.SL2
        out.witnesses.append(_wit("nilpotent_nonzero_value", *hit))
        return out
    out.verdict = Verdict.TRACE_ZERO_UNDETERMINED
    out.note = ("candidate image: the traceless invertible matrices; "
                "no nonzero nilpotent value found within budget")
    return out


def _ratio_branch(out: ImageClass, q: FreePoly, prop, search_budget: int,
                  seed: int) -> ImageClass:
    if prop.degenerate:
        out.verdict = Verdict.ANOMALY
        out.diagnostics.append(
            "determinant vanishes identically while the trace does not; "
            "impossible for a non-central semi-homogeneous value map")
        return out
    if not prop.proportional:
        out.verdict = Verdict.DENSE
        seen: dict[str, dict] = {}
        for mats, val in _witness_scan(q, search_budget, seed):
            key = ratio_invariant(val)
            if key != "undefined" and key not in seen:
                seen[key] = _wit("value", mats, val)
                if len(seen) == 2:
                    (k1, w1), (k2, w2) = seen.items()
                    out.witnesses.append({"kind": "distinct_ratios", "first": w1,
                                          "second": w2, "ratios": sorted([k1, k2])})
                    break
        out.diagnostics.append(
            "tr^2 and det are not proportional; witnesses at exponents "
            + str([list(e) for e in prop.witnesses]))
        return out
    out.verdict = Verdict.ANOMALY
    out.diagnostics.append(
        f"tr^2 = {q.field.ops.fmt(prop.ratio)} * det identically; a fixed eigenvalue ratio "
        "on a semi-homogeneous non-central image contradicts the supporting theory")
    return out


def classify_general(p: FreePoly, char: int = 0, mode: str = "symbolic",
                     weights: list[tuple[int, ...]] | None = None,
                     term_budget: int = DEFAULT_TERM_BUDGET,
                     search_budget: int = DEFAULT_SEARCH_BUDGET,
                     seed: int = 0,
                     trials: int = DEFAULT_PROBE_TRIALS,
                     prime: int | None = None) -> ImageClass:
    """Route an arbitrary polynomial to the strongest applicable classifier.

    Multilinear inputs go to the exact span classifier regardless of mode.
    Inputs that are semi-homogeneous for supplied weights, or for an inferred
    all-positive weight vector, use the semi-homogeneous ladder.  Everything
    else falls back to classifying the top weighted part for each candidate
    weight vector: a dense (or full) top part forces a dense image, anything
    less is reported as inconclusive.  Probabilistic evaluation runs over
    F_char in positive characteristic (see :func:`probe_prime`).
    """
    if p.has_constant_term():
        raise ValueError("classification requires a zero constant term")
    prime = probe_prime(char, prime)
    if p.coerce(FieldSpec(char)).is_multilinear() if char else p.is_multilinear():
        out = classify_multilinear(p, char)
        out.seed = seed
        return out
    kw = dict(char=char, mode=mode, term_budget=term_budget,
              search_budget=search_budget, seed=seed, trials=trials, prime=prime)
    if weights:
        for w in weights:
            if semi_homogeneous_check(p, w).ok:
                out = classify_semihomogeneous(p, w, **kw)
                out.diagnostics.append(f"semi-homogeneous for supplied weights {list(w)}")
                return out
    inferred = [w for w in infer_weights(p) if all(x > 0 for x in w)]
    if inferred:
        w = inferred[0]
        out = classify_semihomogeneous(p, w, **kw)
        out.diagnostics.append(f"semi-homogeneous for inferred weights {list(w)}")
        return out
    candidates: list[tuple[int, ...]] = list(weights or [])
    ones = tuple([1] * p.m)
    if ones not in candidates:
        candidates.append(ones)
    reports = []
    for w in candidates:
        parts = weighted_parts(p, w)
        top_degree, top = parts[-1]
        if top.is_multilinear():
            sub = classify_multilinear(top, char)
        else:
            sub = classify_semihomogeneous(top, w, **kw)
        reports.append({"weights": list(w), "top_degree": top_degree,
                        "top_verdict": sub.verdict})
        if sub.verdict in (Verdict.DENSE, Verdict.FULL):
            out = ImageClass(Verdict.DENSE, assumptions=_assumptions(char),
                             mode=sub.mode, seed=seed)
            out.witnesses = sub.witnesses
            out.diagnostics.append(
                f"top part of weighted degree {top_degree} for weights {list(w)} "
                f"classifies {sub.verdict}; a dense top part forces a dense image")
            out.budget_consumed = sub.budget_consumed
            return out
    out = ImageClass(Verdict.TOP_PART_INCONCLUSIVE, assumptions=_assumptions(char),
                     mode=mode, seed=seed)
    out.diagnostics.append("no candidate weight vector produced a dense top part")
    out.budget_consumed["weight_vectors_tried"] = len(candidates)
    out.note = str(reports)
    out.probe = {"top_parts": reports}
    return out


# -- fixed nondense regression --------------------------------------------------


NONDENSE_TEXT = "[x1,x2] + [x1,x2]^2"


def nondense_invariant_check(pairs: list[tuple[Mat2, Mat2]]) -> bool:
    """Check disc(f(A,B)) = 2*tr(f(A,B)) for f = [x,y] + [x,y]^2.

    The commutator has eigenvalues +-c, so f's eigenvalues are c^2 + c and
    c^2 - c, forcing disc = 4c^2 = 2*tr.  This pins the eigenvalue gap of
    every value and is why f's image is not dense.  Characteristic 2 is
    excluded (the identity degenerates).
    """
    for a, b in pairs:
        if a.field.char == 2:
            raise ValueError("the eigenvalue-gap identity degenerates in characteristic 2")
        comm = a * b - b * a
        val = comm + comm * comm
        ops = val.field.ops
        if val.disc() != ops.mul(ops.from_int(2), val.trace()):
            return False
    return True


def seeded_matrix_pairs(field: FieldSpec, count: int, seed: int,
                        lo: int = -3, hi: int = 3) -> list[tuple[Mat2, Mat2]]:
    rng = random.Random(seed)
    return [(random_mat2(field, rng, lo, hi), random_mat2(field, rng, lo, hi))
            for _ in range(count)]

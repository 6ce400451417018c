"""Brute-force ground truth over M_2 of a small finite field.

Matrices are encoded as base-q integers (digit order a, b, c, d for the
matrix a,b;c,d) so that image sets are plain sets of ints and the hot loops
run on table lookups.  Two enumeration strategies:

  naive        walk every argument tuple; works for any polynomial
  fast         multilinear only: the image is a union of linear subspaces
               p(., A2, ..., Am) indexed by the remaining arguments, and
               simultaneous conjugation lets A2 range over one conjugacy
               class representative per class (q scalars plus the q^2
               companion matrices).  Subspaces are deduplicated by reduced
               row echelon form before expansion.

Both must agree; the equality is part of the test suite, not assumed here.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field
from itertools import product
from operator import getitem

from polimage.classify import SpanAnomalyError, span_dimension
from polimage.fields import FieldSpec
from polimage.freealg import FreePoly, capelli_poly, compile_plan, run_plan
from polimage.matalg import Mat2, cone_classify
from polimage.generic import eval_on_matrices, random_mat2

DEFAULT_TUPLE_BUDGET = 10 ** 8
MAX_TABLE_Q = 5       # eager q^4 x q^4 tables stay small through q = 5
MAX_ORACLE_Q = 7


class EnumerationBudgetError(RuntimeError):
    """Raised instead of starting an enumeration that would not finish."""

    def __init__(self, estimate: int, budget: int):
        super().__init__(
            f"enumeration needs about {estimate} evaluations, over the budget "
            f"{budget}; raise the budget or use the probabilistic classifier")
        self.estimate = estimate
        self.budget = budget


class MatTable:
    """Arithmetic for int-encoded elements of M_2(F_q).

    Field add/mul/inv tables over scalar indices are always built.  Full
    matrix add/mul/scale tables are built eagerly for q <= MAX_TABLE_Q and
    filled lazily from dict caches above that.
    """

    def __init__(self, field: FieldSpec):
        if field.char == 0:
            raise ValueError("the oracle enumerates finite fields only")
        q = field.order
        if q > MAX_ORACLE_Q:
            raise ValueError(f"oracle supports q <= {MAX_ORACLE_Q}, got q = {q}")
        self.field = field
        self.q = q
        self.n4 = q ** 4
        ops = field.ops
        self.scalars = field.raw_elements()   # raw values, zero first
        self._sidx = {s: i for i, s in enumerate(self.scalars)}
        sx = self._sidx
        self.sadd = [[sx[ops.add(a, b)] for b in self.scalars] for a in self.scalars]
        self.smul = [[sx[ops.mul(a, b)] for b in self.scalars] for a in self.scalars]
        self.sneg = [sx[ops.neg(a)] for a in self.scalars]
        self.sinv = [None] + [sx[ops.inv(a)] for a in self.scalars[1:]]
        self.one_idx = sx[ops.one]
        self.zero_idx = 0
        self.identity_idx = self.encode(Mat2.identity(field))
        self.units = {(i, j): self.encode(Mat2.unit(i, j, field))
                      for i in (1, 2) for j in (1, 2)}
        self._madd = self._mmul = None
        self._madd_cache: dict = {}
        self._mmul_cache: dict = {}
        if q <= MAX_TABLE_Q:
            self._build_mat_tables()
        self.mscale = [[self._scale_slow(s, x) for x in range(self.n4)]
                       for s in range(q)]
        self._gl2: list[tuple[int, int]] | None = None

    def sindex(self, v) -> int:
        """Index of a raw field value."""
        return self._sidx[v]

    def encode(self, mt: Mat2) -> int:
        sx = self._sidx
        return self._pack(sx[mt.a], sx[mt.b], sx[mt.c], sx[mt.d])

    def decode(self, x: int) -> Mat2:
        s = self.scalars
        a, b, c, d = self.digits(x)
        return Mat2(s[a], s[b], s[c], s[d], self.field)

    def digits(self, x: int) -> tuple[int, int, int, int]:
        q = self.q
        x, d = divmod(x, q)
        x, c = divmod(x, q)
        a, b = divmod(x, q)
        return a, b, c, d

    def _pack(self, a: int, b: int, c: int, d: int) -> int:
        return ((a * self.q + b) * self.q + c) * self.q + d

    def _add_slow(self, x: int, y: int) -> int:
        sa = self.sadd
        a1, b1, c1, d1 = self.digits(x)
        a2, b2, c2, d2 = self.digits(y)
        return self._pack(sa[a1][a2], sa[b1][b2], sa[c1][c2], sa[d1][d2])

    def _mul_slow(self, x: int, y: int) -> int:
        sa, sm = self.sadd, self.smul
        a1, b1, c1, d1 = self.digits(x)
        a2, b2, c2, d2 = self.digits(y)
        return self._pack(sa[sm[a1][a2]][sm[b1][c2]], sa[sm[a1][b2]][sm[b1][d2]],
                          sa[sm[c1][a2]][sm[d1][c2]], sa[sm[c1][b2]][sm[d1][d2]])

    def _scale_slow(self, s: int, x: int) -> int:
        sm = self.smul
        a, b, c, d = self.digits(x)
        return self._pack(sm[s][a], sm[s][b], sm[s][c], sm[s][d])

    def _build_mat_tables(self):
        n4 = self.n4
        self._madd = [[self._add_slow(x, y) for y in range(n4)] for x in range(n4)]
        self._mmul = [[self._mul_slow(x, y) for y in range(n4)] for x in range(n4)]

    def add(self, x: int, y: int) -> int:
        if self._madd is not None:
            return self._madd[x][y]
        key = (x, y)
        v = self._madd_cache.get(key)
        if v is None:
            v = self._madd_cache[key] = self._add_slow(x, y)
        return v

    def mul(self, x: int, y: int) -> int:
        if self._mmul is not None:
            return self._mmul[x][y]
        key = (x, y)
        v = self._mmul_cache.get(key)
        if v is None:
            v = self._mmul_cache[key] = self._mul_slow(x, y)
        return v

    def scale(self, s: int, x: int) -> int:
        return self.mscale[s][x]

    def trace_idx(self, x: int) -> int:
        a, _, _, d = self.digits(x)
        return self.sadd[a][d]

    def det_idx(self, x: int) -> int:
        a, b, c, d = self.digits(x)
        sm, sa = self.smul, self.sadd
        return sa[sm[a][d]][self.sneg[sm[b][c]]]

    def inverse(self, x: int) -> int:
        det = self.det_idx(x)
        if det == 0:
            raise ZeroDivisionError("singular matrix")
        di = self.sinv[det]
        a, b, c, d = self.digits(x)
        adj = self._pack(d, self.sneg[b], self.sneg[c], a)
        return self.scale(di, adj)

    def gl2(self) -> list[tuple[int, int]]:
        """All invertible matrices with their inverses, cached."""
        if self._gl2 is None:
            self._gl2 = [(g, self.inverse(g)) for g in range(self.n4)
                         if self.det_idx(g) != 0]
        return self._gl2

    def generators(self) -> list[tuple[int, int]]:
        """Generators of GL_2(F_q) with their inverses: the elementary
        matrices 1,s;0,1 and 1,0;s,1 and the diagonal s,0;0,1, s != 0.
        The elementary ones generate SL_2 over any field, and the diagonal
        ones reach every determinant."""
        one = self.one_idx
        gens = [self._pack(one, s, 0, one) for s in range(1, self.q)]
        gens += [self._pack(one, 0, s, one) for s in range(1, self.q)]
        gens += [self._pack(s, 0, 0, one) for s in range(1, self.q) if s != one]
        return [(g, self.inverse(g)) for g in gens]

    def conj(self, g: int, ginv: int, x: int) -> int:
        return self.mul(self.mul(g, x), ginv)


_TABLES: dict[FieldSpec, MatTable] = {}


def get_table(field: FieldSpec) -> MatTable:
    tab = _TABLES.get(field)
    if tab is None:
        tab = _TABLES[field] = MatTable(field)
    return tab


def int_plan(p: FreePoly, table: MatTable) -> list:
    """p's evaluation plan with each coefficient as its row of table.mscale."""
    q = p.coerce(table.field)
    if q.has_constant_term():
        raise ValueError("enumeration requires a zero constant term")
    return [(keep, first, rest, table.mscale[table.sindex(c)])
            for keep, first, rest, c in compile_plan(q)]


def int_ring(table: MatTable) -> tuple:
    """mul, add, scale, zero and one of int-encoded M_2(F_q), for run_plan
    on a plan from int_plan."""
    return table.mul, table.add, getitem, 0, table.identity_idx


def naive_image(p: FreePoly, field: FieldSpec,
                tuple_budget: int = DEFAULT_TUPLE_BUDGET) -> set[int]:
    """Every value of p over M_2(F_q), by walking all q^(4m) argument tuples."""
    table = get_table(field)
    total = table.n4 ** p.m
    if total > tuple_budget:
        raise EnumerationBudgetError(total, tuple_budget)
    plan = int_plan(p, table)
    if not plan:
        return {0}
    ring = int_ring(table)
    return {run_plan(plan, mats, *ring)
            for mats in product(range(table.n4), repeat=p.m)}


# -- subspace bookkeeping for the multilinear fast path -------------------------


def rref_rows(table: MatTable, vecs: list[int]) -> tuple[int, ...]:
    """Reduced row echelon form of int-encoded 4-vectors, as a row tuple.

    Canonical per subspace, so it doubles as a dedup key.
    """
    rows = [list(table.digits(v)) for v in vecs if v]
    sa, sm, neg, inv = table.sadd, table.smul, table.sneg, table.sinv
    out: list[list[int]] = []
    pivots: list[int] = []
    for col in range(4):
        src = next((r for r in rows if r[col] != 0
                    and all(r[c] == 0 for c in range(col))), None)
        if src is None:
            continue
        rows.remove(src)
        f = inv[src[col]]
        src = [sm[f][v] for v in src]
        for other in rows + out:
            if other[col] != 0:
                f = other[col]
                for c in range(4):
                    other[c] = sa[other[c]][neg[sm[f][src[c]]]]
        out.append(src)
        pivots.append(col)
        rows = [r for r in rows if any(r)]
    return tuple(table._pack(*r) for r in out)


def expand_span(table: MatTable, rows: tuple[int, ...],
                cache: dict | None = None) -> set[int]:
    """All q^k combinations of the echelon rows."""
    if cache is not None and rows in cache:
        return cache[rows]
    cur = {0}
    for r in rows:
        cur = {table.add(x, table.scale(s, r))
               for x in cur for s in range(table.q)}
    if cache is not None:
        cache[rows] = cur
    return cur


def conjugacy_reps(table: MatTable) -> list[int]:
    """One representative per conjugacy class of M_2(F_q).

    Scalars are alone in their classes; every non-scalar matrix is cyclic,
    hence conjugate to exactly one companion matrix 0,-d;1,t.  That gives
    q + q^2 classes in total.
    """
    reps = [table.scale(s, table.identity_idx) for s in range(table.q)]
    for t in range(table.q):
        for d in range(table.q):
            reps.append(table._pack(0, table.sneg[d], table.one_idx, t))
    return reps


def fast_multilinear_image(p: FreePoly, field: FieldSpec,
                           tuple_budget: int = DEFAULT_TUPLE_BUDGET) -> set[int]:
    """Image of a multilinear polynomial via its subspace decomposition.

    For fixed A2..Am the map X -> p(X, A2..Am) is linear, so its value set
    is the span of the four matrix-unit images.  Simultaneous conjugation
    permutes the argument tuples, letting A2 run over conjugacy class
    representatives only, at the price of closing the union under
    conjugation afterwards.
    """
    if not p.is_multilinear():
        raise ValueError("fast enumeration requires a multilinear polynomial")
    table = get_table(field)
    plan = int_plan(p, table)
    if not plan:
        return {0}
    ring = int_ring(table)
    units = [table.units[u] for u in ((1, 1), (1, 2), (2, 1), (2, 2))]
    if p.m == 1:
        rows = rref_rows(table, [run_plan(plan, (u,), *ring) for u in units])
        core = expand_span(table, rows)
    else:
        reps = conjugacy_reps(table)
        rest = p.m - 2
        leaves = len(reps) * (table.n4 ** rest)
        if leaves * 4 > tuple_budget:
            raise EnumerationBudgetError(leaves * 4, tuple_budget)
        span_cache: dict = {}
        seen: set[tuple[int, ...]] = set()
        for r in reps:
            for tail in product(range(table.n4), repeat=rest):
                vecs = [run_plan(plan, (u, r) + tail, *ring) for u in units]
                seen.add(rref_rows(table, vecs))
        core = set()
        for rows in seen:
            core |= expand_span(table, rows, span_cache)
    # close under conjugation by searching from core along the generators:
    # this reaches the whole GL_2 orbit of every element of core
    gens = table.generators()
    out, todo = set(core), list(core)
    while todo:
        x = todo.pop()
        for g, ginv in gens:
            y = table.conj(g, ginv, x)
            if y not in out:
                out.add(y)
                todo.append(y)
    return out


# -- reports and cross-checks ----------------------------------------------------


def _span_info(mats: list[Mat2]) -> tuple[int, str]:
    try:
        res = span_dimension(mats)
        return res.dimension, res.tag
    except SpanAnomalyError as e:
        return e.dimension, f"subspace_dim_{e.dimension}"


def check_image_invariance(image: set[int], table: MatTable) -> dict:
    """The two properties every polynomial image over M_2(F_q) must have:
    it contains 0 (zero constant term) and is closed under conjugation.

    Closure is checked on generators of GL_2(F_q) only: conjugation by g is
    a bijection, so a finite set it maps into itself it maps onto itself,
    and then the inverse of g and every product of generators preserve the
    set too."""
    closed = all(table.conj(g, ginv, x) in image
                 for g, ginv in table.generators() for x in image)
    return {"contains_zero": 0 in image, "conjugation_closed": closed}


def scaling_closed_under(image: set[int], table: MatTable, exponent: int = 1) -> bool:
    """Closure of the image under x -> mu^exponent * x for all mu != 0."""
    units = {pow_idx(table, s, exponent) for s in range(1, table.q)}
    return all(table.scale(u, x) in image for u in units for x in image)


def pow_idx(table: MatTable, s: int, k: int) -> int:
    out = table.one_idx
    for _ in range(k):
        out = table.smul[out][s]
    return out


@dataclass
class ImageReport:
    field: str
    q: int
    m: int
    method: str
    size: int
    contains_zero: bool
    conjugation_closed: bool
    scaling_closed: bool
    span_dim: int
    span_tag: str
    cone_counts: dict[str, int]
    elements: list[str] | None = None
    budget: dict = dc_field(default_factory=dict)
    elapsed: float = 0.0   # stderr-only; deliberately absent from to_json

    def to_json(self):
        out = {
            "field": self.field, "q": self.q, "m": self.m, "method": self.method,
            "size": self.size, "contains_zero": self.contains_zero,
            "conjugation_closed": self.conjugation_closed,
            "scaling_closed": self.scaling_closed,
            "span_dim": self.span_dim, "span_tag": self.span_tag,
            "cone_counts": self.cone_counts, "budget": self.budget,
        }
        if self.elements is not None:
            out["elements"] = self.elements
        return out


def _image_and_method(p: FreePoly, field: FieldSpec, method: str,
                      tuple_budget: int) -> tuple[set[int], str, dict]:
    table = get_table(field)
    if method == "auto":
        method = "fast" if p.is_multilinear() else "naive"
    if method == "fast":
        image = fast_multilinear_image(p, field, tuple_budget)
        spent = {"leaves": (len(conjugacy_reps(table)) * table.n4 ** (p.m - 2)
                            if p.m >= 2 else 1)}
    elif method == "naive":
        image = naive_image(p, field, tuple_budget)
        spent = {"tuples": table.n4 ** p.m}
    else:
        raise ValueError(f"unknown method {method!r}")
    return image, method, spent


def build_report(p: FreePoly, field: FieldSpec, image: set[int], method: str,
                 spent: dict, elapsed: float, tuple_budget: int,
                 elements_limit: int = 100) -> ImageReport:
    table = get_table(field)
    decoded = [table.decode(x) for x in sorted(image)]
    inv = check_image_invariance(image, table)
    dim, tag = _span_info(decoded)
    counts: dict[str, int] = {}
    for mt in decoded:
        kind = cone_classify(mt).kind.value
        counts[kind] = counts.get(kind, 0) + 1
    rep = ImageReport(
        field=str(field), q=table.q, m=p.m, method=method, size=len(image),
        contains_zero=inv["contains_zero"],
        conjugation_closed=inv["conjugation_closed"],
        scaling_closed=scaling_closed_under(image, table, 1),
        span_dim=dim, span_tag=tag, cone_counts=dict(sorted(counts.items())),
        budget={"tuple_budget": tuple_budget, **spent}, elapsed=elapsed)
    if len(image) <= elements_limit:
        rep.elements = [str(m2) for m2 in decoded]
    return rep


def enumerate_image(p: FreePoly, field: FieldSpec, method: str = "auto",
                    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
                    elements_limit: int = 100) -> ImageReport:
    """Exact image of p over M_2(F_q), with structural bookkeeping."""
    t0 = time.monotonic()
    image, method, spent = _image_and_method(p, field, method, tuple_budget)
    elapsed = time.monotonic() - t0
    return build_report(p, field, image, method, spent, elapsed,
                        tuple_budget, elements_limit)


_EXPECTED_SPAN = {
    "zero": "zero", "scalars": "scalars", "sl2": "sl2", "full": "full",
    "dense": "full", "trace_zero_undetermined": "sl2",
    "traceless_invertible": "sl2",
}


def cross_check(p: FreePoly, field: FieldSpec, verdict: str,
                tuple_budget: int = DEFAULT_TUPLE_BUDGET) -> dict:
    """Compare a classifier verdict against the exhaustive image.

    Span tags must line up (a dense verdict expects the image to span all
    of M_2); zero and scalars verdicts additionally pin the exact element
    set.  Membership of e12 is reported but not folded into ok, since only
    some verdicts promise a nilpotent value over the base field.
    """
    table = get_table(field)
    t0 = time.monotonic()
    image, method, spent = _image_and_method(p, field, "auto", tuple_budget)
    rep = build_report(p, field, image, method, spent,
                       time.monotonic() - t0, tuple_budget)
    out = {"verdict": verdict, "oracle": rep.to_json(), "checks": {}}
    checks = out["checks"]
    expected = _EXPECTED_SPAN.get(verdict)
    if expected is not None:
        checks["span_match"] = rep.span_tag == expected
    if verdict == "zero":
        checks["exact_set"] = image == {0}
    elif verdict == "scalars":
        scalars = {table.scale(s, table.identity_idx) for s in range(table.q)}
        checks["exact_set"] = image == scalars
    checks["e12_in_image"] = table.units[(1, 2)] in image
    checks["invariance"] = rep.contains_zero and rep.conjugation_closed
    out["ok"] = all(v for k, v in checks.items()
                    if isinstance(v, bool) and k != "e12_in_image")
    return out


# -- the alternating trace identity ---------------------------------------------


@dataclass
class AlternatingTraceReport:
    """Outcome of testing the substitution sum against both factor models.

    For 4-alternating maps on the 4-dimensional space M_2, summing T into
    each slot multiplies the value by the trace of left-multiplication by
    T, which is 2 tr(T); at T = I that specialises to the factor 4.
    """

    field: str
    trials: int
    seed: int
    matches_trace_factor: bool = True
    matches_identity_factor: bool = True
    linear_in_t: bool = True
    failures: list[dict] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.matches_trace_factor and self.matches_identity_factor
                and self.linear_in_t)

    def to_json(self):
        return {
            "field": self.field, "trials": self.trials, "seed": self.seed,
            "factor_model": "2*tr(T)", "identity_factor": "4",
            "matches_trace_factor": self.matches_trace_factor,
            "matches_identity_factor": self.matches_identity_factor,
            "linear_in_t": self.linear_in_t, "ok": self.ok,
            "failures": self.failures,
        }


def _capelli_sub_sum(c4: FreePoly, a: list[Mat2], r: list[Mat2], t: Mat2) -> Mat2:
    total = Mat2.zero(t.field)
    for k in range(4):
        args = list(a)
        args[k] = t * a[k]
        total = total + eval_on_matrices(c4, args + r)
    return total


def verify_alternating_trace(field: FieldSpec, trials: int = 100,
                             seed: int = 0) -> AlternatingTraceReport:
    """Check sum_k c4(a1,..,T a_k,..,a4; r) = 2 tr(T) c4(a; r) on random data.

    Also checks T = I (factor 4) and additivity in T, which together pin
    the left-multiplication trace model rather than a lucky coincidence.
    """
    if trials < 1:
        raise ValueError("at least one trial required")
    rng = random.Random(seed)
    c4 = capelli_poly(4)
    if field.char:
        c4 = c4.coerce(field)
    rep = AlternatingTraceReport(str(field), trials, seed)
    ops = field.ops
    two = ops.from_int(2)
    for n in range(trials):
        a = [random_mat2(field, rng, -9, 9) for _ in range(4)]
        r = [random_mat2(field, rng, -9, 9) for _ in range(3)]
        t1 = random_mat2(field, rng, -9, 9)
        t2 = random_mat2(field, rng, -9, 9)
        base = eval_on_matrices(c4, a + r)
        s1 = _capelli_sub_sum(c4, a, r, t1)
        if s1 != base.scale(ops.mul(two, t1.trace())):
            rep.matches_trace_factor = False
            rep.failures.append({"trial": n, "kind": "trace_factor",
                                 "t": str(t1)})
        ident = _capelli_sub_sum(c4, a, r, Mat2.identity(field))
        if ident != base.scale(ops.from_int(4)):
            rep.matches_identity_factor = False
            rep.failures.append({"trial": n, "kind": "identity_factor"})
        s2 = _capelli_sub_sum(c4, a, r, t2)
        s12 = _capelli_sub_sum(c4, a, r, t1 + t2)
        if s12 != s1 + s2:
            rep.linear_in_t = False
            rep.failures.append({"trial": n, "kind": "additivity"})
    return rep

"""Evaluation of free polynomials on generic and concrete 2x2 matrices.

The generic evaluation substitutes an independent commutative indeterminate
for each of the 4m matrix entries, giving exact polynomial entries whose
vanishing/centrality can be decided symbolically.  Symbolic work is capped
by a stored-monomial budget; past it callers are expected to fall back to
seeded probabilistic evaluation, whose per-trial false-negative bound is
reported explicitly.
"""

from __future__ import annotations

import operator
import random
from operator import add as _add
from dataclasses import dataclass, field as dc_field

from polimage.fields import FieldSpec, QQ, Scalar, canonical_q
from polimage.freealg import FreePoly, compile_plan, run_plan
from polimage.matalg import Mat2, ConeKind, cone_classify, ratio_invariant, ratio_key

DEFAULT_TERM_BUDGET = 10 ** 6
DEFAULT_PROBE_PRIME = 2 ** 31 - 1


class TermBudgetExceeded(RuntimeError):
    """Symbolic expansion crossed the stored-monomial budget."""

    def __init__(self, count: int, budget: int):
        super().__init__(
            f"symbolic expansion reached {count} monomials (budget {budget}); "
            "rerun in probabilistic mode")
        self.count = count
        self.budget = budget


Expo = tuple[int, ...]


class ComPoly:
    """Sparse commutative polynomial: exponent vector -> nonzero raw
    coefficient of ``field``."""

    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars: int, field: FieldSpec, terms: dict[Expo, object] | None = None):
        self.nvars = nvars
        self.field = field
        z = field.ops.zero
        self.terms = {e: c for e, c in terms.items() if c != z} if terms else {}

    @classmethod
    def zero(cls, nvars: int, field: FieldSpec) -> "ComPoly":
        return cls(nvars, field)

    @classmethod
    def constant(cls, c: Scalar, nvars: int) -> "ComPoly":
        return cls(nvars, c.field, {(0,) * nvars: c.val})

    @classmethod
    def variable(cls, i: int, nvars: int, field: FieldSpec) -> "ComPoly":
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, field, {e: field.ops.one})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, ComPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, self.field, frozenset(self.terms.items())))

    def __add__(self, other: "ComPoly") -> "ComPoly":
        f = self.field
        p, pairs, add, z = f.char, f.degree == 2, f.ops.add, f.ops.zero
        out = dict(self.terms)
        get, pop = out.get, out.pop
        for e, c in other.terms.items():
            s = get(e)
            if s is not None:
                if pairs:
                    c = add(s, c)
                else:
                    c = (s + c) % p if p else s + c
                if c == z:
                    pop(e)
                    continue
            out[e] = c
        return ComPoly(self.nvars, f, out if p else _q_terms(out))

    def __neg__(self) -> "ComPoly":
        neg = self.field.ops.neg
        return ComPoly(self.nvars, self.field, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "ComPoly") -> "ComPoly":
        return self + (-other)

    def mul(self, other: "ComPoly", budget: int | None = None) -> "ComPoly":
        # the field's layout is chosen once per product: pairs go through
        # the ops object, ints and Fractions through Python's own operators
        f = self.field
        p, pairs, mul, add, z = f.char, f.degree == 2, f.ops.mul, f.ops.add, f.ops.zero
        out: dict[Expo, object] = {}
        get, pop = out.get, out.pop
        items = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in items:
                e = tuple(map(_add, e1, e2))
                s = get(e)
                if pairs:
                    c = mul(c1, c2) if s is None else add(s, mul(c1, c2))
                else:
                    c = c1 * c2 if s is None else s + c1 * c2
                    if p:
                        c %= p
                # a product of nonzero field elements is nonzero, so only a
                # sum with an earlier term can cancel
                if c != z:
                    out[e] = c
                else:
                    pop(e)
            if budget is not None and len(out) > budget:
                raise TermBudgetExceeded(len(out), budget)
        return ComPoly(self.nvars, f, out if p else _q_terms(out))

    def __mul__(self, other):
        if isinstance(other, ComPoly):
            return self.mul(other)
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "ComPoly":
        """c times the polynomial; c is a Scalar, a raw value of the field,
        or an int read as an integer of the field."""
        f = self.field
        ops = f.ops
        if type(c) is Scalar:
            c = c.val
        elif type(c) is int:
            c = ops.from_int(c)
        if c == ops.zero:
            return ComPoly.zero(self.nvars, f)
        mul = ops.mul
        return ComPoly(self.nvars, f, {e: mul(k, c) for e, k in self.terms.items()})

    def lead(self) -> tuple[Expo, object]:
        """Leading term under graded lexicographic order; zero poly raises."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=lambda t: (sum(t), t))
        return e, self.terms[e]

    def evaluate(self, point: list) -> object:
        """The value at a point of raw field values."""
        if len(point) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates")
        ops = self.field.ops
        acc = ops.zero
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                for _ in range(k):
                    v = ops.mul(v, x)
            acc = ops.add(acc, v)
        return acc

    def __str__(self):
        if not self.terms:
            return "0"
        fmt = self.field.ops.fmt
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            mono = "*".join(f"u{i}^{k}" if k > 1 else f"u{i}"
                            for i, k in enumerate(e) if k)
            c = fmt(self.terms[e])
            bits.append(c if not mono else f"{c}*{mono}")
        return " + ".join(bits)

    __repr__ = __str__


def _q_terms(terms: dict) -> dict:
    # rational coefficients back in their canonical layout (int when integral)
    for e, c in terms.items():
        if type(c) is not int:
            terms[e] = canonical_q(c)
    return terms


class GenericMat:
    """2x2 matrix with ComPoly entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: ComPoly, b: ComPoly, c: ComPoly, d: ComPoly):
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def generic(cls, block: int, nvars: int, field: FieldSpec) -> "GenericMat":
        """The generic matrix whose entries are indeterminates
        4*block .. 4*block+3 (block is 0-based)."""
        base = 4 * block
        return cls(*(ComPoly.variable(base + k, nvars, field) for k in range(4)))

    def add(self, other: "GenericMat") -> "GenericMat":
        return GenericMat(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    def mul(self, other: "GenericMat", budget: int | None = None) -> "GenericMat":
        return GenericMat(
            self.a.mul(other.a, budget) + self.b.mul(other.c, budget),
            self.a.mul(other.b, budget) + self.b.mul(other.d, budget),
            self.c.mul(other.a, budget) + self.d.mul(other.c, budget),
            self.c.mul(other.b, budget) + self.d.mul(other.d, budget),
        )

    def scale(self, c) -> "GenericMat":
        return GenericMat(self.a.scale(c), self.b.scale(c), self.c.scale(c), self.d.scale(c))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def trace(self) -> ComPoly:
        return self.a + self.d

    def det(self, budget: int | None = None) -> ComPoly:
        return self.a.mul(self.d, budget) - self.b.mul(self.c, budget)

    def term_count(self) -> int:
        return sum(len(e.terms) for e in self.entries())


def _scale(c, x):
    return x.scale(c)


def generic_eval(p: FreePoly, budget: int = DEFAULT_TERM_BUDGET) -> GenericMat:
    """Evaluate p at m independent generic matrices.

    Products are formed left to right, a prefix shared with the previous
    word only once, with collection after every product; a constant term
    contributes c*I.  Raises TermBudgetExceeded as soon as
    any intermediate entry grows past the budget.
    """
    nvars = 4 * p.m
    gens = [GenericMat.generic(i, nvars, p.field) for i in range(p.m)]
    z = ComPoly.zero(nvars, p.field)
    one = ComPoly.constant(p.field.one(), nvars)

    def add(acc: GenericMat, term: GenericMat) -> GenericMat:
        acc = acc.add(term)
        count = max(len(e.terms) for e in acc.entries())
        if count > budget:
            raise TermBudgetExceeded(count, budget)
        return acc

    return run_plan(compile_plan(p), gens, lambda x, y: x.mul(y, budget), add, _scale,
                    GenericMat(z, z, z, z), GenericMat(one, z, z, one))


def is_identically_zero(P: GenericMat) -> bool:
    return all(e.is_zero() for e in P.entries())


def is_central(P: GenericMat) -> bool:
    """Off-diagonal entries vanish and the diagonal entries agree."""
    return P.b.is_zero() and P.c.is_zero() and (P.a - P.d).is_zero()


def is_trace_zero(P: GenericMat) -> bool:
    return P.trace().is_zero()


@dataclass(frozen=True)
class Proportionality:
    proportional: bool
    ratio: Scalar | None = None
    degenerate: bool = False
    witnesses: tuple[Expo, ...] = ()

    def to_json(self):
        return {
            "proportional": self.proportional,
            "ratio": None if self.ratio is None else str(self.ratio),
            "degenerate": self.degenerate,
            "witnesses": [list(e) for e in self.witnesses],
        }


def proportionality(tau: ComPoly, delta: ComPoly) -> Proportionality:
    """Decide whether tau = c * delta for a constant c.

    Zero cases carry a degenerate flag: delta = 0 with tau != 0 cannot be
    proportional, both zero counts as Proportional(0).  Otherwise c is read
    off the graded-lex leading terms and verified exactly; failures report
    witness exponent vectors.
    """
    f = tau.field
    if delta.is_zero():
        if tau.is_zero():
            return Proportionality(True, f.zero(), degenerate=True)
        return Proportionality(False, None, degenerate=True, witnesses=(tau.lead()[0],))
    if tau.is_zero():
        return Proportionality(True, f.zero())
    e_t, c_t = tau.lead()
    e_d, c_d = delta.lead()
    if e_t != e_d:
        return Proportionality(False, witnesses=(e_t, e_d))
    c = f.ops.div(c_t, c_d)
    diff = tau - delta.scale(c)
    if diff.is_zero():
        return Proportionality(True, Scalar(f, c))
    return Proportionality(False, witnesses=(diff.lead()[0],))


# -- concrete evaluation -------------------------------------------------------


def eval_on_matrices(p: FreePoly, mats: list[Mat2]) -> Mat2:
    """Exact evaluation of p at concrete matrices over p's field."""
    if len(mats) != p.m:
        raise ValueError(f"expected {p.m} matrices, got {len(mats)}")
    f = p.field
    for mt in mats:
        if mt.field is not f and mt.field != f:
            raise ValueError("matrix field differs from coefficient field")
    return run_plan(compile_plan(p), mats, operator.mul, operator.add, _scale,
                    Mat2.zero(f), Mat2.identity(f))


def random_mat2(field: FieldSpec, rng: random.Random, lo: int = 0, hi: int | None = None) -> Mat2:
    """Uniform matrix over F_q, or integer-entry matrix in [lo, hi] over Q."""
    if field.char > 0:
        p = field.char

        def draw():
            if field.degree == 1:
                return rng.randrange(p)
            return rng.randrange(p), rng.randrange(p)

        return Mat2(draw(), draw(), draw(), draw(), field)
    if hi is None:
        lo, hi = -9, 9
    return Mat2.from_ints(field, rng.randint(lo, hi), rng.randint(lo, hi),
                          rng.randint(lo, hi), rng.randint(lo, hi))


@dataclass
class ProbeReport:
    """Summary of seeded random evaluations over a prime field."""

    prime: int
    seed: int
    trials: int
    degree: int
    false_negative_bound: str
    all_zero: bool = True
    all_central: bool = True
    all_trace_zero: bool = True
    constant_ratio: bool = True
    ratio_values: list[str] = dc_field(default_factory=list)
    cone_counts: dict[str, int] = dc_field(default_factory=dict)
    witnesses: dict[str, dict] = dc_field(default_factory=dict)

    def to_json(self):
        return {
            "prime": self.prime,
            "seed": self.seed,
            "trials": self.trials,
            "degree": self.degree,
            "false_negative_bound": self.false_negative_bound,
            "all_zero": self.all_zero,
            "all_central": self.all_central,
            "all_trace_zero": self.all_trace_zero,
            "constant_ratio": self.constant_ratio,
            "ratio_values": list(self.ratio_values),
            "cone_counts": dict(sorted(self.cone_counts.items())),
            "witnesses": {k: v for k, v in sorted(self.witnesses.items())},
        }


def _witness(mats: list[Mat2], value: Mat2) -> dict:
    return {"args": [str(mt) for mt in mats], "value": str(value)}


def probabilistic_probe(p: FreePoly, trials: int, prime: int = DEFAULT_PROBE_PRIME,
                        seed: int = 0) -> ProbeReport:
    """Evaluate p at uniformly random matrix tuples over F_prime.

    The seed is mandatory input and recorded, so reports are reproducible.
    Requires prime > 2 * deg(p); each zero-style conclusion has per-trial
    false-negative probability at most deg(p) * 4m / prime.
    """
    deg = p.degree()
    if prime <= 2 * deg:
        raise ValueError(f"prime {prime} must exceed twice the degree {deg}")
    if trials < 1:
        raise ValueError("at least one trial required")
    field = FieldSpec(prime)
    q = p.coerce(field)
    rng = random.Random(seed)
    from fractions import Fraction
    bound = Fraction(deg * 4 * p.m, prime)
    report = ProbeReport(prime=prime, seed=seed, trials=trials, degree=deg,
                         false_negative_bound=str(bound))
    ratios: set[str] = set()
    first_ratio_sample: dict[str, dict] = {}
    for _ in range(trials):
        mats = [random_mat2(field, rng) for _ in range(p.m)]
        val = eval_on_matrices(q, mats)
        cone = cone_classify(val)
        report.cone_counts[cone.kind.value] = report.cone_counts.get(cone.kind.value, 0) + 1
        if not val.is_zero():
            if report.all_zero:
                report.all_zero = False
                report.witnesses.setdefault("nonzero", _witness(mats, val))
        if not val.is_scalar():
            if report.all_central:
                report.all_central = False
                report.witnesses.setdefault("non_central", _witness(mats, val))
        if not val.is_traceless():
            if report.all_trace_zero:
                report.all_trace_zero = False
                report.witnesses.setdefault("nonzero_trace", _witness(mats, val))
        if cone.kind == ConeKind.NILPOTENT:
            report.witnesses.setdefault("nilpotent_nonzero", _witness(mats, val))
        r = ratio_invariant(val)
        key = ratio_key(r)
        if key != "undefined":
            if key not in ratios:
                ratios.add(key)
                first_ratio_sample[key] = _witness(mats, val)
            if len(ratios) == 2 and "distinct_ratios" not in report.witnesses:
                pair = sorted(ratios)
                report.witnesses["distinct_ratios"] = {
                    "first": first_ratio_sample[pair[0]],
                    "second": first_ratio_sample[pair[1]],
                    "ratios": pair,
                }
    report.constant_ratio = len(ratios) <= 1
    report.ratio_values = sorted(ratios)
    return report

"""Evaluation of free polynomials on generic and concrete 2x2 matrices.

The generic evaluation substitutes an independent commutative indeterminate
for each of the 4m matrix entries, giving exact polynomial entries whose
vanishing/centrality can be decided symbolically.  The entries are
:class:`ComPoly`: the sparse-polynomial kernel of :mod:`polimage.fields`
keyed by exponent vectors packed into one int (Kronecker substitution), so
monomials multiply with ``+``; exponents are decoded only where they are
shown.  Symbolic work is capped by a stored-monomial budget; past it
callers are expected to fall back to seeded probabilistic evaluation, whose
per-trial false-negative bound is reported explicitly.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field as dc_field

from polimage.fields import FieldSpec, Scalar, SparsePoly, TermBudgetExceeded
from polimage.freealg import FreePoly, compile_plan, run_plan
from polimage.matalg import Mat2, ConeKind, cone_classify, ratio_invariant, ratio_key

DEFAULT_TERM_BUDGET = 10 ** 6
DEFAULT_PROBE_PRIME = 2 ** 31 - 1


Expo = tuple[int, ...]

# bits per exponent digit of a packed monomial; packing is exact while every
# degree stays below 2 ** WIDTH
WIDTH = 8


def pack(e: Expo) -> int:
    """The exponent vector as one int: the total degree in the top digit,
    then e_0 .. e_{n-1}, WIDTH bits each.  Adding two packed monomials adds
    their exponents, and int order is the graded lexicographic order."""
    k = sum(e)
    for x in e:
        k = k << WIDTH | x
    return k


def unpack(k: int, nvars: int) -> Expo:
    mask = (1 << WIDTH) - 1
    return tuple(k >> (WIDTH * (nvars - 1 - i)) & mask for i in range(nvars))


class ComPoly(SparsePoly):
    """Sparse commutative polynomial in ``nvars`` indeterminates: the kernel's
    polynomial keyed by packed exponent vectors (see :func:`pack`)."""

    __slots__ = ()

    @classmethod
    def variable(cls, i: int, nvars: int, field: FieldSpec) -> "ComPoly":
        return cls(nvars, field, {pack(tuple(int(j == i) for j in range(nvars))): field.ops.one})

    def lead(self) -> tuple[Expo, object]:
        """Leading term under graded lexicographic order; zero poly raises."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        k = max(self.terms)
        return unpack(k, self.nvars), self.terms[k]

    def evaluate(self, point: list) -> object:
        """The value at a point of raw field values."""
        if len(point) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates")
        ops = self.field.ops
        acc = ops.zero
        for k, c in self.terms.items():
            v = c
            for x, d in zip(point, unpack(k, self.nvars)):
                for _ in range(d):
                    v = ops.mul(v, x)
            acc = ops.add(acc, v)
        return acc

    def __str__(self):
        if not self.terms:
            return "0"
        fmt = self.field.ops.fmt
        bits = []
        for k in sorted(self.terms):
            mono = "*".join(f"u{i}^{d}" if d > 1 else f"u{i}"
                            for i, d in enumerate(unpack(k, self.nvars)) if d)
            c = fmt(self.terms[k])
            bits.append(c if not mono else f"{c}*{mono}")
        return " + ".join(bits)

    __repr__ = __str__


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
    any intermediate entry grows past the budget, and ValueError up front
    when 2 * deg(p), the degree of tr^2 and det, does not fit a packed
    exponent digit.
    """
    if 2 * p.degree() >= 1 << WIDTH:
        raise ValueError(f"degree {p.degree()} is too high for generic evaluation: "
                         f"tr^2 and det need twice it below {1 << WIDTH}")
    nvars = 4 * p.m
    gens = [GenericMat.generic(i, nvars, p.field) for i in range(p.m)]
    z = ComPoly.zero(nvars, p.field)
    one = ComPoly(nvars, p.field, {0: p.field.ops.one})

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

"""Noncommutative polynomials in x1..xm with exact coefficients.

A polynomial is a finite map from words (tuples of 1-based variable indices)
to nonzero raw values of its field: the sparse-polynomial kernel of
:mod:`polimage.fields` keyed by words, which multiply by concatenation
(``w1 + w2``); nothing commutes.
The text format understood by :func:`parse_poly` is

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := coeff ['*' factor ...] | factor ('*' factor)*
    factor := var | '[' expr ',' expr ']' | '(' expr ')' | factor '^' k
    var    := 'x' posint        coeff := int | int '/' posint

with '[a,b]' expanding to a*b - b*a and '^k' (k >= 1) to k-fold repetition.
Brackets and parentheses nest at most MAX_NESTING deep.  Before it expands
a product, commutator or power, the parser refuses one that could give
more words than the term budget (TermBudgetExceeded): n1*n2, 2*n1*n2 and
n^k for operands of n1, n2 and n terms.  It also refuses a power whose
words could be longer than the term budget: d*k letters for an operand of
degree d.  A bare coefficient
is kept as a constant term; downstream classification rejects constant
terms, the algebra itself allows them.

Every evaluation of a polynomial, in whatever ring, goes through one
prefix-sharing evaluator.  :func:`compile_plan` turns the terms, in the
canonical (length, lexicographic) word order, into a plan with one step per
term: how many leading letters the word keeps from the previous word, the
letters it appends, and its coefficient.  :func:`run_plan` runs a plan on
one argument per variable, given the ring's mul, add, scale, zero and one.
It keeps a stack holding the product of each prefix of the current word,
so a prefix that consecutive words share is multiplied once, and memory
stays at one product per letter of the longest word.

:func:`infer_weights` reads the weight vectors off the null space of the
words' multidegree differences, row-reduced over Q by the shared
:func:`polimage.fields.row_reduce`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm

from polimage.fields import (DEFAULT_TERM_BUDGET, FieldSpec, QQ, SparsePoly,
                             TermBudgetExceeded, row_reduce)

Word = tuple[int, ...]

MAX_NESTING = 300


class PolyParseError(ValueError):
    """Syntax error with the 0-based offset where parsing failed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class FreePoly(SparsePoly):
    """Words mapped to nonzero raw coefficients of ``field``: the kernel's
    polynomial keyed by words, which multiply by concatenation.  Its
    evaluation plan is compiled once and kept."""

    __slots__ = ("_plan",)

    def __init__(self, m: int, field: FieldSpec, terms: dict[Word, object] | None = None):
        if m < 0:
            raise ValueError("variable count must be >= 0")
        super().__init__(m, field, terms)
        self._plan = None

    @property
    def m(self) -> int:
        return self.nvars

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c, m: int, field: FieldSpec = QQ) -> "FreePoly":
        """The constant polynomial of the raw value c."""
        return cls(m, field, {(): c})

    @classmethod
    def variable(cls, i: int, m: int, field: FieldSpec = QQ) -> "FreePoly":
        if not 1 <= i <= m:
            raise ValueError(f"variable x{i} out of range for m={m}")
        return cls(m, field, {(i,): field.ops.one})

    def __pow__(self, k: int) -> "FreePoly":
        if k < 1:
            raise ValueError("exponent must be >= 1")
        out, square = None, self  # by repeated squaring
        while True:
            if k & 1:
                out = square if out is None else out * square
            k >>= 1
            if not k:
                return out
            square = square * square

    # -- structure ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Word, object]]:
        """Terms in the canonical (length, lexicographic) word order."""
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def has_constant_term(self) -> bool:
        return () in self.terms

    def degree(self) -> int:
        """Maximal word length (0 for the zero polynomial)."""
        return max((len(w) for w in self.terms), default=0)

    def multidegree(self, w: Word) -> tuple[int, ...]:
        counts = [0] * self.m
        for i in w:
            counts[i - 1] += 1
        return tuple(counts)

    def is_multilinear(self) -> bool:
        """True when every word is a permutation of (1, ..., m)."""
        full = tuple(range(1, self.m + 1))
        return all(tuple(sorted(w)) == full for w in self.terms)

    def coerce(self, field: FieldSpec) -> "FreePoly":
        """Map coefficients into another field of compatible characteristic."""
        if field == self.field:
            return self
        if self.field.char == 0:
            if field.char == 0:
                return self
            out = {}
            for w, c in self.terms.items():
                if c.denominator % field.char == 0:
                    raise ValueError(f"coefficient {c} has no value in "
                                     f"characteristic {field.char}")
                out[w] = field.ops.from_fraction(c)
            return FreePoly(self.m, field, out)
        if field.char != self.field.char:
            raise ValueError(f"cannot move coefficients from {self.field} to {field}")
        if self.field.degree == 1 and field.degree == 2:
            return FreePoly(self.m, field, {w: (c, 0) for w, c in self.terms.items()})
        raise ValueError(f"cannot move coefficients from {self.field} to {field}")

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"FreePoly({format_poly(self)!r}, m={self.m}, field={self.field})"


# -- evaluation ----------------------------------------------------------------


Step = tuple[int, int | None, tuple[int, ...], object]


def compile_plan(p: FreePoly) -> list[Step]:
    """p's terms as evaluation steps (keep, first, rest, coefficient).

    A step keeps the first `keep` letters of the previous word.  With
    keep = 0 it starts a fresh product at the 0-based variable `first`, or
    at the ring's one for the empty word (first is None).  It then
    multiplies on the 0-based variables of `rest` in turn.  The coefficient
    is the raw value of p's field.  The plan is built once per polynomial.
    """
    if p._plan is not None:
        return p._plan
    plan: list[Step] = []
    prev: Word = ()
    for w, c in p.sorted_terms():
        keep = 0
        for a, b in zip(prev, w):
            if a != b:
                break
            keep += 1
        if keep:
            plan.append((keep, None, tuple(i - 1 for i in w[keep:]), c))
        else:
            plan.append((0, w[0] - 1 if w else None, tuple(i - 1 for i in w[1:]), c))
        prev = w
    p._plan = plan
    return plan


def run_plan(plan: list[Step], args, mul, add, scale, zero, one):
    """Evaluate a compiled polynomial at args, one per variable.

    Each term contributes scale(coefficient, product); the terms are summed
    with add, starting from zero, in plan order.
    """
    acc = zero
    stack: list = []
    for keep, first, rest, coeff in plan:
        if keep:
            del stack[keep:]
            cur = stack[-1]
        elif first is None:
            cur = one
        else:
            cur = args[first]
            stack = [cur]
        for i in rest:
            cur = mul(cur, args[i])
            stack.append(cur)
        acc = add(acc, scale(coeff, cur))
    return acc


# -- text format -------------------------------------------------------------


def format_poly(p: FreePoly) -> str:
    if p.is_zero():
        return "0"
    fmt, one = p.field.ops.fmt, p.field.ops.one
    chunks: list[str] = []
    for w, c in p.sorted_terms():
        neg = False
        if p.field.char == 0 and c < 0:
            neg, c = True, -c
        factors = []
        run_var, run_len = None, 0
        for i in (*w, None):
            if i == run_var:
                run_len += 1
                continue
            if run_var is not None:
                factors.append(f"x{run_var}" if run_len == 1 else f"x{run_var}^{run_len}")
            run_var, run_len = i, 1
        body, cs = "*".join(factors), fmt(c)
        if "+" in cs[1:] or "*" in cs:
            cs = f"({cs})"  # extension coefficients are not round-trippable
        if not body:
            body = cs
        elif c != one:
            body = f"{cs}*{body}"
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks)


class _Parser:
    def __init__(self, text: str, m: int, field: FieldSpec):
        self.text = text
        self.m = m
        self.field = field
        self.pos = 0
        self.depth = 0

    def error(self, msg: str):
        raise PolyParseError(msg, self.pos)

    def refuse_over(self, what: str, bound: int, formula: str | None = None,
                    unit: str = "words"):
        # polynomials of n1 and n2 terms multiply to at most n1*n2 words
        if bound > DEFAULT_TERM_BUDGET:
            raise TermBudgetExceeded(bound, DEFAULT_TERM_BUDGET, (
                f"expanding this {what} could give {formula or bound} {unit}, "
                f"over the term budget {DEFAULT_TERM_BUDGET}"))

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def coefficient(self) -> Fraction | None:
        if not self.peek().isdigit():
            return None
        num = self.integer()
        den = 1
        if self.peek() == "/":
            self.pos += 1
            den = self.integer()
            if den == 0:
                self.error("zero denominator")
        return Fraction(num, den)

    def expr(self) -> FreePoly:
        # each term is read here rather than in a method of its own, so one
        # nesting level costs two stack frames (expr and factor) and
        # MAX_NESTING levels stay well inside the interpreter's recursion limit
        acc, sign = None, 1
        if self.peek() in ("+", "-"):
            if self.peek() == "-":
                sign = -1
            self.pos += 1
        while True:
            coeff = self.coefficient()
            if coeff is not None and self.peek() != "*":
                # bare constant term
                t = FreePoly.constant(self.field.ops.from_fraction(coeff), self.m, self.field)
            else:
                if coeff is not None:
                    self.pos += 1
                t = self.factor()
                while self.peek() == "*":
                    self.pos += 1
                    f = self.factor()
                    self.refuse_over("product", len(t.terms) * len(f.terms))
                    t = t * f
                if coeff is not None:
                    t = t.scale(self.field.ops.from_fraction(coeff))
            if acc is None:
                acc = -t if sign < 0 else t
            else:
                acc = acc - t if sign < 0 else acc + t
            if self.peek() not in ("+", "-"):
                return acc
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1

    def factor(self) -> FreePoly:
        ch = self.peek()
        if ch == "x":
            self.pos += 1
            at = self.pos
            idx = self.integer()
            if idx < 1 or idx > self.m:
                self.pos = at
                self.error(f"variable x{idx} not among the {self.m} declared")
            out = FreePoly.variable(idx, self.m, self.field)
        elif ch in ("[", "("):
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.error(f"brackets nest deeper than {MAX_NESTING}")
            self.pos += 1
            out = self.expr()
            if ch == "[":
                self.take(",")
                b = self.expr()
                self.take("]")
                self.refuse_over("commutator", 2 * len(out.terms) * len(b.terms))
                out = out * b - b * out
            else:
                self.take(")")
            self.depth -= 1
        else:
            self.error("expected a variable, '[', '(' or a coefficient")
        while self.peek() == "^":
            self.pos += 1
            at = self.pos
            k = self.integer()
            if k < 1:
                self.pos = at
                self.error("exponent must be >= 1")
            # n^k passes the budget exactly when n^min(k, its bit length) does
            n = len(out.terms)
            self.refuse_over("power", n ** min(k, DEFAULT_TERM_BUDGET.bit_length()), f"{n}^{k}")
            self.refuse_over("power", out.degree() * k, unit="letters in one word")
            out = out ** k
        return out

    def parse(self) -> FreePoly:
        self.skip_ws()
        if self.pos == len(self.text):
            self.error("empty input")
        out = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return out


def parse_poly(text: str, m: int, field: FieldSpec = QQ) -> FreePoly:
    """Parse the textual polynomial format over m declared variables."""
    return _Parser(text, m, field).parse()


# -- weights and homogeneity --------------------------------------------------


@dataclass(frozen=True)
class HomogeneityReport:
    """Outcome of a semi-homogeneity check.

    ``degree`` is the common weighted degree when the check passes,
    ``offenders`` a pair of words with different weighted degrees when
    it fails.
    """

    degree: int | None
    offenders: tuple[Word, Word] | None = None

    @property
    def ok(self) -> bool:
        return self.offenders is None


def weighted_degree(w: Word, weights: tuple[int, ...]) -> int:
    return sum(weights[i - 1] for i in w)


def semi_homogeneous_check(p: FreePoly, weights: tuple[int, ...]) -> HomogeneityReport:
    """Check that every word of p has the same weighted degree under weights."""
    if len(weights) != p.m:
        raise ValueError(f"weight vector length {len(weights)} != {p.m} variables")
    degrees = [(weighted_degree(w, weights), w) for w, _ in p.sorted_terms()]
    for d, w in degrees[1:]:
        if d != degrees[0][0]:
            return HomogeneityReport(None, (degrees[0][1], w))
    return HomogeneityReport(degrees[0][0] if degrees else 0)


def _to_int_vector(vec: list) -> tuple[int, ...]:
    # the primitive integer multiple of a nonzero rational vector whose first
    # nonzero entry is positive
    denom = lcm(*(f.denominator for f in vec))
    ints = [int(f * denom) for f in vec]
    g = gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def infer_weights(p: FreePoly) -> list[tuple[int, ...]]:
    """Weight vectors making p semi-homogeneous.

    Solves the linear system equating weighted degrees of all words and
    returns small integer representatives of a solution basis, all-positive
    vectors first.  When the all-ones vector solves the system it is
    included explicitly.  Empty when only w = 0 works.
    """
    words = [w for w, _ in p.sorted_terms()]
    if len(words) <= 1:
        base = [tuple(1 if j == i else 0 for j in range(p.m)) for i in range(p.m)]
    else:
        # the null space of the multidegree differences, one vector per free
        # column of their reduced echelon form
        d0 = p.multidegree(words[0])
        diffs = ([a - b for a, b in zip(p.multidegree(w), d0)] for w in words[1:])
        rows, pivots, _ = row_reduce(diffs, QQ.ops)
        base = []
        for free in sorted(set(range(p.m)) - set(pivots)):
            vec = [0] * p.m
            vec[free] = 1
            for row, col in zip(rows, pivots):
                vec[col] = -row[free]
            base.append(_to_int_vector(vec))
    out: list[tuple[int, ...]] = []
    ones = tuple([1] * p.m)
    if p.m and semi_homogeneous_check(p, ones).ok:
        out.append(ones)
    for vec in base:
        if vec not in out and any(vec):
            out.append(vec)
    out.sort(key=lambda v: (not all(x > 0 for x in v), v))
    return out


def weighted_parts(p: FreePoly, weights: tuple[int, ...]) -> list[tuple[int, FreePoly]]:
    """Split p into its weighted-degree components, ascending by degree."""
    if len(weights) != p.m:
        raise ValueError(f"weight vector length {len(weights)} != {p.m} variables")
    buckets: dict[int, dict[Word, object]] = {}
    for w, c in p.terms.items():
        buckets.setdefault(weighted_degree(w, weights), {})[w] = c
    return [(d, FreePoly(p.m, p.field, t)) for d, t in sorted(buckets.items())]


# -- linearization -------------------------------------------------------------


def multilinearize(p: FreePoly) -> FreePoly:
    """Full linearization of a completely homogeneous polynomial.

    Each variable of degree d is replaced by d fresh variables (consecutive
    blocks, in variable order) and only the part linear in every fresh
    variable is kept.  Substituting the block variables back to the original
    one multiplies p by the product of the d_i factorials.
    """
    if p.is_zero():
        return p
    degs = None
    for w in p.terms:
        d = p.multidegree(w)
        if degs is None:
            degs = d
        elif d != degs:
            raise ValueError(f"not completely homogeneous: multidegrees {degs} and {d}")
    assert degs is not None
    offsets = []
    total = 0
    for d in degs:
        offsets.append(total)
        total += d
    # a fresh word names its original word (each fresh variable's block) and
    # its assignment, so no two contributions share a word and none cancel
    out: dict[Word, object] = {}
    for w, c in p.terms.items():
        positions: dict[int, list[int]] = {}
        for pos, var in enumerate(w):
            positions.setdefault(var, []).append(pos)
        variables = sorted(positions)
        for assignment in product(*(permutations(range(degs[v - 1])) for v in variables)):
            new_word = [0] * len(w)
            for var, perm in zip(variables, assignment):
                for occ, pos in enumerate(positions[var]):
                    new_word[pos] = offsets[var - 1] + perm[occ] + 1
            out[tuple(new_word)] = c
    return FreePoly(total, p.field, out)


# -- named constructions -------------------------------------------------------


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cyc = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cyc += 1
        if cyc % 2 == 0:
            sign = -sign
    return sign


def standard_poly(k: int, field: FieldSpec = QQ) -> FreePoly:
    """Alternating sum over all orderings of x1..xk."""
    if k < 1:
        raise ValueError("k must be >= 1")
    terms: dict[Word, object] = {}
    one, minus = field.ops.one, field.ops.from_int(-1)
    for perm in permutations(range(k)):
        word = tuple(i + 1 for i in perm)
        terms[word] = one if _perm_sign(perm) == 1 else minus
    return FreePoly(k, field, terms)


def capelli_poly(t: int, field: FieldSpec = QQ) -> FreePoly:
    """Alternating polynomial with interleaving slots:

    sum over orderings s of sgn(s) * x_{s(1)} y_1 x_{s(2)} y_2 ... x_{s(t)}
    in t + (t-1) variables, the y_j numbered t+1 .. 2t-1.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    m = 2 * t - 1
    terms: dict[Word, object] = {}
    one, minus = field.ops.one, field.ops.from_int(-1)
    for perm in permutations(range(t)):
        word: list[int] = []
        for slot, i in enumerate(perm):
            word.append(i + 1)
            if slot < t - 1:
                word.append(t + slot + 1)
        terms[tuple(word)] = one if _perm_sign(perm) == 1 else minus
    return FreePoly(m, field, terms)

"""Exact scalar arithmetic over Q, F_p and the quadratic extension F_{p^2}.

Values are kept raw, and each field's ``ops`` object does all arithmetic
on them:

  Q         an int while the value is integral, otherwise a reduced
            Fraction; division goes through Fraction, so no float appears
  F_p       an int residue in [0, p)
  F_{p^2}   the pair (a, b) meaning a + b*t, where t is a fixed root
            adjoined once per characteristic: t^2 = d with d the smallest
            quadratic non-residue mod p for odd p, and t^2 + t + 1 = 0
            for p = 2 (so F_4)

Every engine interface passes raw values next to their field: matrices,
polynomials, parsed scalars and square roots alike.  :class:`Scalar`, one
boxed value, remains only for the layer probes of the benchmark.

:func:`row_reduce` is the one row reduction over a field's ``ops``; the span
of 2x2 values (classify) and the weight null space (freealg) both use it.

:class:`SparsePoly` is the one sparse-polynomial kernel: a map from
monomial keys to nonzero raw values.  Its two rings differ only in the key:
the free algebra keys a term by its word (a tuple), the commutative ring by
its exponent vector packed into one int.  Both multiply monomials with
``+`` (concatenation, or digit-wise exponent addition), so one add loop and
one mul loop serve both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class FieldMismatchError(ValueError):
    """Raised when two scalars from incompatible fields are combined."""


class ScalarParseError(ValueError):
    pass


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n == q:
            return True
        if n % q == 0:
            return False
    # deterministic Miller-Rabin, valid far beyond 64-bit inputs
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _smallest_nonresidue(p: int) -> int:
    # smallest d in [2, p) with no square root mod p; only called for odd p
    for d in range(2, p):
        if pow(d, (p - 1) // 2, p) == p - 1:
            return d
    raise ValueError(f"no quadratic non-residue mod {p}")


def _sqrt_mod_prime(a: int, p: int) -> int:
    """Tonelli-Shanks. Requires p odd prime and a a quadratic residue mod p."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = _smallest_nonresidue(p)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def canonical_q(x):
    """A rational value in its canonical layout: int when integral."""
    if type(x) is int or x.denominator != 1:
        return x
    return x.numerator


class RationalOps:
    """Q: an int while the value is integral, otherwise a Fraction.

    Division goes through Fraction(a, b), never '/', so no float appears.
    """

    zero, one = 0, 1

    def add(self, a, b):
        return canonical_q(a + b)

    def sub(self, a, b):
        return canonical_q(a - b)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return canonical_q(a * b)

    def inv(self, a):
        return canonical_q(Fraction(1, a))

    def div(self, a, b):
        return canonical_q(Fraction(a, b))

    def from_int(self, n: int):
        return n

    def from_fraction(self, fr):
        return canonical_q(Fraction(fr))

    fmt = staticmethod(str)


class PrimeOps:
    """F_p: an int residue in [0, p)."""

    zero, one = 0, 1

    def __init__(self, p: int):
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("scalar division by zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def from_int(self, n: int):
        return n % self.p

    def from_fraction(self, fr):
        fr = Fraction(fr)
        num, den = fr.numerator, fr.denominator
        if den % self.p == 0:
            raise ZeroDivisionError(f"denominator {den} not invertible mod {self.p}")
        return num * pow(den, -1, self.p) % self.p

    fmt = staticmethod(str)


class QuadraticOps:
    """F_{p^2}: the pair (a, b) meaning a + b*t, with t^2 = s*t + c."""

    zero, one = (0, 0), (1, 0)

    def __init__(self, p: int):
        self.p = p
        self.base = PrimeOps(p)
        # t^2 = t + 1 for p = 2 (so F_4), else t^2 = the least non-residue
        self.s, self.c = (1, 1) if p == 2 else (0, _smallest_nonresidue(p))

    def add(self, x, y):
        p = self.p
        return (x[0] + y[0]) % p, (x[1] + y[1]) % p

    def sub(self, x, y):
        p = self.p
        return (x[0] - y[0]) % p, (x[1] - y[1]) % p

    def neg(self, x):
        p = self.p
        return -x[0] % p, -x[1] % p

    def mul(self, x, y):
        p = self.p
        (x1, y1), (x2, y2) = x, y
        cross = y1 * y2
        return (x1 * x2 + self.c * cross) % p, (x1 * y2 + y1 * x2 + self.s * cross) % p

    def inv(self, x):
        if x == (0, 0):
            raise ZeroDivisionError("scalar division by zero")
        p, s, c = self.p, self.s, self.c
        a, b = x
        # conjugate is a + b*(s - t); the norm a^2 + a*b*s - b^2*c sits in F_p
        ninv = pow((a * a + a * b * s - b * b * c) % p, -1, p)
        return (a + b * s) * ninv % p, -b * ninv % p

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def from_int(self, n: int):
        return n % self.p, 0

    def from_fraction(self, fr):
        return self.base.from_fraction(fr), 0

    @staticmethod
    def fmt(x) -> str:
        a, b = x
        return str(a) if b == 0 else f"{a}+{b}*t"


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field: char 0 means Q, otherwise F_p or F_{p^2}.

    ``ops`` does all arithmetic on the field's raw values; see the module
    docstring for their layouts.
    """

    char: int
    degree: int = 1

    def __post_init__(self):
        if self.char == 0:
            if self.degree != 1:
                raise ValueError("rational field has no extension here")
        elif not _is_prime(self.char):
            raise ValueError(f"characteristic must be 0 or prime, got {self.char}")
        if self.degree not in (1, 2):
            raise ValueError("extension degree must be 1 or 2")
        ops = (RationalOps() if self.char == 0 else PrimeOps(self.char)
               if self.degree == 1 else QuadraticOps(self.char))
        object.__setattr__(self, "ops", ops)

    @property
    def order(self):
        """Number of elements, or None for Q."""
        return None if self.char == 0 else self.char ** self.degree

    def extension(self) -> "FieldSpec":
        if self.char == 0:
            raise ValueError("quadratic extension only defined in positive characteristic")
        return FieldSpec(self.char, 2)

    def raw_elements(self) -> list:
        """Every raw value; finite fields only."""
        if self.char == 0:
            raise ValueError("cannot enumerate Q")
        p = self.char
        if self.degree == 1:
            return list(range(p))
        return [(a, b) for b in range(p) for a in range(p)]

    def __str__(self):
        if self.char == 0:
            return "Q"
        return f"F{self.char}" if self.degree == 1 else f"F{self.char}^2"


QQ = FieldSpec(0)


class Scalar:
    """One field element, boxed: a raw value (``val``) with its field.

    The engine passes raw values and ``field.ops``; Scalar is kept only for
    the layer probes, which time a boxed add, multiply and inverse.
    Operands must come from the same field.
    """

    __slots__ = ("field", "val")

    def __init__(self, field: FieldSpec, val):
        self.field = field
        self.val = val

    def _raw(self, other):
        # the raw value of a same-field operand, or None for foreign types
        if type(other) is not Scalar:
            return None
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatchError(f"cannot combine {self.field} and {other.field}")
        return other.val

    def __add__(self, other):
        v = self._raw(other)
        return NotImplemented if v is None else Scalar(self.field, self.field.ops.add(self.val, v))

    def __mul__(self, other):
        v = self._raw(other)
        return NotImplemented if v is None else Scalar(self.field, self.field.ops.mul(self.val, v))

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field.ops.inv(self.val))

    def __str__(self):
        return self.field.ops.fmt(self.val)

    def __repr__(self):
        return f"Scalar({self}, {self.field})"


DEFAULT_TERM_BUDGET = 10 ** 6


class TermBudgetExceeded(RuntimeError):
    """Symbolic expansion crossed, or would cross, the stored-monomial budget."""

    def __init__(self, count: int, budget: int, message: str | None = None):
        super().__init__(message or f"symbolic expansion reached {count} monomials "
                         f"(budget {budget}); rerun in probabilistic mode")
        self.count = count
        self.budget = budget


def refuse_negative_budgets(**budgets: int) -> None:
    """Raise ValueError for a budget below 0; a budget of 0 allows no work."""
    for name, n in budgets.items():
        if n < 0:
            raise ValueError(f"{name} must be at least 0, got {n}")


def row_reduce(vectors, ops):
    """The reduced row echelon form of the span of vectors, equal-length
    lists of raw values of the field of ``ops``, read in input order.

    Returns (rows, pivots, raised): the reduced rows, the pivot column of
    each, and the indices of the input vectors that raised the rank.
    Reading stops at full rank.  The reduced form of a span is unique, so
    up to the order of its rows it does not depend on the input order.
    """
    sub, mul, z = ops.sub, ops.mul, ops.zero
    rows, pivots, raised = [], [], []
    for i, vec in enumerate(vectors):
        for row, piv in zip(rows, pivots):
            f = vec[piv]
            if f != z:
                vec = [sub(a, mul(f, b)) for a, b in zip(vec, row)]
        lead = next((k for k, v in enumerate(vec) if v != z), None)
        if lead is None:
            continue
        inv = ops.inv(vec[lead])
        vec = [mul(v, inv) for v in vec]
        for k, row in enumerate(rows):
            f = row[lead]
            if f != z:
                rows[k] = [sub(a, mul(f, b)) for a, b in zip(row, vec)]
        rows.append(vec)
        pivots.append(lead)
        raised.append(i)
        if len(rows) == len(vec):
            break
    return rows, pivots, raised


def _q_terms(terms: dict) -> dict:
    # rational coefficients back in their canonical layout (int when integral)
    for k, c in terms.items():
        if type(c) is not int:
            terms[k] = canonical_q(c)
    return terms


class SparsePoly:
    """Monomial keys mapped to nonzero raw values of ``field``, in ``nvars``
    variables; treated as immutable once built.

    Keys multiply with ``+``.  Each sum and product picks the field's
    layout once: pairs go through ``field.ops``, F_p values through Python's
    operators and ``% p``, Q values through Python's operators with the
    canonical int/Fraction layout restored at the end.
    """

    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars: int, field: FieldSpec, terms: dict | None = None):
        self.nvars = nvars
        self.field = field
        z = field.ops.zero
        self.terms = {k: c for k, c in terms.items() if c != z} if terms else {}

    @classmethod
    def zero(cls, nvars: int, field: FieldSpec = QQ):
        return cls(nvars, field)

    def _like(self, terms: dict):
        # a polynomial of the same kind, size and field holding nonzero terms
        out = type(self)(self.nvars, self.field)
        out.terms = terms
        return out

    def _check(self, other: "SparsePoly"):
        if other.nvars != self.nvars or (other.field is not self.field
                                         and other.field != self.field):
            raise ValueError("operands disagree on variable count or field")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._check(other)
        f = self.field
        p, pairs, add, z = f.char, f.degree == 2, f.ops.add, f.ops.zero
        out = dict(self.terms)
        get, pop = out.get, out.pop
        for k, c in other.terms.items():
            s = get(k)
            if s is not None:
                if pairs:
                    c = add(s, c)
                else:
                    c = (s + c) % p if p else s + c
                if c == z:
                    pop(k)
                    continue
            out[k] = c
        return self._like(out if p else _q_terms(out))

    def __neg__(self):
        neg = self.field.ops.neg
        return self._like({k: neg(c) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def mul(self, other, budget: int | None = None):
        """The product; raises TermBudgetExceeded once it holds more than
        budget terms."""
        self._check(other)
        f = self.field
        p, pairs, mul, add, z = f.char, f.degree == 2, f.ops.mul, f.ops.add, f.ops.zero
        out: dict = {}
        get, pop = out.get, out.pop
        items = other.terms.items()
        for k1, c1 in self.terms.items():
            for k2, c2 in items:
                k = k1 + k2
                s = get(k)
                if pairs:
                    c = mul(c1, c2) if s is None else add(s, mul(c1, c2))
                else:
                    c = c1 * c2 if s is None else s + c1 * c2
                    if p:
                        c %= p
                # a product of nonzero field elements is nonzero, so only a
                # sum with an earlier term can cancel
                if c != z:
                    out[k] = c
                else:
                    pop(k)
            if budget is not None and len(out) > budget:
                raise TermBudgetExceeded(len(out), budget)
        return self._like(out if p else _q_terms(out))

    def scale(self, c):
        """c times the polynomial, for a raw value c of the field."""
        ops = self.field.ops
        if c == ops.zero:
            return self._like({})
        mul = ops.mul
        return self._like({k: mul(v, c) for k, v in self.terms.items()})

    def __mul__(self, other):
        return self.mul(other) if isinstance(other, SparsePoly) else NotImplemented

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.nvars == other.nvars and self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, self.field, frozenset(self.terms.items())))


def parse_scalar(text: str, field: FieldSpec):
    """Parse the textual scalar format into a raw value of field: 'p/q' or
    int for Q, residue for F_p, 'a+b*t' (or 'b*t', or a bare residue) for the
    quadratic extension."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ScalarParseError("empty scalar")
    try:
        if "t" in text:
            if field.degree != 2:
                raise ScalarParseError(f"'{text}' names the extension root but field is {field}")
            body = text
            a_part = "0"
            # split on the +/- that separates the constant from the t part
            for i in range(1, len(body)):
                if body[i] in "+-" and "t" in body[i:]:
                    a_part, body = body[:i], body[i:]
                    break
            if body.startswith("+"):
                body = body[1:]
            sign = -1 if body.startswith("-") else 1
            body = body.lstrip("-")
            if body == "t":
                b_val = 1
            elif body.endswith("*t"):
                b_val = int(body[:-2])
            else:
                raise ScalarParseError(f"bad extension scalar '{text}'")
            p = field.char
            return int(a_part) % p, sign * b_val % p
        if "/" in text:
            num, den = text.split("/", 1)
            fr = Fraction(int(num), int(den))
            return field.ops.from_fraction(fr)
        return field.ops.from_int(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, ScalarParseError):
            raise
        raise ScalarParseError(f"bad scalar '{text}' for {field}: {exc}") from exc


def sqrt_in_closure(v, field: FieldSpec):
    """Square root of a raw value v of a prime field, as a raw value of
    F_{p^2}; in F_4, where squaring is a bijection, of F_4 itself.

    Always succeeds: residues keep their root in the base field (lifted),
    non-residues pick up a multiple of the adjoined root.  When both roots
    exist the one with the lexicographically smaller (a, b) encoding is
    returned, so the choice is deterministic.
    """
    if field.char == 0:
        raise ValueError("square roots are only taken in positive characteristic")
    p = field.char
    if field.degree != 1:
        if p == 2:
            # Frobenius: squaring is a bijection of F_4, with inverse squaring
            return field.ops.mul(v, v)
        raise ValueError("argument must come from the prime field")
    if v == 0 or p == 2:
        # in F_2 every element is its own square root
        return v, 0
    if pow(v, (p - 1) // 2, p) == 1:
        r = _sqrt_mod_prime(v, p)
        return min(r, p - r), 0
    r = _sqrt_mod_prime(v * pow(_smallest_nonresidue(p), -1, p) % p, p)
    return 0, min(r, p - r)

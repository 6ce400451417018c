"""Reference arithmetic and checks that share no code with polimage.

Everything the benchmark compares a program output with is computed here:
exact 2x2 matrices over Q, F_p and F_4, each workload polynomial written as
a Python function on matrices, brute-force images over small fields, spans
of matrix-unit values, and the witness properties that classify prints.
The module imports nothing from polimage.

Entries of a matrix live in a field object with ``add``, ``sub``, ``mul``,
``inv``, ``parse`` and ``is_zero``.  The prime-field and F_4 operations also accept NumPy
integer arrays, which is how the brute-force images stay cheap: one
argument runs over a Python loop, the last one over a vector of every
matrix.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np


# -- fields ---------------------------------------------------------------------


class Rationals:
    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        return 1 / Fraction(x)

    def parse(self, text: str):
        return Fraction(text)

    def is_zero(self, x) -> bool:
        return x == 0


class PrimeField:
    """F_p on residues 0..p-1; the operations also work on int arrays."""

    def __init__(self, p: int):
        self.p = self.q = p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def inv(self, x):
        return pow(int(x), -1, self.p)

    def parse(self, text: str) -> int:
        return int(text) % self.p

    def is_zero(self, x) -> bool:
        return x % self.p == 0


class F4:
    """F_4 = F_2[t]/(t^2 + t + 1), element a + b*t stored as a + 2b.

    Addition is XOR of the coefficient bits.  Multiplication uses
    (a + bt)(c + dt) = (ac + bd) + (ad + bc + bd) t.
    """

    q = 4

    def __init__(self):
        tab = np.zeros((4, 4), dtype=np.int64)
        for x in range(4):
            for y in range(4):
                a, b, c, d = x & 1, x >> 1, y & 1, y >> 1
                lo = (a * c + b * d) % 2
                hi = (a * d + b * c + b * d) % 2
                tab[x, y] = lo + 2 * hi
        self.tab = tab

    def add(self, x, y):
        return x ^ y

    sub = add

    def mul(self, x, y):
        return self.tab[x, y]

    def inv(self, x):
        return next(y for y in range(1, 4) if self.tab[x, y] == 1)

    def parse(self, text: str) -> int:
        """The program's format: '0', '1', 'a+b*t'."""
        if "t" not in text:
            return int(text) % 2
        a, _, b = text.partition("+")
        return int(a) % 2 + 2 * (int(b.rstrip("t").rstrip("*") or 1) % 2)

    def is_zero(self, x) -> bool:
        return x == 0


QQ = Rationals()


def field_for_order(q: int):
    return F4() if q == 4 else PrimeField(q)


# -- matrices -------------------------------------------------------------------


class M:
    """A 2x2 matrix (a, b; c, d) over ``F``; entries may be int arrays."""

    __slots__ = ("F", "a", "b", "c", "d")

    def __init__(self, F, a, b, c, d):
        self.F, self.a, self.b, self.c, self.d = F, a, b, c, d

    @classmethod
    def ints(cls, F, a, b, c, d) -> "M":
        if isinstance(F, Rationals):
            return cls(F, Fraction(a), Fraction(b), Fraction(c), Fraction(d))
        return cls(F, F.parse(str(a)), F.parse(str(b)), F.parse(str(c)), F.parse(str(d)))

    @classmethod
    def unit(cls, F, i: int, j: int) -> "M":
        vals = [0, 0, 0, 0]
        vals[2 * (i - 1) + (j - 1)] = 1
        return cls.ints(F, *vals)

    def __add__(self, o: "M") -> "M":
        F = self.F
        return M(F, F.add(self.a, o.a), F.add(self.b, o.b),
                 F.add(self.c, o.c), F.add(self.d, o.d))

    def __sub__(self, o: "M") -> "M":
        F = self.F
        return M(F, F.sub(self.a, o.a), F.sub(self.b, o.b),
                 F.sub(self.c, o.c), F.sub(self.d, o.d))

    def __mul__(self, o: "M") -> "M":
        F = self.F
        ad, mu = F.add, F.mul
        return M(F, ad(mu(self.a, o.a), mu(self.b, o.c)),
                 ad(mu(self.a, o.b), mu(self.b, o.d)),
                 ad(mu(self.c, o.a), mu(self.d, o.c)),
                 ad(mu(self.c, o.b), mu(self.d, o.d)))

    def __pow__(self, k: int) -> "M":
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def scale(self, s) -> "M":
        F = self.F
        return M(F, F.mul(s, self.a), F.mul(s, self.b), F.mul(s, self.c), F.mul(s, self.d))

    def neg(self) -> "M":
        return self.scale(self.F.parse("-1"))

    def trace(self):
        return self.F.add(self.a, self.d)

    def det(self):
        return self.F.sub(self.F.mul(self.a, self.d), self.F.mul(self.b, self.c))

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def is_zero(self) -> bool:
        return all(self.F.is_zero(x) for x in self.entries())

    def is_scalar(self) -> bool:
        F = self.F
        return F.is_zero(self.b) and F.is_zero(self.c) and F.is_zero(F.sub(self.a, self.d))

    def __eq__(self, o) -> bool:
        return isinstance(o, M) and all(
            self.F.is_zero(self.F.sub(x, y)) for x, y in zip(self.entries(), o.entries()))

    def __repr__(self):
        return "M(%s,%s;%s,%s)" % self.entries()


def parse_matrix(F, text: str) -> M:
    """The program's 'a,b;c,d' format."""
    rows = text.split(";")
    if len(rows) != 2:
        raise ValueError(f"not a 2x2 matrix: {text!r}")
    cells = rows[0].split(",") + rows[1].split(",")
    if len(cells) != 4:
        raise ValueError(f"not a 2x2 matrix: {text!r}")
    return M(F, *(F.parse(c) for c in cells))


UNITS = {f"e{i}{j}": (i, j) for i in (1, 2) for j in (1, 2)}


def parse_units(F, text: str) -> list[M]:
    return [M.unit(F, *UNITS[u]) for u in text.split(",")]


# -- the workload polynomials as functions ------------------------------------------


def comm(x: M, y: M) -> M:
    return x * y - y * x


def _sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def _signed_sum(terms) -> M:
    acc = None
    for sign, value in terms:
        value = value if sign > 0 else value.neg()
        acc = value if acc is None else acc + value
    return acc


def standard(*xs: M) -> M:
    """s_k = sum over orderings of sign * x_s(1) ... x_s(k)."""
    def term(perm):
        out = xs[perm[0]]
        for i in perm[1:]:
            out = out * xs[i]
        return _sign(perm), out
    return _signed_sum(term(perm) for perm in itertools.permutations(range(len(xs))))


def capelli(*args: M) -> M:
    """c_t = sum over orderings of sign * x_s(1) y1 x_s(2) y2 ... x_s(t);
    the arguments are x1..xt followed by y1..y(t-1)."""
    t = (len(args) + 1) // 2
    xs, ys = args[:t], args[t:]

    def term(perm):
        out = xs[perm[0]]
        for slot, i in enumerate(perm[1:]):
            out = out * ys[slot] * xs[i]
        return _sign(perm), out
    return _signed_sum(term(perm) for perm in itertools.permutations(range(t)))


def linearized_commutator_square(x1, x2, x3, x4):
    """Full linearization of [x, y]^2 with x -> x1, x2 and y -> x3, x4."""
    return (comm(x1, x3) * comm(x2, x4) + comm(x1, x4) * comm(x2, x3)
            + comm(x2, x3) * comm(x1, x4) + comm(x2, x4) * comm(x1, x3))


def cone_product(x1, x2, x3, x4):
    u = comm((x1 * x2) ** 2, (x3 * x4) ** 2)
    return u * u + u * comm(x1 * x3, x2 * x4) ** 2


# name -> (number of variables, function); names are the program's input text
POLYS = {
    "x1": (1, lambda x1: x1),
    "x1^2": (1, lambda x1: x1 * x1),
    "x1^3+x2^3": (2, lambda x1, x2: x1 ** 3 + x2 ** 3),
    "[x1,x2]": (2, comm),
    "[x1,x2]^2": (2, lambda x1, x2: comm(x1, x2) ** 2),
    "[x1,x2]^3": (2, lambda x1, x2: comm(x1, x2) ** 3),
    "[x1,x2]^4": (2, lambda x1, x2: comm(x1, x2) ** 4),
    "[x1,x2]^2*x1": (2, lambda x1, x2: comm(x1, x2) ** 2 * x1),
    "[x1*x2,x3]^2": (3, lambda x1, x2, x3: comm(x1 * x2, x3) ** 2),
    "[x1*x2,x3]^4": (3, lambda x1, x2, x3: comm(x1 * x2, x3) ** 4),
    "[x1,x2]^2*[x3,x4]^2": (4, lambda x1, x2, x3, x4:
                            comm(x1, x2) ** 2 * comm(x3, x4) ** 2),
    "[x1,x2]^2+[x1,x3]^2": (3, lambda x1, x2, x3: comm(x1, x2) ** 2 + comm(x1, x3) ** 2),
    "[x1,x2]^4+[x1,x2]^2*x1*x2": (2, lambda x1, x2:
                                  comm(x1, x2) ** 4 + comm(x1, x2) ** 2 * x1 * x2),
    "[x1,x2] + [x1,x2]^2": (2, lambda x1, x2: comm(x1, x2) + comm(x1, x2) ** 2),
    "[x1,x2]*[x3,x4]": (4, lambda x1, x2, x3, x4: comm(x1, x2) * comm(x3, x4)),
    "[x1,x2]*[x3,x4]+[x3,x4]*[x1,x2]": (4, lambda x1, x2, x3, x4:
                                        comm(x1, x2) * comm(x3, x4)
                                        + comm(x3, x4) * comm(x1, x2)),
    "[[x1,x2],x3]": (3, lambda x1, x2, x3: comm(comm(x1, x2), x3)),
    "[[x1,x2],[x3,x4]]": (4, lambda x1, x2, x3, x4: comm(comm(x1, x2), comm(x3, x4))),
    "x1*x2*x3*x4*x5*x6": (6, lambda *xs: xs[0] * xs[1] * xs[2] * xs[3] * xs[4] * xs[5]),
    "lin-comm-sq": (4, linearized_commutator_square),
    "cone-product": (4, cone_product),
}
for _k in range(2, 6):
    POLYS[f"s{_k}"] = (_k, standard)
for _t in range(2, 5):
    POLYS[f"c{_t}"] = (2 * _t - 1, capelli)


def scaled(name: str, coeff: int):
    """(m, f) for coeff * POLYS[name], coeff an integer."""
    m, f = POLYS[name]
    if coeff == 1:
        return m, f

    def g(*xs):
        v = f(*xs)
        return v.scale(v.F.parse(str(coeff)))
    return m, g


def evaluate(F, name: str, coeff: int, args: list[M]) -> M:
    m, f = scaled(name, coeff)
    if len(args) != m:
        raise ValueError(f"{name} takes {m} arguments, got {len(args)}")
    return f(*args)


# -- brute-force images over F_q -----------------------------------------------------


def matrices(F, ids) -> M:
    """The matrices with the given base-q codes, as one vectorized M."""
    q = F.q
    ids = np.asarray(ids, dtype=np.int64)
    return M(F, ids // q ** 3, ids // q ** 2 % q, ids // q % q, ids % q)


def all_matrices(F) -> M:
    """Every matrix of M_2(F_q), in code order."""
    return matrices(F, np.arange(F.q ** 4))


def encode(F, v: M) -> np.ndarray:
    """Base-q digits a, b, c, d, the same order the program prints."""
    q = F.q
    a, b, c, d = np.broadcast_arrays(*(np.asarray(x, dtype=np.int64) for x in v.entries()))
    return ((a * q + b) * q + c) * q + d


def decode(F, x: int) -> M:
    q = F.q
    return M(F, x // q ** 3, x // q ** 2 % q, x // q % q, x % q)


def brute_image(F, f, m: int, first=None, chunk: int = 1 << 17) -> set[int]:
    """Set of codes of the values of f over every m-tuple of M_2(F_q).

    Tuples are walked in vectorized chunks of about ``chunk`` evaluations.
    ``first`` optionally restricts the first argument to a set of codes,
    which composes images: the image of g(h(x, y), z) is that of g over
    (image of h) x M_2.
    """
    n4 = F.q ** 4
    heads = np.arange(n4) if first is None else np.asarray(sorted(first), dtype=np.int64)
    seen = np.zeros(n4, dtype=bool)
    if m == 1:
        seen[encode(F, f(matrices(F, heads)))] = True
        return set(np.flatnonzero(seen).tolist())
    prefixes = len(heads) * n4 ** (m - 2)
    per = max(1, chunk // n4)
    tail = np.arange(n4)
    for lo in range(0, prefixes, per):
        x = np.arange(lo, min(lo + per, prefixes))
        digits = []
        for _ in range(m - 2):
            x, r = np.divmod(x, n4)
            digits.append(r)
        digits.append(heads[x])
        args = [matrices(F, np.repeat(d, n4)) for d in reversed(digits)]
        args.append(matrices(F, np.tile(tail, len(digits[0]))))
        seen[encode(F, f(*args))] = True
    return set(np.flatnonzero(seen).tolist())


def traceless(F) -> set[int]:
    """Every trace-zero matrix of M_2(F_q): q^3 of them."""
    every = all_matrices(F)
    mask = np.asarray(F.is_zero(every.trace()))
    return set(encode(F, every)[mask].tolist())


# -- spans, cones and ratios ------------------------------------------------------------


def span_tag(F, mats: list[M]) -> tuple[int, str]:
    """Dimension of the span and its name among 0, scalars, sl2, full;
    'other' for a subspace that is none of these."""
    rows: list[list] = []
    for mt in mats:
        v = list(mt.entries())
        for row, piv in rows:
            if not F.is_zero(v[piv]):
                f = v[piv]
                v = [F.sub(x, F.mul(f, y)) for x, y in zip(v, row)]
        lead = next((k for k, x in enumerate(v) if not F.is_zero(x)), None)
        if lead is None:
            continue
        inv = F.inv(v[lead])
        rows.append(([F.mul(inv, x) for x in v], lead))
        if len(rows) == 4:
            break
    dim = len(rows)
    if dim == 0:
        return 0, "zero"
    if dim == 4:
        return 4, "full"
    if dim == 1 and M(F, *rows[0][0]).is_scalar():
        return 1, "scalars"
    if dim == 3 and all(F.is_zero(F.add(r[0], r[3])) for r, _ in rows):
        return 3, "sl2"
    return dim, "other"


def unit_span(F, name: str, coeff: int = 1) -> tuple[int, str]:
    """Span of the values of a multilinear polynomial, named.

    By multilinearity every value lies in the span of the values at tuples
    of matrix units, so a few values at seeded integer points that already
    span all of M_2 settle 'full'; otherwise every unit tuple is evaluated.
    """
    m, f = scaled(name, coeff)
    rng = random.Random(0)
    points = [f(*[M.ints(F, *(rng.randint(-3, 3) for _ in range(4))) for _ in range(m)])
              for _ in range(8)]
    if span_tag(F, points)[0] == 4:
        return 4, "full"
    units = [M.unit(F, i, j) for i in (1, 2) for j in (1, 2)]
    values = [v for v in (f(*tup) for tup in itertools.product(units, repeat=m))
              if not v.is_zero()]
    return span_tag(F, values)


def cone_kind(F, v: M) -> str:
    """The program's six cone classes, by their definitions."""
    if v.is_zero():
        return "zero"
    if v.is_scalar():
        return "scalar"
    tr, det = v.trace(), v.det()
    if F.is_zero(tr) and F.is_zero(det):
        return "nilpotent"
    if F.is_zero(tr):
        return "traceless_invertible"
    disc = F.sub(F.mul(tr, tr), F.mul(F.parse("4"), det))
    if F.is_zero(disc):
        return "scaled_unipotent"
    return "distinct_eigenvalues"


def ratio_text(F, v: M) -> str:
    """tr^2/det - 2 as the program prints it, or 'infinite'/'undefined'."""
    tr, det = v.trace(), v.det()
    if F.is_zero(det):
        return "undefined" if F.is_zero(tr) else "infinite"
    r = F.sub(F.mul(F.mul(tr, tr), F.inv(det)), F.parse("2"))
    return str(r)


# -- checks -----------------------------------------------------------------------------


class CheckFailure(AssertionError):
    """An output disagrees with the reference."""


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailure(message)


WITNESS_PROPERTIES = {
    "nonzero_value": lambda F, v: not v.is_zero(),
    "non_scalar_value": lambda F, v: not v.is_scalar(),
    "nonzero_trace_value": lambda F, v: not F.is_zero(v.trace()),
    "nilpotent_nonzero_value": lambda F, v: (not v.is_zero() and F.is_zero(v.trace())
                                             and F.is_zero(v.det())),
}


def _recompute(F, name: str, coeff: int, wit: dict) -> M:
    args = wit["args"]
    mats = parse_units(F, args) if isinstance(args, str) else [parse_matrix(F, a) for a in args]
    value = evaluate(F, name, coeff, mats)
    printed = parse_matrix(F, wit["value"])
    require(value == printed,
            f"{name}: witness {args} evaluates to {value}, printed {wit['value']}")
    return value


def check_witness(F, name: str, coeff: int, wit: dict):
    """Re-evaluate a printed witness and confirm the property it claims."""
    kind = wit["kind"]
    if kind == "distinct_ratios":
        v1 = _recompute(F, name, coeff, wit["first"])
        v2 = _recompute(F, name, coeff, wit["second"])
        for v in (v1, v2):
            require(not (F.is_zero(v.trace()) and F.is_zero(v.det())),
                    f"{name}: ratio witness {v} has tr = det = 0")
        t1, t2 = F.mul(v1.trace(), v1.trace()), F.mul(v2.trace(), v2.trace())
        require(not F.is_zero(F.sub(F.mul(t1, v2.det()), F.mul(t2, v1.det()))),
                f"{name}: values {v1} and {v2} share an eigenvalue ratio")
        require(sorted([ratio_text(F, v1), ratio_text(F, v2)]) == sorted(wit["ratios"]),
                f"{name}: printed ratios {wit['ratios']} are not those of the values")
        return
    require(kind in WITNESS_PROPERTIES, f"{name}: unknown witness kind {kind!r}")
    v = _recompute(F, name, coeff, wit)
    require(WITNESS_PROPERTIES[kind](F, v), f"{name}: witness value {v} is not {kind}")


def sample_values(F, name: str, coeff: int, rng, count: int) -> list[M]:
    """Values of coeff * name at seeded points with entries in -5..5."""
    m, f = scaled(name, coeff)
    return [f(*[M.ints(F, *(rng.randint(-5, 5) for _ in range(4))) for _ in range(m)])
            for _ in range(count)]


def distinct_ratio_pair(F, values: list[M]) -> bool:
    """Two values with different eigenvalue ratios, neither nilpotent."""
    seen = set()
    for v in values:
        r = ratio_text(F, v)
        if r != "undefined":
            seen.add(r)
    return len(seen) >= 2


def check_image_elements(F, expected: set[int], printed: list[str]):
    """The printed element list is exactly the reference image."""
    got = [int(encode(F, parse_matrix(F, s))) for s in printed]
    require(len(got) == len(set(got)), "the element list repeats a matrix")
    missing = expected - set(got)
    extra = set(got) - expected
    require(not missing and not extra,
            f"image differs from brute force: {len(missing)} missing, {len(extra)} extra")

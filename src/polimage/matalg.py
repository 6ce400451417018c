"""Exact 2x2 matrices and the cone partition of M_2 used by the classifier.

A 2x2 matrix over a quadratically closed field falls into exactly one of
six classes, each invariant under conjugation and stable (apart from zero)
under nonzero scaling:

  zero                  the zero matrix
  scalar                c*I with c != 0
  nilpotent             nonzero with trace 0 and det 0
  traceless_invertible  trace 0, invertible, not scalar
  scaled_unipotent      equal nonzero eigenvalues, not scalar
                        (conjugate to c*(I + e12); empty in characteristic 2)
  distinct_eigenvalues  discriminant != 0, carries the ratio invariant

The ratio invariant of a matrix with eigenvalues l1, l2 is
l1/l2 + l2/l1 = tr^2/det - 2.  It degenerates to "infinite" when exactly
one eigenvalue is zero and is undefined on nilpotents.  Callers only
compare and print it, so it is returned in its printed form.

Entries, invariants and eigenvalues are raw values of the matrix's field,
computed through ``field.ops``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from polimage.fields import (FieldMismatchError, FieldSpec, ScalarParseError,
                             canonical_q, parse_scalar, sqrt_in_closure)


class SingularMatrixError(ValueError):
    pass


def _same_field(f: FieldSpec, g: FieldSpec):
    if f is not g and f != g:
        raise FieldMismatchError(f"cannot combine {f} and {g}")


class Mat2:
    """Dense 2x2 matrix (a, b; c, d) of raw values of one field.

    ``Mat2(a, b, c, d, field)`` takes raw values of ``field``.  The form
    ``Mat2(a, b, c, d)`` with four Scalars of one field is kept only for the
    layer probes in ``perfbench/probes.py``.  Products, sums and scales
    choose the field's layout once per matrix operation.
    """

    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, a, b, c, d, field: FieldSpec | None = None):
        if field is None:
            field = a.field
            if not (field == b.field == c.field == d.field):
                raise ValueError("matrix entries must share one field")
            a, b, c, d = a.val, b.val, c.val, d.val
        self.field = field
        self.a, self.b, self.c, self.d = a, b, c, d

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_ints(cls, field: FieldSpec, a, b, c, d) -> "Mat2":
        fi = field.ops.from_int
        return cls(fi(a), fi(b), fi(c), fi(d), field)

    @classmethod
    def zero(cls, field: FieldSpec) -> "Mat2":
        z = field.ops.zero
        return cls(z, z, z, z, field)

    @classmethod
    def identity(cls, field: FieldSpec) -> "Mat2":
        z, one = field.ops.zero, field.ops.one
        return cls(one, z, z, one, field)

    @classmethod
    def unit(cls, i: int, j: int, field: FieldSpec) -> "Mat2":
        """Matrix unit e_ij, 1-based."""
        if i not in (1, 2) or j not in (1, 2):
            raise ValueError("unit indices must be 1 or 2")
        vals = [[0, 0], [0, 0]]
        vals[i - 1][j - 1] = 1
        return cls.from_ints(field, vals[0][0], vals[0][1], vals[1][0], vals[1][1])

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Mat2") -> "Mat2":
        f = self.field
        if other.field is not f:
            _same_field(f, other.field)
        if f.degree == 2:
            add = f.ops.add
            return Mat2(add(self.a, other.a), add(self.b, other.b),
                        add(self.c, other.c), add(self.d, other.d), f)
        p = f.char
        if p:
            return Mat2((self.a + other.a) % p, (self.b + other.b) % p,
                        (self.c + other.c) % p, (self.d + other.d) % p, f)
        return _qmat(f, self.a + other.a, self.b + other.b,
                     self.c + other.c, self.d + other.d)

    def __neg__(self) -> "Mat2":
        neg = self.field.ops.neg
        return Mat2(neg(self.a), neg(self.b), neg(self.c), neg(self.d), self.field)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not Mat2:
            return NotImplemented
        f = self.field
        if other.field is not f:
            _same_field(f, other.field)
        a, b, c, d = self.a, self.b, self.c, self.d
        e, g, h, k = other.a, other.b, other.c, other.d
        if f.degree == 2:
            mul, add = f.ops.mul, f.ops.add
            return Mat2(add(mul(a, e), mul(b, h)), add(mul(a, g), mul(b, k)),
                        add(mul(c, e), mul(d, h)), add(mul(c, g), mul(d, k)), f)
        p = f.char
        if p:
            return Mat2((a * e + b * h) % p, (a * g + b * k) % p,
                        (c * e + d * h) % p, (c * g + d * k) % p, f)
        return _qmat(f, a * e + b * h, a * g + b * k, c * e + d * h, c * g + d * k)

    def scale(self, s) -> "Mat2":
        """s times the matrix, for a raw value s of the field."""
        f = self.field
        if f.degree == 2:
            mul = f.ops.mul
            return Mat2(mul(self.a, s), mul(self.b, s), mul(self.c, s), mul(self.d, s), f)
        p = f.char
        if p:
            return Mat2(self.a * s % p, self.b * s % p, self.c * s % p, self.d * s % p, f)
        return _qmat(f, self.a * s, self.b * s, self.c * s, self.d * s)

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return ((self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    # -- invariants (raw values) -------------------------------------------

    def trace(self):
        return self.field.ops.add(self.a, self.d)

    def det(self):
        ops = self.field.ops
        return ops.sub(ops.mul(self.a, self.d), ops.mul(self.b, self.c))

    def disc(self):
        """Discriminant of the characteristic polynomial, tr^2 - 4 det."""
        ops = self.field.ops
        t = self.trace()
        return ops.sub(ops.mul(t, t), ops.mul(ops.from_int(4), self.det()))

    def is_zero(self) -> bool:
        z = self.field.ops.zero
        return self.a == z and self.b == z and self.c == z and self.d == z

    def is_scalar(self) -> bool:
        z = self.field.ops.zero
        return self.b == z and self.c == z and self.a == self.d

    def is_traceless(self) -> bool:
        return self.trace() == self.field.ops.zero

    def is_nilpotent(self) -> bool:
        # Cayley-Hamilton: for 2x2 nilpotency is exactly tr = det = 0
        z = self.field.ops.zero
        return self.trace() == z and self.det() == z

    def entries_vector(self):
        return [self.a, self.b, self.c, self.d]

    def __str__(self):
        fmt = self.field.ops.fmt
        return f"{fmt(self.a)},{fmt(self.b)};{fmt(self.c)},{fmt(self.d)}"

    def __repr__(self):
        return f"Mat2({self}, {self.field})"


def _qmat(f: FieldSpec, a, b, c, d) -> Mat2:
    # rational entries back in their canonical layout
    if type(a) is int and type(b) is int and type(c) is int and type(d) is int:
        return Mat2(a, b, c, d, f)
    q = canonical_q
    return Mat2(q(a), q(b), q(c), q(d), f)


def parse_mat2(text: str, field: FieldSpec) -> Mat2:
    """Parse the row-major 'a,b;c,d' matrix format into raw values."""
    rows = text.strip().split(";")
    if len(rows) != 2:
        raise ScalarParseError(f"expected two ';'-separated rows in {text!r}")
    entries = []
    for row in rows:
        cells = row.split(",")
        if len(cells) != 2:
            raise ScalarParseError(f"expected two ','-separated entries in row {row!r}")
        entries.extend(parse_scalar(cell, field) for cell in cells)
    return Mat2(*entries, field)


# -- ratio invariant ----------------------------------------------------------


def ratio_invariant(mat: Mat2) -> str:
    """Sum of the two eigenvalue ratios, tr^2/det - 2, printed.

    Returns ``field.ops.fmt`` of the value when det != 0, "infinite" when
    exactly one eigenvalue vanishes (det = 0, tr != 0) and "undefined" on
    nilpotent matrices, where no eigenvalue ratio exists.
    """
    ops = mat.field.ops
    t = mat.trace()
    d = mat.det()
    if d == ops.zero:
        return "undefined" if t == ops.zero else "infinite"
    return ops.fmt(ops.sub(ops.div(ops.mul(t, t), d), ops.from_int(2)))


# -- cone classification --------------------------------------------------------


class ConeKind(str, Enum):
    ZERO = "zero"
    SCALAR = "scalar"
    NILPOTENT = "nilpotent"
    SCALED_UNIPOTENT = "scaled_unipotent"
    TRACELESS_INVERTIBLE = "traceless_invertible"
    DISTINCT_EIGENVALUES = "distinct_eigenvalues"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class ConeClass:
    kind: ConeKind
    ratio: str | None = None  # the printed ratio invariant, distinct eigenvalues only

    def to_json(self):
        out = {"kind": self.kind.value}
        if self.ratio is not None:
            out["ratio_invariant"] = self.ratio
        return out

    def __str__(self):
        if self.ratio is None:
            return self.kind.value
        return f"{self.kind.value}(ratio={self.ratio})"


def cone_classify(mat: Mat2) -> ConeClass:
    """Assign the unique cone class of a matrix.

    The ladder is ordered so the classes stay disjoint in every
    characteristic.  In characteristic 2 a trace-zero non-nilpotent
    non-scalar matrix lands in traceless_invertible and the
    scaled_unipotent class is empty, since tr != 0 forces disc = tr^2 != 0
    there.
    """
    if mat.is_zero():
        return ConeClass(ConeKind.ZERO)
    if mat.is_scalar():
        return ConeClass(ConeKind.SCALAR)
    if mat.is_nilpotent():
        return ConeClass(ConeKind.NILPOTENT)
    if mat.is_traceless():
        return ConeClass(ConeKind.TRACELESS_INVERTIBLE)
    if mat.disc() == mat.field.ops.zero:
        return ConeClass(ConeKind.SCALED_UNIPOTENT)
    return ConeClass(ConeKind.DISTINCT_EIGENVALUES, ratio_invariant(mat))


def similar(x: Mat2, y: Mat2) -> bool:
    """Conjugacy over the algebraic closure: same trace and determinant,
    and both scalar or both non-scalar."""
    return (x.trace() == y.trace() and x.det() == y.det()
            and x.is_scalar() == y.is_scalar())


def conjugate(mat: Mat2, g: Mat2) -> Mat2:
    """g * mat * g^-1; g must be invertible."""
    ops = g.field.ops
    dg = g.det()
    if dg == ops.zero:
        raise SingularMatrixError("conjugating matrix is singular")
    adj = Mat2(g.d, ops.neg(g.b), ops.neg(g.c), g.a, g.field)
    return (g * mat * adj).scale(ops.inv(dg))


def eigenvalues_in_closure(mat: Mat2) -> tuple:
    """Both eigenvalues, exactly, as raw values of F_{p^2}.

    Only defined over prime fields.  The pair is ordered by the (a, b)
    encoding of the extension so repeated runs agree.
    """
    f = mat.field
    if f.char == 0:
        raise ValueError("eigenvalues are computed over finite prime fields only")
    if f.degree != 1:
        raise ValueError("matrix must live over the prime field")
    ext = f.extension()
    ops = ext.ops
    t, d = (mat.trace(), 0), (mat.det(), 0)
    if f.char == 2:
        # quadratic formula unavailable; four candidates, test them all
        roots = [z for z in ext.raw_elements()
                 if ops.add(ops.sub(ops.mul(z, z), ops.mul(z, t)), d) == ops.zero]
        if len(roots) == 1:
            roots = roots * 2
        assert len(roots) == 2, "char-2 quadratic must split in F_4"
    else:
        s = sqrt_in_closure(mat.disc(), f)
        half = ops.inv(ops.from_int(2))
        roots = [ops.mul(ops.add(t, s), half), ops.mul(ops.sub(t, s), half)]
    roots.sort()
    return roots[0], roots[1]

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
one eigenvalue is zero and is undefined on nilpotents.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from polimage.fields import FieldSpec, Scalar, ScalarParseError, parse_scalar, sqrt_in_closure


class SingularMatrixError(ValueError):
    pass


class Mat2:
    """Dense 2x2 matrix with entries (a, b; c, d) from one FieldSpec."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Scalar, b: Scalar, c: Scalar, d: Scalar):
        if not (a.field == b.field == c.field == d.field):
            raise ValueError("matrix entries must share one field")
        self.a, self.b, self.c, self.d = a, b, c, d

    @property
    def field(self) -> FieldSpec:
        return self.a.field

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_ints(cls, field: FieldSpec, a, b, c, d) -> "Mat2":
        fi = field.from_int
        return cls(fi(a), fi(b), fi(c), fi(d))

    @classmethod
    def zero(cls, field: FieldSpec) -> "Mat2":
        return cls.from_ints(field, 0, 0, 0, 0)

    @classmethod
    def identity(cls, field: FieldSpec) -> "Mat2":
        return cls.from_ints(field, 1, 0, 0, 1)

    @classmethod
    def unit(cls, i: int, j: int, field: FieldSpec) -> "Mat2":
        """Matrix unit e_ij, 1-based."""
        if i not in (1, 2) or j not in (1, 2):
            raise ValueError("unit indices must be 1 or 2")
        vals = [[0, 0], [0, 0]]
        vals[i - 1][j - 1] = 1
        return cls.from_ints(field, vals[0][0], vals[0][1], vals[1][0], vals[1][1])

    @classmethod
    def diag(cls, x: Scalar, y: Scalar) -> "Mat2":
        z = x.field.zero()
        return cls(x, z, z, y)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, Mat2):
            return Mat2(
                self.a * other.a + self.b * other.c,
                self.a * other.b + self.b * other.d,
                self.c * other.a + self.d * other.c,
                self.c * other.b + self.d * other.d,
            )
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, s) -> "Mat2":
        if isinstance(s, int):
            s = self.field.from_int(s)
        return Mat2(self.a * s, self.b * s, self.c * s, self.d * s)

    def __pow__(self, k: int) -> "Mat2":
        if k < 0:
            raise ValueError("negative matrix powers not supported")
        out = Mat2.identity(self.field)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    # -- invariants ----------------------------------------------------------

    def trace(self) -> Scalar:
        return self.a + self.d

    def det(self) -> Scalar:
        return self.a * self.d - self.b * self.c

    def disc(self) -> Scalar:
        """Discriminant of the characteristic polynomial, tr^2 - 4 det."""
        t = self.trace()
        return t * t - self.det().field.from_int(4) * self.det()

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in (self.a, self.b, self.c, self.d))

    def is_scalar(self) -> bool:
        return self.b.is_zero() and self.c.is_zero() and self.a == self.d

    def is_nilpotent(self) -> bool:
        # Cayley-Hamilton: for 2x2 nilpotency is exactly tr = det = 0
        return self.trace().is_zero() and self.det().is_zero()

    def entries_vector(self):
        return [self.a, self.b, self.c, self.d]

    def __str__(self):
        return f"{self.a},{self.b};{self.c},{self.d}"

    def __repr__(self):
        return f"Mat2({self}, {self.field})"


def parse_mat2(text: str, field: FieldSpec) -> Mat2:
    """Parse the row-major 'a,b;c,d' matrix format."""
    rows = text.strip().split(";")
    if len(rows) != 2:
        raise ScalarParseError(f"expected two ';'-separated rows in {text!r}")
    entries = []
    for row in rows:
        cells = row.split(",")
        if len(cells) != 2:
            raise ScalarParseError(f"expected two ','-separated entries in row {row!r}")
        entries.extend(parse_scalar(cell, field) for cell in cells)
    return Mat2(*entries)


# -- ratio invariant ----------------------------------------------------------


class _RatioMarker:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name

    def __str__(self):
        return self.name


INFINITE_RATIO = _RatioMarker("infinite")
UNDEFINED_RATIO = _RatioMarker("undefined")


def ratio_invariant(mat: Mat2):
    """Sum of the two eigenvalue ratios, tr^2/det - 2.

    Returns a Scalar when det != 0, INFINITE_RATIO when exactly one
    eigenvalue vanishes (det = 0, tr != 0) and UNDEFINED_RATIO on
    nilpotent matrices, where no eigenvalue ratio exists.
    """
    t = mat.trace()
    d = mat.det()
    if d.is_zero():
        return UNDEFINED_RATIO if t.is_zero() else INFINITE_RATIO
    return t * t / d - mat.field.from_int(2)


def ratio_key(value) -> str:
    """Stable string encoding of a ratio invariant for reports and JSON."""
    if isinstance(value, _RatioMarker):
        return value.name
    return str(value)


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
    ratio: object = None  # Scalar or INFINITE_RATIO for distinct eigenvalues

    def to_json(self):
        out = {"kind": self.kind.value}
        if self.ratio is not None:
            out["ratio_invariant"] = ratio_key(self.ratio)
        return out

    def __str__(self):
        if self.ratio is None:
            return self.kind.value
        return f"{self.kind.value}(ratio={ratio_key(self.ratio)})"


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
    t = mat.trace()
    if t.is_zero():
        return ConeClass(ConeKind.TRACELESS_INVERTIBLE)
    if mat.disc().is_zero():
        return ConeClass(ConeKind.SCALED_UNIPOTENT)
    return ConeClass(ConeKind.DISTINCT_EIGENVALUES, ratio_invariant(mat))


def similar(x: Mat2, y: Mat2) -> bool:
    """Conjugacy over the algebraic closure: same trace and determinant,
    and both scalar or both non-scalar."""
    return (x.trace() == y.trace() and x.det() == y.det()
            and x.is_scalar() == y.is_scalar())


def conjugate(mat: Mat2, g: Mat2) -> Mat2:
    """g * mat * g^-1; g must be invertible."""
    dg = g.det()
    if dg.is_zero():
        raise SingularMatrixError("conjugating matrix is singular")
    adj = Mat2(g.d, -g.b, -g.c, g.a)
    return (g * mat * adj).scale(dg.inverse())


def eigenvalues_in_closure(mat: Mat2) -> tuple[Scalar, Scalar]:
    """Both eigenvalues, exactly, as elements of F_{p^2}.

    Only defined over prime fields.  The pair is ordered by the (a, b)
    encoding of the extension so repeated runs agree.
    """
    f = mat.field
    if f.char == 0:
        raise ValueError("eigenvalues are computed over finite prime fields only")
    if f.degree != 1:
        raise ValueError("matrix must live over the prime field")
    ext = f.extension()
    t, d = mat.trace(), mat.det()
    if f.char == 2:
        # quadratic formula unavailable; four candidates, test them all
        roots = [z for z in ext.elements() if (z * z - z * t + d).is_zero()]
        if len(roots) == 1:
            roots = roots * 2
        assert len(roots) == 2, "char-2 quadratic must split in F_4"
    else:
        s = sqrt_in_closure(mat.disc())
        half = ext.from_int(2).inverse()
        roots = [(t + s) * half, (t - s) * half]
    roots.sort(key=lambda z: z.val)
    return roots[0], roots[1]

"""Exact scalar arithmetic over Q, F_p and the quadratic extension F_{p^2}.

All arithmetic is exact: rationals are kept reduced at arbitrary precision,
prime-field elements are canonical residues, and quadratic-extension elements
are pairs a + b*t where t is a fixed root adjoined once per characteristic.
For odd p, t^2 = d with d the smallest quadratic non-residue mod p.  For
p = 2 the extension is F_4 with t^2 + t + 1 = 0.
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


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field: char 0 means Q, otherwise F_p or F_{p^2}."""

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

    @property
    def order(self):
        """Number of elements, or None for Q."""
        return None if self.char == 0 else self.char ** self.degree

    def extension(self) -> "FieldSpec":
        if self.char == 0:
            raise ValueError("quadratic extension only defined in positive characteristic")
        return FieldSpec(self.char, 2)

    def _theta_sq(self):
        # t^2 = s*t + c: reduction rule for the adjoined root
        if self.char == 2:
            return 1, 1  # t^2 = t + 1
        return 0, _smallest_nonresidue(self.char)

    def zero(self) -> "Scalar":
        return self.from_int(0)

    def one(self) -> "Scalar":
        return self.from_int(1)

    def from_int(self, n: int) -> "Scalar":
        if self.char == 0:
            return Scalar(self, Fraction(n))
        if self.degree == 1:
            return Scalar(self, n % self.char)
        return Scalar(self, (n % self.char, 0))

    def from_fraction(self, fr: Fraction) -> "Scalar":
        if self.char == 0:
            return Scalar(self, Fraction(fr))
        num, den = fr.numerator, fr.denominator
        if den % self.char == 0:
            raise ZeroDivisionError(f"denominator {den} not invertible mod {self.char}")
        val = num * pow(den, -1, self.char) % self.char
        if self.degree == 1:
            return Scalar(self, val)
        return Scalar(self, (val, 0))

    def theta(self) -> "Scalar":
        """The adjoined root t of the degree-2 extension."""
        if self.degree != 2:
            raise ValueError("theta lives in the quadratic extension")
        return Scalar(self, (0, 1))

    def elements(self):
        """Iterate every element; finite fields only."""
        if self.char == 0:
            raise ValueError("cannot enumerate Q")
        p = self.char
        if self.degree == 1:
            for a in range(p):
                yield Scalar(self, a)
        else:
            for b in range(p):
                for a in range(p):
                    yield Scalar(self, (a, b))

    def __str__(self):
        if self.char == 0:
            return "Q"
        return f"F{self.char}" if self.degree == 1 else f"F{self.char}^2"


QQ = FieldSpec(0)


class Scalar:
    """One field element.  Value layout depends on the field:

    char 0       -> Fraction
    F_p          -> int residue in [0, p)
    F_{p^2}      -> (a, b) meaning a + b*t
    """

    __slots__ = ("field", "val")

    def __init__(self, field: FieldSpec, val):
        self.field = field
        self.val = val

    # -- coercion ---------------------------------------------------------

    def _lift(self) -> "Scalar":
        # embed F_p into F_{p^2}
        return Scalar(self.field.extension(), (self.val, 0))

    def _pair(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        elif isinstance(other, Fraction):
            other = self.field.from_fraction(other)
        if not isinstance(other, Scalar):
            return None, None
        a, b = self, other
        if a.field != b.field:
            if a.field.char != b.field.char or a.field.char == 0:
                raise FieldMismatchError(f"cannot combine {a.field} and {b.field}")
            if a.field.degree == 1:
                a = a._lift()
            else:
                b = b._lift()
        return a, b

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        f = a.field
        if f.char == 0:
            return Scalar(f, a.val + b.val)
        p = f.char
        if f.degree == 1:
            return Scalar(f, (a.val + b.val) % p)
        (x1, y1), (x2, y2) = a.val, b.val
        return Scalar(f, ((x1 + x2) % p, (y1 + y2) % p))

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        if f.char == 0:
            return Scalar(f, -self.val)
        p = f.char
        if f.degree == 1:
            return Scalar(f, -self.val % p)
        a, b = self.val
        return Scalar(f, (-a % p, -b % p))

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        f = a.field
        if f.char == 0:
            return Scalar(f, a.val * b.val)
        p = f.char
        if f.degree == 1:
            return Scalar(f, a.val * b.val % p)
        (x1, y1), (x2, y2) = a.val, b.val
        s, c = f._theta_sq()
        cross = y1 * y2
        return Scalar(f, ((x1 * x2 + c * cross) % p, (x1 * y2 + y1 * x2 + s * cross) % p))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        f = self.field
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if f.char == 0:
            return Scalar(f, 1 / self.val)
        p = f.char
        if f.degree == 1:
            return Scalar(f, pow(self.val, -1, p))
        a, b = self.val
        s, c = f._theta_sq()
        # conjugate is a + b*(s - t); the norm a^2 + a*b*s - b^2*c sits in F_p
        norm = (a * a + a * b * s - b * b * c) % p
        ninv = pow(norm, -1, p)
        return Scalar(f, ((a + b * s) * ninv % p, -b * ninv % p))

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            base, k = self.inverse(), -k
        out = self.field.one()
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates and identity ------------------------------------------

    def is_zero(self) -> bool:
        if self.field.char == 0:
            return self.val == 0
        if self.field.degree == 1:
            return self.val == 0
        return self.val == (0, 0)

    def is_one(self) -> bool:
        return self == self.field.one()

    def _canon(self):
        # canonical (char, a, b) encoding shared by F_p and its extension
        if self.field.char == 0:
            return (0, self.val, 0)
        if self.field.degree == 1:
            return (self.field.char, self.val, 0)
        return (self.field.char, self.val[0], self.val[1])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                other = (self.field.from_int(other) if isinstance(other, int)
                         else self.field.from_fraction(other))
            except ZeroDivisionError:
                return NotImplemented
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.field.char != other.field.char:
            return False
        return self._canon() == other._canon()

    def __hash__(self):
        return hash(self._canon())

    def __str__(self):
        if self.field.char == 0 or self.field.degree == 1:
            return str(self.val)
        a, b = self.val
        if b == 0:
            return str(a)
        return f"{a}+{b}*t"

    def __repr__(self):
        return f"Scalar({self}, {self.field})"


def parse_scalar(text: str, field: FieldSpec) -> Scalar:
    """Parse the textual scalar format: 'p/q' or int for Q, residue for F_p,
    'a+b*t' (or 'b*t', or a bare residue) for the quadratic extension."""
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
            return Scalar(field, (int(a_part) % p, sign * b_val % p))
        if "/" in text:
            num, den = text.split("/", 1)
            fr = Fraction(int(num), int(den))
            return field.from_fraction(fr)
        return field.from_int(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, ScalarParseError):
            raise
        raise ScalarParseError(f"bad scalar '{text}' for {field}: {exc}") from exc


def sqrt_in_closure(a: Scalar) -> Scalar:
    """Square root of a prime-field element, taken in F_{p^2}.

    Always succeeds: residues keep their root in the base field (lifted),
    non-residues pick up a multiple of the adjoined root.  When both roots
    exist the one with the lexicographically smaller (a, b) encoding is
    returned, so the choice is deterministic.
    """
    f = a.field
    if f.char == 0:
        raise ValueError("square roots are only taken in positive characteristic")
    if f.degree != 1:
        if f.char == 2:
            # Frobenius: squaring is a bijection of F_4, with inverse squaring
            return a * a
        raise ValueError("argument must come from the prime field")
    ext = f.extension()
    p = f.char
    v = a.val
    if v == 0:
        return ext.zero()
    if p == 2:
        # Frobenius: squaring is a bijection, sqrt(x) = x^(2^(k-1)) in F_{2^k}
        return Scalar(ext, (v, 0)) ** 2
    if pow(v, (p - 1) // 2, p) == 1:
        r = _sqrt_mod_prime(v, p)
        r = min(r, p - r)
        return Scalar(ext, (r, 0))
    d = _smallest_nonresidue(p)
    r = _sqrt_mod_prime(v * pow(d, -1, p) % p, p)
    r = min(r, p - r)
    return Scalar(ext, (0, r))

"""Exact scalar arithmetic over Q, F_p, and F_p^2."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polimage.fields import (FieldMismatchError, FieldSpec, QQ, Scalar,
                             ScalarParseError, parse_scalar, sqrt_in_closure)
from polimage.matalg import Mat2

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
F9 = FieldSpec(3, 2)
F25 = FieldSpec(5, 2)
F4 = FieldSpec(2, 2)


def test_rational_arithmetic():
    ops = QQ.ops
    a = ops.from_fraction(Fraction(1, 2))
    b = ops.from_fraction(Fraction(1, 3))
    assert ops.add(a, b) == Fraction(5, 6)
    assert ops.mul(a, b) == Fraction(1, 6)
    assert ops.div(a, b) == Fraction(3, 2)


def test_prime_field_values():
    ops = F5.ops
    assert ops.mul(ops.from_int(3), ops.from_int(4)) == 2
    assert ops.inv(ops.from_int(2)) == 3
    assert ops.from_fraction(Fraction(1, 2)) == 3


def test_fraction_with_noninvertible_denominator():
    with pytest.raises(ZeroDivisionError):
        F5.ops.from_fraction(Fraction(1, 5))


def test_extension_multiplication():
    # theta^2 = d with d the least non-residue, so d = 2 for p = 3: the
    # product (1 + t)(1 - t) must be 1 - t^2 = 1 - 2 = -1 = 2
    one_plus = Scalar(F9, (1, 1))
    one_minus = Scalar(F9, (1, 2))
    assert (one_plus * one_minus).val == (2, 0)


def test_char2_extension():
    # t^2 = t + 1 in F4
    t = Scalar(F4, (0, 1))
    assert (t * t).val == (1, 1)
    assert (t * t * t).val == (1, 0)  # multiplicative order 3


def test_extension_inverse():
    for field in (F9, F25, F4):
        for a in range(field.char):
            for b in range(field.char):
                if a == b == 0:
                    continue
                x = Scalar(field, (a, b))
                assert (x * x.inverse()).val == (1, 0)


def test_sqrt_in_closure():
    assert sqrt_in_closure(4, F5) == (2, 0)
    r = sqrt_in_closure(2, F3)
    assert F9.ops.mul(r, r) == (2, 0)
    assert r == (0, 1)  # canonical root of the generator itself
    assert sqrt_in_closure(0, F5) == F25.ops.zero


def test_sqrt_char2_is_frobenius():
    # squaring is a bijection of F4, so every element has exactly one root
    for a in range(2):
        for b in range(2):
            r = sqrt_in_closure((a, b), F4)
            assert F4.ops.mul(r, r) == (a, b)
    assert sqrt_in_closure(1, F2) == F4.ops.one


def test_mixed_field_rejected():
    with pytest.raises(FieldMismatchError):
        Scalar(F5, 1) + Scalar(F3, 1)


def test_parse_scalar():
    assert parse_scalar("3/4", QQ) == Fraction(3, 4)
    assert parse_scalar("-2", F5) == 3
    assert parse_scalar("1+2*t", F9) == (1, 2)
    assert parse_scalar("t", F9) == (0, 1)
    assert parse_scalar("2*t", F9) == (0, 2)
    with pytest.raises(ScalarParseError):
        parse_scalar("t", F5)
    with pytest.raises(ScalarParseError):
        parse_scalar("1/0", QQ)


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(0, 2)
    with pytest.raises(ValueError):
        FieldSpec(5, 3)


def test_elements_enumeration():
    assert len(F9.raw_elements()) == 9
    assert len(F5.raw_elements()) == 5
    assert str(F9) == "F3^2"


def _check_ring_laws(ops, x, y, z):
    add, mul = ops.add, ops.mul
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert mul(add(x, y), z) == add(mul(x, z), mul(y, z))
    assert mul(x, y) == mul(y, x)
    assert add(x, y) == add(y, x)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_ring_laws_rational(a, b, c):
    _check_ring_laws(QQ.ops, *(QQ.ops.from_int(v) for v in (a, b, c)))


@given(st.sampled_from([(a, b) for a in range(3) for b in range(3)]),
       st.sampled_from([(a, b) for a in range(3) for b in range(3)]),
       st.sampled_from([(a, b) for a in range(3) for b in range(3)]))
def test_ring_laws_extension(pa, pb, pc):
    _check_ring_laws(F9.ops, pa, pb, pc)


@given(st.integers(1, 8))
def test_extension_inverse_roundtrip(n):
    ops = F9.ops
    x = (n % 3, n // 3)
    assert ops.mul(x, ops.inv(x)) == ops.one
    assert ops.mul(ops.inv(x), ops.inv(x)) == ops.inv(ops.mul(x, x))


# -- raw ops against independent models ----------------------------------------

def _least_nonresidue(p):
    squares = {x * x % p for x in range(p)}
    return next(d for d in range(2, p) if d not in squares)


def _quad_model(p):
    """F_p[t] modulo the defining quadratic, from polynomial arithmetic:
    t^2 + t + 1 for p = 2, t^2 - d (d the least non-residue) for odd p."""
    # monic t^2 + r1*t + r0
    r1, r0 = (1, 1) if p == 2 else (0, -_least_nonresidue(p) % p)

    def mul(x, y):
        prod = [0, 0, 0]
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                prod[i + j] += u * v
        # t^2 = -r1*t - r0
        lead = prod.pop()
        return ((prod[0] - lead * r0) % p, (prod[1] - lead * r1) % p)

    def add(x, y):
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)

    def inv(x):
        return next((a, b) for a in range(p) for b in range(p) if mul(x, (a, b)) == (1, 0))

    return add, mul, inv


def _canonical_q(v):
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


rationals = st.fractions(max_denominator=30).map(
    lambda v: v.numerator if v.denominator == 1 else v)


@given(rationals, rationals)
def test_rational_ops_match_fractions(a, b):
    ops = QQ.ops
    fa, fb = Fraction(a), Fraction(b)
    results = [(ops.add(a, b), fa + fb), (ops.sub(a, b), fa - fb),
               (ops.mul(a, b), fa * fb), (ops.neg(a), -fa)]
    if b != 0:
        results += [(ops.div(a, b), fa / fb), (ops.inv(b), 1 / fb)]
    for got, want in results:
        assert not isinstance(got, float)
        assert _canonical_q(got)
        assert got == want


@given(st.sampled_from([2, 3, 5, 7, 101]), st.integers(-500, 500), st.integers(-500, 500))
def test_prime_ops_match_residues(p, m, n):
    ops = FieldSpec(p).ops
    a, b = ops.from_int(m), ops.from_int(n)
    assert (a, b) == (m % p, n % p)
    assert ops.add(a, b) == (m + n) % p
    assert ops.sub(a, b) == (m - n) % p
    assert ops.mul(a, b) == m * n % p
    assert ops.neg(a) == -m % p
    if b:
        assert ops.inv(b) * b % p == 1
        assert ops.div(a, b) * b % p == a


@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_quadratic_ops_match_polynomial_model(p, data):
    ops = FieldSpec(p, 2).ops
    add, mul, inv = _quad_model(p)
    elt = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
    x, y = data.draw(elt), data.draw(elt)
    assert ops.add(x, y) == add(x, y)
    assert ops.sub(x, y) == add(x, ((-y[0]) % p, (-y[1]) % p))
    assert ops.mul(x, y) == mul(x, y)
    if y != (0, 0):
        assert ops.inv(y) == inv(y)
        assert ops.div(x, y) == mul(x, inv(y))


def _model_ring(field):
    """add and mul of the independent model for a field's raw values."""
    if field.char == 0:
        return (lambda x, y: Fraction(x) + Fraction(y)), (lambda x, y: Fraction(x) * Fraction(y))
    if field.degree == 1:
        p = field.char
        return (lambda x, y: (x + y) % p), (lambda x, y: x * y % p)
    add, mul, _ = _quad_model(field.char)
    return add, mul


@settings(max_examples=60)
@given(st.sampled_from([QQ, FieldSpec(7), FieldSpec(7, 2), F4]), st.data())
def test_mat2_product_matches_entrywise_model(field, data):
    if field.char == 0:
        elt = rationals
    elif field.degree == 1:
        elt = st.integers(0, field.char - 1)
    else:
        elt = st.tuples(st.integers(0, field.char - 1), st.integers(0, field.char - 1))
    x = [data.draw(elt) for _ in range(4)]
    y = [data.draw(elt) for _ in range(4)]
    add, mul = _model_ring(field)
    want = [add(mul(x[2 * i], y[j]), mul(x[2 * i + 1], y[2 + j]))
            for i in range(2) for j in range(2)]
    got = Mat2(*x, field) * Mat2(*y, field)
    assert got.entries_vector() == want
    assert got == Mat2(*(Scalar(field, v) for v in want))
    assert not any(isinstance(v, float) for v in got.entries_vector())
    if field.char == 0:
        assert all(_canonical_q(v) for v in got.entries_vector())

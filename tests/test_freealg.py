"""Free-algebra layer: parsing, formatting, weights, linearization."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polimage.fields import FieldSpec, QQ
from polimage.freealg import (FreePoly, PolyParseError, capelli_poly, compile_plan,
                              format_poly, infer_weights, multilinearize,
                              parse_poly, run_plan, semi_homogeneous_check,
                              standard_poly, weighted_parts)

F5 = FieldSpec(5)


def substitute(p, subs):
    """p with subs[i-1] put in for x_i: the evaluator over the FreePoly ring."""
    m, field = subs[0].m, subs[0].field
    return run_plan(compile_plan(p), subs, operator.mul, operator.add,
                    lambda c, x: x.scale(c), FreePoly.zero(m, field),
                    FreePoly.constant(field.ops.one, m, field))


def test_commutator_parse():
    p = parse_poly("[x1,x2]", 2)
    assert len(p.terms) == 2
    assert p.terms[(1, 2)] == 1
    assert p.terms[(2, 1)] == -1


def test_commutator_square_words():
    p = parse_poly("[x1,x2]^2", 2)
    assert len(p.terms) == 4
    assert all(len(w) == 4 for w in p.terms)


def test_power_requires_positive():
    with pytest.raises(PolyParseError):
        parse_poly("x1^0", 1)


def test_undeclared_variable():
    with pytest.raises(PolyParseError) as e:
        parse_poly("x1 + x3", 2)
    assert e.value.position > 0


def test_parse_error_position():
    with pytest.raises(PolyParseError):
        parse_poly("x1 + @", 1)


def test_constant_and_coefficients():
    p = parse_poly("2*x1 - 3/2*x1*x1", 1, QQ)
    assert p.terms[(1,)] == 2
    assert p.terms[(1, 1)] == Fraction(-3, 2)


def test_leading_sign():
    p = parse_poly("-x1 + x2", 2)
    assert p.terms[(1,)] == -1


def test_cancellation_drops_terms():
    p = parse_poly("x1*x2 - x1*x2", 2)
    assert p.is_zero()


def test_multilinear_detection():
    assert parse_poly("[x1,x2]", 2).is_multilinear()
    assert not parse_poly("[x1,x2]^2", 2).is_multilinear()
    assert not parse_poly("x1", 2).is_multilinear()  # misses x2


def test_standard_poly_s4():
    s4 = standard_poly(4)
    assert len(s4.terms) == 24
    assert s4.is_multilinear()
    # alternating: swapping two variables negates
    x1, x2, x3, x4 = (FreePoly.variable(i, 4) for i in range(1, 5))
    swapped = substitute(s4, [x2, x1, x3, x4])
    assert swapped == s4.scale(-1)


def test_capelli_c4():
    c4 = capelli_poly(4)
    assert c4.m == 7
    assert len(c4.terms) == 24
    assert all(len(w) == 7 for w in c4.terms)
    # x-positions carry the permutation, y-positions interleave fixed
    for w in c4.terms:
        assert all(w[i] > 4 for i in (1, 3, 5))
        assert sorted(w[i] for i in (0, 2, 4, 6)) == [1, 2, 3, 4]


def test_semi_homogeneous_check():
    p = parse_poly("[x1,x2]^3", 2)
    rep = semi_homogeneous_check(p, (1, 1))
    assert rep.ok and rep.degree == 6
    q = parse_poly("[x1,x2] + [x1,x2]^2", 2)
    rep = semi_homogeneous_check(q, (1, 1))
    assert not rep.ok and rep.offenders


def test_infer_weights():
    ws = infer_weights(parse_poly("[x1,x2]", 2))
    assert (1, 1) in ws
    ws = infer_weights(parse_poly("[x1,x2] + [x1,x2]^2", 2))
    assert all(any(x <= 0 for x in w) for w in ws)  # no positive vector exists
    ws = infer_weights(parse_poly("x1*x2^2 + x2*x1*x2", 2))
    assert (1, 1) in ws


def test_weighted_parts():
    p = parse_poly("[x1,x2] + [x1,x2]^2", 2)
    parts = weighted_parts(p, (1, 1))
    assert [d for d, _ in parts] == [2, 4]
    assert parts[1][1] == parse_poly("[x1,x2]^2", 2)


def test_multilinearize_square_variable():
    p = parse_poly("x1^2", 1)
    lin = multilinearize(p)
    assert lin == parse_poly("x1*x2 + x2*x1", 2)


def test_multilinearize_commutator_square():
    p = parse_poly("[x1,x2]^2", 2)
    lin = multilinearize(p)
    assert lin.m == 4
    assert len(lin.terms) == 16
    assert lin.is_multilinear()
    # substituting the blocks back gives 2! * 2! copies of the original
    back = substitute(lin, [parse_poly("x1", 2), parse_poly("x1", 2),
                            parse_poly("x2", 2), parse_poly("x2", 2)])
    assert back == p.scale(4)


def test_multilinearize_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        multilinearize(parse_poly("x1 + x1^2", 1))


def test_format_poly_roundtrip_simple():
    for text in ("[x1,x2]", "[x1,x2]^2 * x1", "x1^2 - 2*x2 + 1/3*x1*x2"):
        p = parse_poly(text, 2)
        assert parse_poly(format_poly(p), 2) == p


def test_coerce_to_prime_field():
    p = parse_poly("2*x1 + 5*x1^2", 1)
    q = p.coerce(F5)
    assert (1, 1) not in q.terms  # 5 = 0 mod 5
    assert q.terms[(1,)] == 2


words = st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=4),
                 min_size=1, max_size=5)
coeffs = st.lists(st.fractions(min_value=-4, max_value=4), min_size=5, max_size=5)


@settings(max_examples=60)
@given(words, coeffs)
def test_format_parse_roundtrip(ws, cs):
    terms = {}
    for w, c in zip(ws, cs):
        if c:
            terms[tuple(w)] = QQ.ops.from_fraction(c)
    p = FreePoly(3, QQ, terms)
    assert parse_poly(format_poly(p), 3) == p


@settings(max_examples=40)
@given(words, coeffs, words, coeffs)
def test_multiplication_is_distributive(w1, c1, w2, c2):
    a = FreePoly(3, QQ, {tuple(w): QQ.ops.from_fraction(c)
                         for w, c in zip(w1, c1) if c})
    b = FreePoly(3, QQ, {tuple(w): QQ.ops.from_fraction(c)
                         for w, c in zip(w2, c2) if c})
    assert (a + b) * a == a * a + b * a
    assert a * (a + b) == a * a + a * b

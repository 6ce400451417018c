"""The sparse-polynomial kernel shared by FreePoly and ComPoly: packed
exponent keys, sums and products against a term-by-term model, and the
refusal that keeps packed exponents exact."""

import pytest
from hypothesis import given, settings, strategies as st

import polimage.generic as generic
from polimage.fields import FieldSpec
from polimage.freealg import FreePoly, parse_poly
from polimage.generic import ComPoly, generic_eval, pack, unpack

F7, F49, F4 = FieldSpec(7), FieldSpec(7, 2), FieldSpec(2, 2)

# every digit of a sum of two such vectors stays below 2 ** WIDTH
half = (1 << generic.WIDTH - 1) - 1
expo_pairs = st.integers(1, 12).flatmap(lambda n: st.tuples(
    *(st.lists(st.integers(0, 40), min_size=n, max_size=n).map(tuple)
      .filter(lambda e: sum(e) <= half) for _ in range(2))))


@given(expo_pairs)
def test_packed_sum_is_exponent_sum(pair):
    e1, e2 = pair
    assert pack(e1) + pack(e2) == pack(tuple(a + b for a, b in zip(e1, e2)))


@given(expo_pairs)
def test_unpack_inverts_pack(pair):
    for e in pair:
        assert unpack(pack(e), len(e)) == e


@given(expo_pairs)
def test_int_order_is_graded_lex(pair):
    e1, e2 = pair
    assert (pack(e1) < pack(e2)) == ((sum(e1), e1) < (sum(e2), e2))
    assert (pack(e1) == pack(e2)) == (e1 == e2)


def model_add(ops, a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = ops.add(out.get(k, ops.zero), c)
    return {k: c for k, c in out.items() if c != ops.zero}


def model_mul(ops, a: dict, b: dict, key_mul) -> dict:
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = key_mul(k1, k2)
            out[k] = ops.add(out.get(k, ops.zero), ops.mul(c1, c2))
    return {k: c for k, c in out.items() if c != ops.zero}


def raw_values(field):
    if field.degree == 1:
        return st.integers(0, field.char - 1)
    return st.tuples(st.integers(0, field.char - 1), st.integers(0, field.char - 1))


# short words over two letters collide often, so sums and products cancel
words = st.lists(st.integers(1, 2), max_size=3).map(tuple)


@settings(max_examples=80)
@given(st.sampled_from([F7, F49, F4]), st.data())
def test_free_poly_matches_term_model(field, data):
    ops = field.ops
    terms = st.dictionaries(words, raw_values(field), max_size=6)
    ta, tb = data.draw(terms), data.draw(terms)
    c = data.draw(raw_values(field))
    a, b = FreePoly(2, field, ta), FreePoly(2, field, tb)
    ta = {k: v for k, v in ta.items() if v != ops.zero}
    tb = {k: v for k, v in tb.items() if v != ops.zero}
    neg_b = {k: ops.neg(v) for k, v in tb.items()}
    assert (a + b).terms == model_add(ops, ta, tb)
    assert (a - b).terms == model_add(ops, ta, neg_b)
    assert (-b).terms == neg_b
    assert (a * b).terms == model_mul(ops, ta, tb, lambda u, v: u + v)
    assert a.scale(c).terms == model_mul(ops, ta, {(): c}, lambda u, v: u + v)
    assert a * b == a.mul(b) and hash(a + b) == hash(b + a)


@settings(max_examples=40)
@given(st.sampled_from([F7, F49, F4]), st.data())
def test_com_poly_matches_exponent_model(field, data):
    ops = field.ops
    expos = st.lists(st.integers(0, 2), min_size=3, max_size=3).map(tuple)
    terms = st.dictionaries(expos, raw_values(field), max_size=6)
    ta, tb = data.draw(terms), data.draw(terms)
    a = ComPoly(3, field, {pack(e): v for e, v in ta.items()})
    b = ComPoly(3, field, {pack(e): v for e, v in tb.items()})
    ta = {k: v for k, v in ta.items() if v != ops.zero}
    tb = {k: v for k, v in tb.items() if v != ops.zero}
    want = model_mul(ops, ta, tb, lambda u, v: tuple(x + y for x, y in zip(u, v)))
    assert {unpack(k, 3): v for k, v in a.mul(b).terms.items()} == want
    want = model_add(ops, ta, tb)
    assert {unpack(k, 3): v for k, v in (a + b).terms.items()} == want


def test_budget_bounds_the_product():
    p = generic_eval(parse_poly("[x1,x2]", 2)).a
    with pytest.raises(generic.TermBudgetExceeded):
        p.mul(p, budget=2)  # 3 monomials


def test_generic_eval_refuses_exponent_carry(monkeypatch):
    p = parse_poly("[x1,x2]*x1", 2)
    P = generic_eval(p)
    shown = [str(P.trace().mul(P.trace())), str(P.det())]
    # 3 bits hold exponents up to 7: degree 3 (tr^2 and det of degree 6) is
    # still exact, degree 4 would carry into the next digit
    monkeypatch.setattr(generic, "WIDTH", 3)
    P = generic_eval(p)
    assert [str(P.trace().mul(P.trace())), str(P.det())] == shown
    with pytest.raises(ValueError, match="degree 4"):
        generic_eval(parse_poly("[x1,x2]*x1^2", 2))

"""Generic-matrix evaluation and the seeded probabilistic probe."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from polimage.fields import FieldSpec, QQ
from polimage.freealg import FreePoly, parse_poly, run_plan, standard_poly
from polimage.generic import (ComPoly, DEFAULT_PROBE_PRIME, TermBudgetExceeded,
                              eval_on_matrices, generic_eval, is_central,
                              is_identically_zero, is_trace_zero,
                              probabilistic_probe, proportionality, random_mat2)
from polimage.matalg import Mat2
from polimage.oracle import get_table, int_plan, int_ring


def test_generic_single_variable():
    P = generic_eval(parse_poly("x1", 1))
    assert [str(e) for e in P.entries()] == ["1*u0", "1*u1", "1*u2", "1*u3"]


def test_commutator_trace_vanishes():
    P = generic_eval(parse_poly("[x1,x2]", 2))
    assert is_trace_zero(P)
    assert not is_central(P)


def test_commutator_square_is_central():
    P = generic_eval(parse_poly("[x1,x2]^2", 2))
    assert is_central(P)
    assert not is_identically_zero(P)


def test_commutator_cube_trace_zero_not_central():
    P = generic_eval(parse_poly("[x1,x2]^3", 2))
    assert is_trace_zero(P)
    assert not is_central(P)


def test_standard_s4_vanishes_generically():
    # an identity of 2x2 matrices: all four entries cancel symbolically
    P = generic_eval(standard_poly(4))
    assert is_identically_zero(P)


def test_term_budget():
    with pytest.raises(TermBudgetExceeded):
        generic_eval(parse_poly("[x1,x2]^3", 2), budget=10)


def test_proportionality_witnesses():
    P = generic_eval(parse_poly("x1", 1))
    tau = P.trace() * P.trace()
    delta = P.det()
    res = proportionality(tau, delta)
    assert not res.proportional
    assert res.witnesses  # exponent vectors pointing at the mismatch


def test_proportionality_of_zero():
    z = ComPoly.zero(4, QQ)
    res = proportionality(z, z)
    assert res.proportional and res.degenerate


def test_proportional_scaled_pair():
    P = generic_eval(parse_poly("x1", 1))
    delta = P.det()
    res = proportionality(delta + delta, delta)
    assert res.proportional
    assert res.ratio == 2


def test_eval_on_matrices_matches_generic():
    p = parse_poly("[x1,x2]^2 * x1", 2)
    P = generic_eval(p)
    a = Mat2.from_ints(QQ, 1, 2, 0, 1)
    b = Mat2.from_ints(QQ, 0, 1, 1, 1)
    point = list(a.entries_vector()) + list(b.entries_vector())
    direct = eval_on_matrices(p, [a, b])
    assert [e.evaluate(point) for e in P.entries()] == list(direct.entries_vector())


def test_probe_identity_poly():
    rep = probabilistic_probe(parse_poly("x1", 1), trials=20, seed=1)
    assert not rep.all_zero and not rep.all_central
    assert not rep.constant_ratio
    assert rep.witnesses["distinct_ratios"]


def test_probe_s4_all_zero():
    rep = probabilistic_probe(standard_poly(4), trials=16, seed=0)
    assert rep.all_zero
    # per-trial miss probability at most deg * 4m / prime
    assert rep.false_negative_bound == f"{4 * 16}/{DEFAULT_PROBE_PRIME}"


def test_probe_deterministic_given_seed():
    p = parse_poly("[x1,x2]^2 * x1", 2)
    r1 = probabilistic_probe(p, trials=25, seed=7)
    r2 = probabilistic_probe(p, trials=25, seed=7)
    assert r1.to_json() == r2.to_json()


def test_probe_rejects_small_prime():
    with pytest.raises(ValueError):
        probabilistic_probe(parse_poly("[x1,x2]^3", 2), trials=5, prime=7)


def test_random_mat2_uniform_field():
    import random
    rng = random.Random(0)
    f9 = FieldSpec(3, 2)
    mats = [random_mat2(f9, rng) for _ in range(40)]
    assert any(m.a[1] != 0 for m in mats)  # leaves the prime subfield


def plain_eval(p, mats, zero, one):
    """Term by term, every word multiplied out from the identity."""
    acc = zero
    for w, c in p.terms.items():
        cur = one
        for i in w:
            cur = cur * mats[i - 1]
        acc = acc + cur.scale(c)
    return acc


# short words over two letters share prefixes often; () is a constant term
word_lists = st.dictionaries(st.lists(st.integers(1, 2), max_size=5).map(tuple),
                             st.integers(-3, 3).filter(bool), max_size=8)
entries = st.lists(st.integers(-4, 4), min_size=8, max_size=8)


@settings(max_examples=30)
@given(word_lists, entries)
@example({(1, 2): 1, (2, 1): -1}, [1, 2, 0, 1, 0, 1, 1, 1])
def test_generic_agrees_with_concrete_commutator(terms, ints):
    p = FreePoly(2, QQ, dict(terms))
    x, y = Mat2.from_ints(QQ, *ints[:4]), Mat2.from_ints(QQ, *ints[4:])
    want = plain_eval(p, [x, y], Mat2.zero(QQ), Mat2.identity(QQ))
    assert eval_on_matrices(p, [x, y]) == want
    point = list(x.entries_vector()) + list(y.entries_vector())
    assert [v.evaluate(point) for v in generic_eval(p).entries()] == want.entries_vector()

    f7 = FieldSpec(7)
    p7 = p.coerce(f7)
    x7, y7 = Mat2.from_ints(f7, *ints[:4]), Mat2.from_ints(f7, *ints[4:])
    assert eval_on_matrices(p7, [x7, y7]) == \
        plain_eval(p7, [x7, y7], Mat2.zero(f7), Mat2.identity(f7))

    # the oracle's int-encoded ring over F_3, where constant terms are refused
    f3 = FieldSpec(3)
    table = get_table(f3)
    p3 = FreePoly(2, QQ, {w: c for w, c in p.terms.items() if w}).coerce(f3)
    x3, y3 = Mat2.from_ints(f3, *ints[:4]), Mat2.from_ints(f3, *ints[4:])
    got = run_plan(int_plan(p3, table), (table.encode(x3), table.encode(y3)),
                   *int_ring(table))
    assert got == table.encode(plain_eval(p3, [x3, y3], Mat2.zero(f3),
                                          Mat2.identity(f3)))

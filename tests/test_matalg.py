"""2x2 matrices: invariants, cone positions, eigenvalues in the closure."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polimage.fields import FieldSpec, QQ
from polimage.matalg import (ConeKind, Mat2, cone_classify, conjugate,
                             eigenvalues_in_closure, parse_mat2, ratio_invariant,
                             similar)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def mq(a, b, c, d):
    return Mat2.from_ints(QQ, a, b, c, d)


def test_parse_and_str():
    mt = parse_mat2("1,2;3,4", QQ)
    assert (mt.a, mt.b, mt.c, mt.d) == (1, 2, 3, 4)
    assert str(mt) == "1,2;3,4"
    with pytest.raises(ValueError):
        parse_mat2("1,2,3;4", QQ)


def test_trace_det_disc():
    mt = mq(1, 2, 3, 4)
    assert mt.trace() == 5
    assert mt.det() == -2
    assert mt.disc() == 33


def test_ratio_invariant_values():
    assert ratio_invariant(mq(1, 0, 0, 2)) == "5/2"
    assert ratio_invariant(mq(1, 0, 0, 1)) == "2"
    assert ratio_invariant(mq(1, 0, 0, -1)) == "-2"
    assert ratio_invariant(mq(0, 1, 0, 0)) == "undefined"
    assert ratio_invariant(mq(1, 0, 0, 0)) == "infinite"


def test_ratio_is_r_plus_inverse():
    # diag(r, 1) has invariant r + 1/r
    for r in (2, 3, -5, Fraction(7, 3)):
        mt = Mat2(QQ.ops.from_fraction(r), 0, 0, 1, QQ)
        assert ratio_invariant(mt) == str(Fraction(r) + 1 / Fraction(r))


def test_cone_ladder():
    assert cone_classify(mq(0, 0, 0, 0)).kind is ConeKind.ZERO
    assert cone_classify(mq(3, 0, 0, 3)).kind is ConeKind.SCALAR
    assert cone_classify(mq(0, 1, 0, 0)).kind is ConeKind.NILPOTENT
    assert cone_classify(mq(1, 0, 0, -1)).kind is ConeKind.TRACELESS_INVERTIBLE
    assert cone_classify(mq(1, 1, 0, 1)).kind is ConeKind.SCALED_UNIPOTENT
    cls = cone_classify(mq(1, 0, 0, 2))
    assert cls.kind is ConeKind.DISTINCT_EIGENVALUES
    assert cls.ratio == "5/2"


def test_cone_char2_has_no_scaled_unipotent():
    # over F2 the unipotent 1,1;0,1 has trace 0 and lands in the
    # traceless-invertible stratum instead
    mt = Mat2.from_ints(F2, 1, 1, 0, 1)
    assert cone_classify(mt).kind is ConeKind.TRACELESS_INVERTIBLE
    for x in range(16):
        digs = [(x >> k) & 1 for k in (3, 2, 1, 0)]
        kind = cone_classify(Mat2.from_ints(F2, *digs)).kind
        assert kind is not ConeKind.SCALED_UNIPOTENT


def test_cone_disjoint_and_total_over_f3():
    seen = set()
    for n in range(81):
        digs = []
        x = n
        for _ in range(4):
            x, r = divmod(x, 3)
            digs.append(r)
        kind = cone_classify(Mat2.from_ints(F3, *digs)).kind
        seen.add(kind)
    assert ConeKind.ZERO in seen and ConeKind.DISTINCT_EIGENVALUES in seen


def test_similarity():
    a = mq(1, 0, 0, 2)
    g = mq(1, 1, 0, 1)
    assert similar(a, conjugate(a, g))
    assert not similar(mq(1, 0, 0, 1), mq(1, 1, 0, 1))  # scalar vs non-scalar
    assert not similar(mq(1, 0, 0, 2), mq(2, 0, 0, 2))


def test_conjugate_preserves_invariants():
    a = mq(1, 2, 3, 4)
    g = mq(2, 1, 1, 1)
    b = conjugate(a, g)
    assert b.trace() == a.trace() and b.det() == a.det()


def test_eigenvalues_rational_rejected():
    # exact closures are only materialized over finite prime fields
    with pytest.raises(ValueError):
        eigenvalues_in_closure(mq(1, 0, 0, 2))


def test_eigenvalues_f5():
    mt = Mat2.from_ints(F5, 1, 0, 0, 2)
    assert eigenvalues_in_closure(mt) == ((1, 0), (2, 0))
    mt = Mat2.from_ints(F5, 0, 1, 1, 0)
    assert eigenvalues_in_closure(mt) == ((1, 0), (4, 0))
    # x^2 = 2 has no root in F5; the eigenvalues live upstairs
    mt = Mat2.from_ints(F5, 0, 1, 2, 0)
    ev = eigenvalues_in_closure(mt)
    assert all(len(e) == 2 for e in ev)
    assert F5.extension().ops.mul(ev[0], ev[0]) == (2, 0)


def test_eigenvalues_char2():
    # z^2 + z + 1 over F2: the roots are the two generators of F4
    mt = Mat2.from_ints(F2, 0, 1, 1, 1)
    ev = eigenvalues_in_closure(mt)
    assert sorted(ev) == [(0, 1), (1, 1)]
    ops = F2.extension().ops
    for e in ev:
        assert ops.add(ops.add(ops.mul(e, e), e), ops.one) == ops.zero


def test_eigenvalue_product_is_det():
    for mat in (Mat2.from_ints(F5, 1, 2, 3, 4), Mat2.from_ints(F3, 0, 1, 1, 0),
                Mat2.from_ints(F5, 2, 1, 0, 3), Mat2.from_ints(F2, 0, 1, 1, 1)):
        ev = eigenvalues_in_closure(mat)
        ops = mat.field.extension().ops
        assert ops.mul(ev[0], ev[1]) == (mat.det(), 0)
        assert ops.add(ev[0], ev[1]) == (mat.trace(), 0)


entries = st.integers(-6, 6)


@given(entries, entries, entries, entries)
def test_cayley_hamilton(a, b, c, d):
    mt = mq(a, b, c, d)
    ch = mt * mt - mt.scale(mt.trace()) + Mat2.identity(QQ).scale(mt.det())
    assert ch.is_zero()


@given(entries, entries, entries, entries, entries, entries, entries, entries)
def test_trace_and_det_multiplicative(a, b, c, d, e, f, g, h):
    x, y = mq(a, b, c, d), mq(e, f, g, h)
    assert (x * y).trace() == (y * x).trace()
    assert (x * y).det() == x.det() * y.det()


@given(entries, entries, entries, entries)
def test_similar_reflexive_and_ratio_constant(a, b, c, d):
    mt = mq(a, b, c, d)
    assert similar(mt, mt)
    g = mq(1, 2, 0, 1)
    assert ratio_invariant(mt) == ratio_invariant(conjugate(mt, g))

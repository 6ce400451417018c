"""Unit evaluations, trail verdicts, spans, and the decision ladders."""

import pytest
from hypothesis import given, settings, strategies as st

from polimage.classify import (SpanAnomalyError, Verdict, all_unit_tuples,
                               cells_to_mat2, check_euler, classify_general,
                               classify_multilinear, classify_semihomogeneous,
                               eval_on_units, euler_predict, format_units,
                               nondense_invariant_check, parse_units,
                               seeded_matrix_pairs, span_dimension,
                               unit_evaluations, NONDENSE_TEXT)
from polimage.fields import FieldSpec, QQ
from polimage.freealg import FreePoly, multilinearize, parse_poly, standard_poly
from polimage.generic import eval_on_matrices
from polimage.matalg import Mat2


def test_parse_units():
    assert parse_units("e12,e21") == ((1, 2), (2, 1))
    assert format_units(((1, 1), (2, 2))) == "e11,e22"
    with pytest.raises(ValueError):
        parse_units("e1,e2")


def test_eval_on_units_commutator():
    p = parse_poly("[x1,x2]", 2)
    cells = eval_on_units(p, ((1, 2), (2, 1)))
    mt = cells_to_mat2(cells, QQ)
    assert str(mt) == "1,0;0,-1"


def test_eval_on_units_matches_matrix_eval():
    p = parse_poly("[x1,x2]^2 * x1", 2)
    for units in all_unit_tuples(2):
        mats = [Mat2.unit(i, j, QQ) for i, j in units]
        assert cells_to_mat2(eval_on_units(p, units), QQ) == \
            eval_on_matrices(p, mats)


def test_euler_verdicts():
    assert euler_predict(((1, 1), (1, 2))).kind == "path"
    v = euler_predict(((1, 1), (1, 2)))
    assert (v.i, v.j) == (1, 2)
    # both total degrees are even here, yet no trail exists: the directed
    # imbalance at the two vertices is what decides
    assert euler_predict(((1, 2), (1, 2))).kind == "no_path_or_circuit"
    assert euler_predict(((1, 2), (2, 1))).kind == "circuit"


def test_check_euler_exhaustive_commutator():
    p = parse_poly("[x1,x2]", 2)
    assert all(check_euler(p, t) for t in all_unit_tuples(2))


def test_check_euler_rejects_non_multilinear():
    with pytest.raises(ValueError):
        check_euler(parse_poly("x1^2", 1), ((1, 2),))


def test_span_tags():
    p = parse_poly("[x1,x2]", 2)
    res = span_dimension([v for _, v in unit_evaluations(p)])
    assert (res.dimension, res.tag) == (3, "sl2")
    res = span_dimension([v for _, v in unit_evaluations(standard_poly(4))])
    assert (res.dimension, res.tag) == (0, "zero")
    res = span_dimension([v for _, v in unit_evaluations(parse_poly("x1", 1))])
    assert (res.dimension, res.tag) == (4, "full")


def test_span_anomaly_raised():
    # a 2-dimensional span is impossible for multilinear images, so the
    # helper treats it as an error rather than inventing a name
    with pytest.raises(SpanAnomalyError):
        span_dimension([Mat2.unit(1, 2, QQ), Mat2.unit(2, 1, QQ)])


def test_classify_multilinear_verdicts():
    assert classify_multilinear(parse_poly("[x1,x2]", 2)).verdict == Verdict.SL2
    assert classify_multilinear(standard_poly(4)).verdict == Verdict.ZERO
    assert classify_multilinear(parse_poly("x1", 1)).verdict == Verdict.FULL
    lin = multilinearize(parse_poly("[x1,x2]^2", 2))
    assert classify_multilinear(lin).verdict == Verdict.SCALARS
    assert classify_multilinear(lin, char=5).verdict == Verdict.SCALARS


def test_classify_multilinear_carries_witnesses():
    out = classify_multilinear(parse_poly("[x1,x2]", 2))
    kinds = {w["kind"] for w in out.witnesses}
    assert "nonzero_value" in kinds and "non_scalar_value" in kinds


def test_classify_semihomogeneous_scalars():
    out = classify_semihomogeneous(parse_poly("[x1,x2]^2", 2), (1, 1))
    assert out.verdict == Verdict.SCALARS
    assert out.witnesses


def test_classify_semihomogeneous_sl2_via_nilpotent_witness():
    # the commutator itself: trace zero with plenty of nilpotent values
    out = classify_semihomogeneous(parse_poly("[x1,x2]", 2), (1, 1))
    assert out.verdict == Verdict.SL2
    assert out.witnesses[0]["kind"] == "nilpotent_nonzero_value"


def test_classify_semihomogeneous_undetermined():
    out = classify_semihomogeneous(parse_poly("[x1,x2]^3", 2), (1, 1),
                                   search_budget=500)
    assert out.verdict == Verdict.TRACE_ZERO_UNDETERMINED
    assert "traceless invertible" in out.note


def test_classify_semihomogeneous_dense():
    out = classify_semihomogeneous(parse_poly("[x1,x2]^2 * x1", 2), (1, 1))
    assert out.verdict == Verdict.DENSE
    wit = out.witnesses[0]
    assert wit["kind"] == "distinct_ratios"
    assert wit["ratios"][0] != wit["ratios"][1]


def test_classify_rejects_bad_weights():
    with pytest.raises(ValueError):
        classify_semihomogeneous(parse_poly("[x1,x2] + [x1,x2]^2", 2), (1, 1))


def test_classify_rejects_constant_term():
    with pytest.raises(ValueError):
        classify_general(parse_poly("x1 + 1", 1))


def test_probabilistic_mode_agrees():
    sq = parse_poly("[x1,x2]^2", 2)
    out = classify_semihomogeneous(sq, (1, 1), mode="probabilistic", trials=40)
    assert out.verdict == Verdict.SCALARS
    assert out.probe["all_central"]
    den = parse_poly("[x1,x2]^2 * x1", 2)
    out = classify_semihomogeneous(den, (1, 1), mode="probabilistic", trials=40)
    assert out.verdict == Verdict.DENSE


def test_classify_general_routing():
    # multilinear goes to the span classifier even in probabilistic mode
    out = classify_general(parse_poly("[x1,x2]", 2), mode="probabilistic")
    assert out.verdict == Verdict.SL2 and out.mode == "symbolic"
    # semi-homogeneous by inferred weights
    out = classify_general(parse_poly("[x1,x2]^2", 2))
    assert out.verdict == Verdict.SCALARS
    # top part saves the day for x1 + x1^2
    out = classify_general(parse_poly("x1 + x1^2", 1))
    assert out.verdict == Verdict.DENSE
    # but not for the gap-constrained sum
    out = classify_general(parse_poly(NONDENSE_TEXT, 2))
    assert out.verdict == Verdict.TOP_PART_INCONCLUSIVE
    assert out.probe["top_parts"][0]["top_verdict"] == "scalars"


def test_classify_general_supplied_weights():
    p = parse_poly("x1*x2^2 + x2*x1*x2", 2)
    out = classify_general(p, weights=[(1, 1)])
    assert "supplied" in " ".join(out.diagnostics)


def test_classify_char2_multilinear():
    out = classify_multilinear(parse_poly("[x1,x2]", 2), char=2)
    assert out.verdict == Verdict.SL2


def test_nondense_invariant():
    assert nondense_invariant_check(seeded_matrix_pairs(QQ, 50, seed=3))
    assert nondense_invariant_check(seeded_matrix_pairs(FieldSpec(7), 50, seed=3))
    a, b = Mat2.unit(1, 1, QQ), Mat2.unit(1, 2, QQ)
    assert nondense_invariant_check([(a, b)])
    with pytest.raises(ValueError):
        nondense_invariant_check(seeded_matrix_pairs(FieldSpec(2), 1, seed=0))


def test_image_class_json_shape():
    out = classify_general(parse_poly("[x1,x2]", 2)).to_json()
    for key in ("verdict", "assumptions", "witnesses", "mode", "seed",
                "budget_consumed", "diagnostics"):
        assert key in out


units_strategy = st.tuples(st.integers(1, 2), st.integers(1, 2))


@settings(max_examples=50)
@given(st.tuples(units_strategy, units_strategy, units_strategy, units_strategy))
def test_s4_obeys_euler_everywhere(units):
    assert check_euler(standard_poly(4), units)


@settings(max_examples=50)
@given(st.lists(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
                min_size=2, max_size=2))
def test_unit_eval_agrees_with_matrices_on_commutator(us):
    p = parse_poly("[x1,x2]", 2)
    units = tuple(us)
    mats = [Mat2.unit(i, j, QQ) for i, j in units]
    assert cells_to_mat2(eval_on_units(p, units), QQ) == eval_on_matrices(p, mats)


@st.composite
def multilinear_polys(draw):
    """A multilinear p over Q, F3, F4 or F7^2 with m <= 5: few words, each
    drawn maybe more than once, with small coefficients that often cancel
    within a word or within a unit value."""
    field = draw(st.sampled_from([QQ, FieldSpec(3), FieldSpec(2, 2), FieldSpec(7, 2)]))
    m = draw(st.integers(1, 5))
    p = FreePoly.zero(m, field)
    for _ in range(draw(st.integers(0, 6))):
        word = tuple(draw(st.permutations(range(1, m + 1))))
        c = field.ops.from_int(draw(st.sampled_from([1, -1, 2, -2, 3])))
        p = p + FreePoly(m, field, {word: c})
    return p


@settings(max_examples=80, deadline=None)
@given(multilinear_polys())
def test_unit_evaluations_walk_equals_every_tuple(p):
    expected = []
    for t in all_unit_tuples(p.m):
        value = cells_to_mat2(eval_on_units(p, t), p.field)
        if not value.is_zero():
            expected.append((t, value))
    assert unit_evaluations(p) == expected
    if p.field.degree == 1:
        assert classify_multilinear(p, p.field.char).budget_consumed["unit_tuples"] \
            == 4 ** p.m


@pytest.mark.parametrize("text, m", [("x1^2", 1), ("x1*x2 + x1", 2), ("x1*x1*x2", 2)])
def test_unit_evaluations_refuse_non_multilinear(text, m):
    with pytest.raises(ValueError):
        unit_evaluations(parse_poly(text, m))


def test_unit_evaluations_budget_refused_up_front():
    p = parse_poly("*".join(f"x{i}" for i in range(1, 12)), 11)
    with pytest.raises(ValueError, match="4194304 unit tuples exceed the budget 1048576"):
        unit_evaluations(p)

"""Exhaustive images over tiny fields, and the two methods against each other."""

import random
from itertools import product

import pytest

from polimage.classify import classify_general
from polimage.fields import FieldSpec, QQ
from polimage.freealg import multilinearize, parse_poly, standard_poly
from polimage.oracle import (EnumerationBudgetError, check_image_invariance,
                             conjugacy_reps, cross_check,
                             enumerate_image, expand_span, fast_multilinear_image,
                             get_table, naive_image, rref_rows,
                             scaling_closed_under, verify_alternating_trace)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def test_table_group_laws():
    t = get_table(F3)
    assert len(t.gl2()) == 48
    for g, gi in t.gl2()[:10]:
        assert t.mul(g, gi) == t.identity_idx
    # encode and decode are inverse bijections
    for x in (0, 1, 40, 80):
        assert t.encode(t.decode(x)) == x


def test_conjugacy_reps_count():
    # q scalar classes plus q^2 companion classes
    assert len(conjugacy_reps(get_table(F2))) == 6
    assert len(conjugacy_reps(get_table(F3))) == 12


def test_reps_cover_all_classes():
    t = get_table(F3)
    reps = conjugacy_reps(t)
    orbit = set()
    for r in reps:
        for g, gi in t.gl2():
            orbit.add(t.conj(g, gi, r))
    assert orbit == set(range(t.n4))


def test_rref_dedupes_subspaces():
    t = get_table(F3)
    e12, e21 = t.units[(1, 2)], t.units[(2, 1)]
    k1 = rref_rows(t, [e12, e21])
    k2 = rref_rows(t, [t.add(e12, e21), e21])  # same span, different basis
    assert k1 == k2
    assert len(expand_span(t, k1)) == 9


def test_commutator_image_is_traceless():
    for field, size in ((F2, 8), (F3, 27)):
        t = get_table(field)
        ni = naive_image(parse_poly("[x1,x2]", 2), field)
        fi = fast_multilinear_image(parse_poly("[x1,x2]", 2), field)
        assert ni == fi
        assert len(ni) == size
        assert ni == {x for x in range(t.n4) if t.trace_idx(x) == 0}


def test_naive_equals_fast_battery():
    cases = [
        (parse_poly("x1", 1), F2), (parse_poly("x1", 1), F3),
        (parse_poly("x1", 1), F5), (parse_poly("x1*x2", 2), F3),
        (multilinearize(parse_poly("[x1,x2]^2", 2)), F2),
        (standard_poly(4), F2),
    ]
    for p, field in cases:
        assert naive_image(p, field) == fast_multilinear_image(p, field)


def test_fast_requires_multilinear():
    with pytest.raises(ValueError):
        fast_multilinear_image(parse_poly("[x1,x2]^2", 2), F2)


def test_budget_refusal():
    with pytest.raises(EnumerationBudgetError) as e:
        naive_image(standard_poly(4), F3, tuple_budget=10 ** 6)
    assert e.value.estimate == 3 ** 16
    with pytest.raises(EnumerationBudgetError):
        fast_multilinear_image(standard_poly(4), F3, tuple_budget=10)


def test_enumerate_report_shape():
    rep = enumerate_image(parse_poly("[x1,x2]", 2), F3)
    assert rep.method == "fast"
    assert rep.size == 27 and rep.span_tag == "sl2"
    assert rep.contains_zero and rep.conjugation_closed and rep.scaling_closed
    assert rep.cone_counts == {"nilpotent": 8, "traceless_invertible": 18,
                               "zero": 1}
    js = rep.to_json()
    assert "elapsed" not in js
    assert len(js["elements"]) == 27


def test_enumerate_square_images():
    rep = enumerate_image(parse_poly("[x1,x2]^2", 2), F3)
    assert rep.method == "naive"
    assert rep.size == 3 and rep.span_tag == "scalars"
    rep = enumerate_image(parse_poly("[x1,x2]^3", 2), F3)
    # no nonzero nilpotent values: the cone misses that stratum entirely
    assert rep.cone_counts == {"traceless_invertible": 18, "zero": 1}


def test_oracle_q_cap():
    with pytest.raises(ValueError):
        get_table(FieldSpec(3, 2))  # q = 9 needs tables past the cap
    with pytest.raises(ValueError):
        get_table(QQ)


def test_extension_field_table():
    t = get_table(FieldSpec(2, 2))  # F4 fits
    assert t.q == 4 and t.n4 == 256
    p = parse_poly("[x1,x2]", 2)
    img = fast_multilinear_image(p, FieldSpec(2, 2))
    assert len(img) == 64  # all traceless matrices over F4
    assert img == {x for x in range(t.n4) if t.trace_idx(x) == 0}


def test_cross_check_agreement():
    cases = [
        (parse_poly("[x1,x2]", 2), F3, "sl2"),
        (standard_poly(4), F2, "zero"),
        (multilinearize(parse_poly("[x1,x2]^2", 2)), F2, "scalars"),
        (parse_poly("x1", 1), F3, "full"),
        (parse_poly("[x1,x2]^2", 2), F3, "scalars"),
    ]
    for p, field, expected in cases:
        verdict = classify_general(p, char=0).verdict
        assert verdict == expected
        out = cross_check(p, field, verdict)
        assert out["ok"], out["checks"]


def test_scaling_subgroup_check():
    img = naive_image(parse_poly("[x1,x2]^3", 2), F3)
    t = get_table(F3)
    # cube scaling exponent 3 generates the full unit group when gcd(3, q-1)=1
    assert scaling_closed_under(img, t, 3)
    assert scaling_closed_under(img, t, 1)


def test_alternating_trace_identity():
    rep = verify_alternating_trace(FieldSpec(101), trials=10, seed=2)
    assert rep.ok
    assert rep.matches_trace_factor and rep.matches_identity_factor
    assert rep.linear_in_t
    js = rep.to_json()
    assert js["factor_model"] == "2*tr(T)" and js["identity_factor"] == "4"


def test_alternating_trace_rational():
    assert verify_alternating_trace(QQ, trials=2, seed=0).ok


def _closed_under_whole_group(image, t):
    return all(t.conj(g, gi, x) in image for g, gi in t.gl2() for x in image)


def test_invariance_on_generators_matches_whole_group():
    rng = random.Random(5)
    for field in (F2, F3, FieldSpec(2, 2), F5):
        t = get_table(field)
        e12 = t.units[(1, 2)]
        # the SL_2 orbit of e12 is the whole nilpotent class only when
        # every element is a square (q even)
        sl2_orbit = {0} | {t.conj(g, gi, e12) for g, gi in t.gl2()
                           if t.det_idx(g) == t.one_idx}
        images = [naive_image(parse_poly("x1^2", 1), field),
                  fast_multilinear_image(parse_poly("[x1,x2]", 2), field),
                  {0, t.identity_idx}, sl2_orbit]
        sets = list(images)
        for image in images:
            for _ in range(5):
                sets.append(image | {rng.randrange(t.n4)})
                sets.append(image - {rng.choice(sorted(image))})
        verdicts = set()
        for s in sets:
            closed = check_image_invariance(s, t)["conjugation_closed"]
            assert closed == _closed_under_whole_group(s, t), (str(field), sorted(s))
            verdicts.add(closed)
        assert verdicts == {True, False}


def test_square_image_over_f7_lazy_table():
    # q = 7 is past MAX_TABLE_Q, so products come from the lazy caches
    t = get_table(FieldSpec(7))
    assert t._mmul is None
    squares = set()
    for a, b, c, d in product(range(7), repeat=4):
        squares.add(((a * a + b * c) % 7, (a * b + b * d) % 7,
                     (c * a + d * c) % 7, (c * b + d * d) % 7))
    p = parse_poly("x1^2", 1)
    assert {t.digits(x) for x in naive_image(p, FieldSpec(7))} == squares
    rep = enumerate_image(p, FieldSpec(7))
    assert rep.size == len(squares) == 865
    assert rep.contains_zero and rep.conjugation_closed

"""Acceptance battery.

One test per criterion, each printing a single PASS line with its elapsed
time, and failing loudly otherwise.  Time limits are part of the contract,
so every criterion asserts its own wall clock.
"""

import hashlib
import json
import time
from itertools import product

import pytest

from polimage.classify import (all_unit_tuples, check_euler, classify_general,
                               classify_semihomogeneous, nondense_invariant_check,
                               seeded_matrix_pairs)
from polimage.corpus import run_corpus
from polimage.fields import FieldSpec, QQ
from polimage.freealg import capelli_poly, multilinearize, parse_poly, standard_poly
from polimage.matalg import Mat2, eigenvalues_in_closure, ratio_invariant
from polimage.oracle import (enumerate_image, fast_multilinear_image, get_table,
                             naive_image, scaling_closed_under,
                             verify_alternating_trace)

F2, F3, F5, F7 = FieldSpec(2), FieldSpec(3), FieldSpec(5), FieldSpec(7)

# SHA-256 of the corpus JSON (12,222 bytes); pins the bytes across commits
CORPUS_SHA256 = "042802d73f7be986727d4ead570980bbad22b7d754a15a2997ea46f1ad7072db"

_corpus_cache: dict = {}


def _corpus_run():
    if "first" not in _corpus_cache:
        t0 = time.monotonic()
        result = run_corpus()
        _corpus_cache["first"] = result
        _corpus_cache["elapsed"] = time.monotonic() - t0
        _corpus_cache["bytes"] = json.dumps(result, sort_keys=True,
                                            separators=(",", ":"))
    return _corpus_cache


def _criterion(n, desc, limit, fn):
    t0 = time.monotonic()
    try:
        fn()
    except BaseException:
        print(f"FAIL criterion {n}: {desc}")
        raise
    dt = time.monotonic() - t0
    assert dt < limit, f"criterion {n} took {dt:.1f}s, limit {limit}s"
    print(f"PASS criterion {n}: {desc} ({dt:.1f}s / limit {limit}s)")


def test_criterion_1_corpus_rederives():
    def body():
        cache = _corpus_run()
        result = cache["first"]
        assert result["ok"], result["mismatches"]
        assert result["total"] == 9
        assert cache["elapsed"] < 30, f"corpus run {cache['elapsed']:.1f}s"
    _criterion(1, "all 9 corpus entries re-derive their pinned verdicts "
                  "and side checks in under 30s", 35, body)


def test_criterion_2_oracle_methods_agree():
    def body():
        comm = parse_poly("[x1,x2]", 2)
        for field, size in ((F2, 8), (F3, 27)):
            ni = naive_image(comm, field)
            assert ni == fast_multilinear_image(comm, field)
            assert len(ni) == size
            t = get_table(field)
            assert ni == {x for x in range(t.n4) if t.trace_idx(x) == 0}
        battery = [
            (parse_poly("x1", 1), F2), (parse_poly("x1", 1), F3),
            (parse_poly("x1", 1), F5), (parse_poly("x1*x2", 2), F3),
            (standard_poly(4), F2),
            (multilinearize(parse_poly("[x1,x2]^2", 2)), F2),
        ]
        for p, field in battery:
            assert naive_image(p, field) == fast_multilinear_image(p, field)
    _criterion(2, "naive and subspace enumerations agree; commutator image "
                  "is exactly the 8 (F2) and 27 (F3) traceless matrices", 60, body)


def test_criterion_3_euler_exhaustive():
    def body():
        for p in (parse_poly("[x1,x2]", 2), standard_poly(4),
                  multilinearize(parse_poly("[x1,x2]^2", 2)), capelli_poly(4)):
            assert all(check_euler(p, t) for t in all_unit_tuples(p.m))
    _criterion(3, "every matrix-unit evaluation of the multilinear battery "
                  "obeys its trail verdict (16 + 256 + 256 + 16384 tuples)",
               10, body)


def test_criterion_4_image_invariance_and_cone_closure():
    def body():
        # (poly, scaling exponent; None = no homogeneity-forced closure)
        cases = [
            (parse_poly("[x1,x2]", 2), 1),
            (parse_poly("[x1,x2]^2", 2), 2),
            (parse_poly("[x1,x2]^3", 2), 3),
            (parse_poly("[x1,x2]^2 * x1", 2), 1),
            (parse_poly("[x1,x2] + [x1,x2]^2", 2), None),
            (parse_poly("x1", 1), 1),
        ]
        extra_f2 = [(standard_poly(4), 1),
                    (multilinearize(parse_poly("[x1,x2]^2", 2)), 1)]
        for field, extra in ((F2, extra_f2), (F3, [])):
            table = get_table(field)
            for p, exponent in cases + extra:
                rep = enumerate_image(p, field)
                assert rep.contains_zero, (str(field), p)
                assert rep.conjugation_closed, (str(field), p)
                if exponent is not None:
                    image = (fast_multilinear_image(p, field)
                             if p.is_multilinear() else naive_image(p, field))
                    assert scaling_closed_under(image, table, exponent)
    _criterion(4, "every enumerated image contains 0, is closed under "
                  "conjugation, and under the scaling subgroup its "
                  "homogeneity forces (exhaustive over F2 and F3)", 60, body)


def test_criterion_5_ratio_invariant_consistency():
    def body():
        for field in (F5, F7):
            mats = [Mat2(a, b, c, d, field)
                    for a, b, c, d in product(field.raw_elements(), repeat=4)]
            groups: dict = {}
            for mt in mats:
                key = (mt.trace(), mt.det(), mt.is_scalar())
                groups.setdefault(key, []).append(ratio_invariant(mt))
            for key, keys in groups.items():
                assert len(set(keys)) == 1, key
            # on invertible split matrices the invariant separates exactly
            # the unordered eigenvalue-ratio pairs {r, 1/r}
            mapping: dict = {}
            ops = field.extension().ops
            for mt in mats:
                if mt.disc() == 0 or mt.det() == 0:
                    continue
                ev = eigenvalues_in_closure(mt)
                r = ops.div(ev[0], ev[1])
                pair = frozenset((r, ops.inv(r)))
                mapping.setdefault(ratio_invariant(mt), set()).add(pair)
            assert all(len(v) == 1 for v in mapping.values())
            pairs = [next(iter(v)) for v in mapping.values()]
            assert len(set(pairs)) == len(pairs)
    _criterion(5, "the eigenvalue-ratio invariant is constant on similarity "
                  "classes and bijective with the ratio pairs {r, 1/r} "
                  "(all matrices over F5 and F7)", 10, body)


def test_criterion_6_alternating_trace():
    def body():
        rep = verify_alternating_trace(FieldSpec(101), trials=100, seed=0)
        assert rep.ok, rep.failures[:3]
    _criterion(6, "substitution sum over the 4 slots equals 2 tr(T) times "
                  "the alternating value, 100 random trials over F101", 5, body)


def test_criterion_7_nondense_gap_invariant():
    def body():
        assert nondense_invariant_check(seeded_matrix_pairs(QQ, 100, seed=11))
        assert nondense_invariant_check(
            seeded_matrix_pairs(FieldSpec(101), 100, seed=11))
        a, b = Mat2.unit(1, 1, QQ), Mat2.unit(1, 2, QQ)
        assert nondense_invariant_check([(a, b)])
    _criterion(7, "disc = 2 tr holds for the gap-constrained sum on 100 "
                  "rational and 100 F101 random pairs", 5, body)


def test_criterion_8_cross_mode_agreement():
    def body():
        cases = [
            ("[x1,x2]^2", "scalars"),
            ("[x1,x2]^2 * x1", "dense"),
            ("[x1,x2]^3", "trace_zero_undetermined"),
        ]
        for text, expected in cases:
            p = parse_poly(text, 2)
            sym = classify_semihomogeneous(p, (1, 1), mode="symbolic",
                                           search_budget=1500)
            prob = classify_semihomogeneous(p, (1, 1), mode="probabilistic",
                                            trials=120, search_budget=1500)
            assert sym.verdict == expected, text
            assert prob.verdict == expected, text
    _criterion(8, "symbolic and probabilistic classification agree on every "
                  "input both can decide", 30, body)


def test_criterion_9_corpus_bytes_stable():
    def body():
        cache = _corpus_run()
        again = json.dumps(run_corpus(), sort_keys=True, separators=(",", ":"))
        assert again == cache["bytes"]
        assert hashlib.sha256(again.encode()).hexdigest() == CORPUS_SHA256
    _criterion(9, "corpus JSON is byte-identical across independent runs "
                  "and to the pinned digest", 45, body)

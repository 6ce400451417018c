"""The four workloads: fixed sequences of polimage commands and their checks.

A workload is built from a seed.  The seed is passed to ``--seed`` of
``classify`` and ``verify``, and it draws a nonzero integer coefficient c
for every parsed input, which is sent as ``c*(text)``.  Scaling by a
nonzero constant leaves every verdict, every witness-hunt decision and
every image size unchanged, so the work per seed stays the same while the
printed values (and the image sets over F_p) change with it.

Every expected result is computed by :mod:`refcheck`, which does not use
polimage; each table row states the reason the result is what it is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import refcheck as rc
from refcheck import QQ, require


@dataclass
class Command:
    label: str
    args: list[str]
    check: Callable[[dict], None]


# -- classify-semihomog ---------------------------------------------------------------

# (input, m, verdict, reason)
SEMIHOMOG = [
    ("[x1*x2,x3]^4", 3, "scalars",
     "C^2 = -det(C) I for traceless C, so a commutator's fourth power is central"),
    ("[x1,x2]^2*[x3,x4]^2", 4, "scalars", "a product of two central values"),
    ("[x1,x2]^4", 2, "scalars", "C^4 = det(C)^2 I"),
    ("[x1*x2,x3]^2", 3, "scalars", "the square of a traceless value is central"),
    ("[x1,x2]^2+[x1,x3]^2", 3, "scalars", "a sum of two central values"),
    ("[x1,x2]^2*x1", 2, "dense",
     "-det([x1,x2]) x1: the eigenvalue ratio of x1 is free, so two ratios occur"),
    ("x1^2", 1, "dense", "squares of diagonal matrices have every ratio"),
    ("x1^3+x2^3", 2, "dense", "setting x2 = 0 gives x1^3, whose ratio varies"),
    ("[x1,x2]^4+[x1,x2]^2*x1*x2", 2, "top_part_inconclusive",
     "degrees 8 and 6 under (1,1) and no positive weights equalise them; the "
     "top part [x1,x2]^4 is central, so the top-part rule decides nothing"),
]

# the kinds of witness a multilinear verdict must print, and may not print
_WITNESS_KINDS = {
    "zero": (set(), {"nonzero_value", "non_scalar_value", "nonzero_trace_value"}),
    "scalars": ({"nonzero_value"}, {"non_scalar_value"}),
    "sl2": ({"nonzero_value", "non_scalar_value"}, {"nonzero_trace_value"}),
    "full": ({"nonzero_value", "non_scalar_value", "nonzero_trace_value"}, set()),
}


def _coefficient(rng: random.Random, char: int) -> int:
    return rng.randint(1, 9) if char == 0 else rng.randint(1, char - 1)


def _scaled_text(text: str, c: int) -> str:
    return f"{c}*({text})"


def _classify_doc(doc: dict, text: str, m: int, seed: int) -> dict:
    require(doc.get("command") == "classify", "not a classify document")
    require(doc.get("input") == text and doc.get("m") == m,
            f"input echoed as {doc.get('input')!r} with m={doc.get('m')}")
    res = doc["result"]
    require(res.get("seed") == seed, f"seed echoed as {res.get('seed')}")
    return res


def _derive_semihomog(name: str, verdict: str, c: int, rng: random.Random):
    """Confirm the stated reason on seeded sample points of our own."""
    if verdict == "scalars":
        vals = rc.sample_values(QQ, name, c, rng, 3)
        ok = all(v.is_scalar() for v in vals) and any(not v.is_zero() for v in vals)
    elif verdict == "dense":
        ok = rc.distinct_ratio_pair(QQ, rc.sample_values(QQ, name, c, rng, 6))
    else:
        top = "[x1,x2]^4"
        vals = rc.sample_values(QQ, top, c, rng, 3)
        ok = all(v.is_scalar() for v in vals)
    if not ok:
        raise RuntimeError(f"the reference does not support {verdict} for {name}")


def classify_semihomog(seed: int) -> list[Command]:
    rng = random.Random(f"classify-semihomog:{seed}")
    out = []
    for name, m, verdict, _reason in SEMIHOMOG:
        c = _coefficient(rng, 0)
        _derive_semihomog(name, verdict, c, rng)
        text = _scaled_text(name, c)

        def check(doc, name=name, m=m, verdict=verdict, c=c, text=text):
            res = _classify_doc(doc, text, m, seed)
            require(res["verdict"] == verdict,
                    f"{name}: verdict {res['verdict']}, expected {verdict}")
            kinds = [w["kind"] for w in res["witnesses"]]
            want = {"scalars": ["nonzero_value"], "dense": ["distinct_ratios"],
                    "top_part_inconclusive": []}[verdict]
            require(kinds == want, f"{name}: witnesses {kinds}, expected {want}")
            for w in res["witnesses"]:
                rc.check_witness(QQ, name, c, w)
                if verdict == "scalars":
                    require(rc.parse_matrix(QQ, w["value"]).is_scalar(),
                            f"{name}: a value of a central polynomial is not scalar")
        out.append(Command(name, ["classify", text, "-m", str(m), "--seed", str(seed)],
                           check))
    return out


# -- classify-multilinear ---------------------------------------------------------------

# (input, char, parsed?, how the verdict is decided)
MULTILINEAR = [
    ("s2", 0, False, "span"), ("s3", 0, False, "span"), ("s4", 0, False, "span"),
    ("s5", 0, False, "amitsur-levitzki"),
    ("c2", 0, False, "span"), ("c3", 0, False, "span"), ("c4", 0, False, "span"),
    ("s3", 3, False, "span"),
    ("[x1,x2]*[x3,x4]", 0, True, "span"),
    ("[x1,x2]*[x3,x4]+[x3,x4]*[x1,x2]", 0, True, "span"),
    ("[[x1,x2],x3]", 0, True, "span"),
    ("[[x1,x2],[x3,x4]]", 0, True, "span"),
    ("x1*x2*x3*x4*x5*x6", 0, True, "span"),
]


def multilinear_verdict(name: str, char: int, how: str) -> str:
    """The image of a multilinear polynomial is named by the span of its
    unit values; s_k for k >= 4 vanishes on M_2 (Amitsur-Levitzki)."""
    if how == "amitsur-levitzki":
        return "zero"
    F = QQ if char == 0 else rc.PrimeField(char)
    dim, tag = rc.unit_span(F, name)
    if tag == "other":
        raise RuntimeError(f"{name}: unit span of dimension {dim} is not admissible")
    return tag


def check_multilinear_result(res: dict, F, name: str, c: int, verdict: str):
    require(res["verdict"] == verdict, f"{name}: verdict {res['verdict']}, expected {verdict}")
    kinds = {w["kind"] for w in res["witnesses"]}
    need, banned = _WITNESS_KINDS[verdict]
    require(need <= kinds and not (kinds & banned),
            f"{name}: witness kinds {sorted(kinds)} do not fit {verdict}")
    for w in res["witnesses"]:
        rc.check_witness(F, name, c, w)


def classify_multilinear(seed: int) -> list[Command]:
    rng = random.Random(f"classify-multilinear:{seed}")
    out = []
    for name, char, parsed, how in MULTILINEAR:
        verdict = multilinear_verdict(name, char, how)
        F = QQ if char == 0 else rc.PrimeField(char)
        m = rc.POLYS[name][0]
        c = _coefficient(rng, char) if parsed else 1
        text = _scaled_text(name, c) if parsed else name
        args = ["classify", text] + (["-m", str(m)] if parsed else [])
        if char:
            args += ["--char", str(char)]
        args += ["--seed", str(seed)]

        def check(doc, name=name, m=m, c=c, text=text, F=F, verdict=verdict):
            res = _classify_doc(doc, text, m, seed)
            check_multilinear_result(res, F, name, c, verdict)
        out.append(Command(name if not char else f"{name} char {char}", args, check))
    return out


# -- enumerate --------------------------------------------------------------------------

# (input, q, method, reference)
ENUMERATE = [
    ("[x1,x2]", 4, None, "traceless"),
    ("[x1,x2]", 7, None, "brute"),
    ("[[x1,x2],x3]", 3, None, "brute"),
    ("[[x1,x2],x3]", 4, None, "commutators-of-traceless"),
    ("s4", 2, None, "amitsur-levitzki"),
    ("[x1,x2]", 4, "naive", "brute"),
    ("[x1,x2]^2", 3, None, "brute"),
    ("[x1,x2]^3", 3, None, "brute"),
    ("[x1,x2]^2*x1", 3, None, "brute"),
]
ELEMENTS_LIMIT = 1000


def reference_image(name: str, q: int, c: int, how: str) -> set[int]:
    """Brute force over every argument tuple for prime fields, or a
    classical theorem:
      traceless                  every traceless 2x2 matrix is a commutator
      commutators-of-traceless   [[x1,x2],x3] = [T, x3] with T = [x1,x2]
                                 running over all traceless T (same theorem)
      amitsur-levitzki           s4 vanishes on M_2 over any field
    """
    F = rc.field_for_order(q)
    m, f = rc.scaled(name, c)
    if how == "brute":
        return rc.brute_image(F, f, m)
    if how == "traceless":
        return rc.traceless(F)
    if how == "commutators-of-traceless":
        return rc.brute_image(F, rc.comm, 2, first=rc.traceless(F))
    if how == "amitsur-levitzki":
        return {0}
    raise ValueError(how)


def check_enumeration(report: dict, F, expected: set[int], m: int, method: str):
    require(report["q"] == F.q and report["m"] == m, "field or arity echoed wrongly")
    require(report["method"] == method, f"method {report['method']}, expected {method}")
    require(report["size"] == len(expected),
            f"image size {report['size']}, brute force gives {len(expected)}")
    require("elements" in report, "the element list is missing")
    rc.check_image_elements(F, expected, report["elements"])
    mats = [rc.decode(F, x) for x in sorted(expected)]
    dim, tag = rc.span_tag(F, mats)
    require((report["span_dim"], report["span_tag"]) ==
            (dim, tag if tag != "other" else f"subspace_dim_{dim}"),
            f"span {report['span_dim']}/{report['span_tag']}, expected {dim}/{tag}")
    counts: dict[str, int] = {}
    for mt in mats:
        k = rc.cone_kind(F, mt)
        counts[k] = counts.get(k, 0) + 1
    require(report["cone_counts"] == counts,
            f"cone counts {report['cone_counts']}, expected {counts}")
    require(report["contains_zero"] is (0 in expected), "contains_zero is wrong")
    # p(g X g^-1) = g p(X) g^-1, so every image is closed under conjugation
    require(report["conjugation_closed"] is True, "image reported not conjugation closed")
    closed = all(int(rc.encode(F, mt.scale(s))) in expected
                 for s in range(1, F.q) for mt in mats)
    require(report["scaling_closed"] is closed, "scaling_closed is wrong")


def enumerate_workload(seed: int) -> list[Command]:
    rng = random.Random(f"enumerate:{seed}")
    out = []
    for name, q, method, how in ENUMERATE:
        F = rc.field_for_order(q)
        builtin = name[0] in "sc" and name[1:].isdigit()
        # over F_4 an integer coefficient lands in F_2, where only 1 is nonzero
        c = 1 if builtin or q == 4 else _coefficient(rng, q)
        m = rc.POLYS[name][0]
        expected = reference_image(name, q, c, how)
        text = name if builtin else _scaled_text(name, c)
        args = ["enumerate", text] + ([] if builtin else ["-m", str(m)]) + ["-q", str(q)]
        if method:
            args += ["--method", method]
        args += ["--elements-limit", str(ELEMENTS_LIMIT)]
        # multilinear inputs take the subspace method unless told otherwise
        used = method or ("fast" if name in ("[x1,x2]", "[[x1,x2],x3]", "s4") else "naive")

        def check(doc, text=text, F=F, expected=expected, m=m, used=used):
            require(doc.get("command") == "enumerate" and doc.get("input") == text,
                    "not the enumerate document for this input")
            check_enumeration(doc["report"], F, expected, m, used)
        label = f"{name} q={q}" + (f" {method}" if method else "")
        out.append(Command(label, args, check))
    return out


# -- selfcheck --------------------------------------------------------------------------

# name -> (expected verdict, reference polynomial, field of the witnesses, reason)
CORPUS = {
    "commutator": ("sl2", "[x1,x2]", "Q",
                   "every traceless 2x2 matrix is a commutator"),
    "standard-s4": ("zero", "s4", "Q", "Amitsur-Levitzki"),
    "coordinate": ("full", "x1", "Q", "x1 takes every value"),
    "commutator-square-linearized": ("scalars", "lin-comm-sq", "Q",
                                     "the linearization of a central polynomial is central"),
    "commutator-square": ("scalars", "[x1,x2]^2", "Q", "C^2 = -det(C) I"),
    "commutator-square-times-x1": ("dense", "[x1,x2]^2*x1", "Q",
                                   "-det([x1,x2]) x1 takes two eigenvalue ratios"),
    "commutator-cube": ("trace_zero_undetermined", "[x1,x2]^3", "Q",
                        "C^3 = -det(C) C is traceless and nilpotent only when zero, "
                        "so the nilpotent hunt finds nothing"),
    "cone-product": ("dense", "cone-product", "probe",
                     "two eigenvalue ratios occur among the probe values"),
    "nondense": ("top_part_inconclusive", "[x1,x2] + [x1,x2]^2", "Q",
                 "disc = 2 tr on every value pins the eigenvalue gap"),
}

# oracle side checks of the corpus: (entry, q) -> reference image
_CORPUS_ORACLE = [
    ("commutator", 2, "[x1,x2]", "traceless"), ("commutator", 3, "[x1,x2]", "traceless"),
    ("standard-s4", 2, "s4", "amitsur-levitzki"),
    ("coordinate", 2, "x1", "brute"), ("coordinate", 3, "x1", "brute"),
    ("commutator-square-linearized", 2, "lin-comm-sq", "brute"),
    ("commutator-square", 2, "[x1,x2]^2", "brute"),
    ("commutator-square", 3, "[x1,x2]^2", "brute"),
]

_PROBE_KINDS = {"nonzero": "nonzero_value", "non_central": "non_scalar_value",
                "nonzero_trace": "nonzero_trace_value",
                "nilpotent_nonzero": "nilpotent_nonzero_value"}


def _corpus_reference() -> dict:
    ref = {}
    for entry, q, name, how in _CORPUS_ORACLE:
        F = rc.field_for_order(q)
        image = reference_image(name, q, 1, how)
        dim, tag = rc.span_tag(F, [rc.decode(F, x) for x in image])
        ref[(entry, q)] = (len(image), tag)
    return ref


def check_corpus_entry(e: dict, ref: dict):
    name = e["name"]
    verdict, poly, wfield, _reason = CORPUS[name]
    require(e["verdict"] == verdict and e["expected"] == verdict,
            f"corpus {name}: verdict {e['verdict']}, expected {verdict}")
    require(e["ok"] is True and e["checks_ok"] is True, f"corpus {name} reports a failure")
    cls = e["classification"]
    F = QQ if wfield == "Q" else rc.PrimeField(cls["probe"]["prime"])
    for w in cls["witnesses"]:
        rc.check_witness(F, poly, 1, w)
    if cls.get("probe") and "witnesses" in cls["probe"]:
        for key, w in cls["probe"]["witnesses"].items():
            kind = _PROBE_KINDS.get(key, key)
            rc.check_witness(F, poly, 1, {"kind": kind, **w})
    checks = e["checks"]
    if "cross_mode" in checks:
        require(checks["cross_mode"]["verdict"] == verdict,
                f"corpus {name}: the other mode says {checks['cross_mode']['verdict']}")
    for (entry, q), want in ref.items():
        if entry != name:
            continue
        got = checks[f"oracle_F{q}"]
        require((got["size"], got["span_tag"]) == want,
                f"corpus {name}: F{q} oracle {got['size']}/{got['span_tag']}, "
                f"expected {want}")
    if name == "cone-product":
        for key, kind in (("nilpotent_witness", "nilpotent_nonzero_value"),
                          ("scalar_witness", "nonzero_value")):
            w = checks[key]
            rc.check_witness(QQ, poly, 1, {"kind": kind, **w})
        v = rc.parse_matrix(QQ, checks["scalar_witness"]["value"])
        require(v.is_scalar(), "cone-product scalar witness is not scalar")
    if name == "nondense":
        require(checks["gap_invariant"]["ok"] is True, "nondense gap invariant fails")


def check_corpus(doc: dict, entries: list[str], ref: dict):
    require(doc.get("command") == "corpus", "not a corpus document")
    names = [e["name"] for e in doc["entries"]]
    require(names == entries, f"corpus entries {names}, expected {entries}")
    for e in doc["entries"]:
        check_corpus_entry(e, ref)
    require(doc["ok"] is True and doc["mismatches"] == [], "corpus reports mismatches")


def _derive_alternating(F, rng: random.Random):
    """sum_k c4(.., T a_k, ..) = 2 tr(T) c4(..): left multiplication by T on
    the 4-dimensional space M_2 has trace 2 tr(T), and c4 is 4-alternating."""
    m, c4 = rc.POLYS["c4"]
    draw = lambda: rc.M.ints(F, *(rng.randint(-9, 9) for _ in range(4)))  # noqa: E731
    a, r, t = [draw() for _ in range(4)], [draw() for _ in range(3)], draw()
    base = c4(*a, *r)
    total = None
    for k in range(4):
        args = list(a)
        args[k] = t * a[k]
        v = c4(*args, *r)
        total = v if total is None else total + v
    if not total == base.scale(F.mul(F.parse("2"), t.trace())):
        raise RuntimeError("the reference does not support the alternating identity")


def check_verify(doc: dict, field: str, trials: int, seed: int):
    require(doc.get("command") == "verify", "not a verify document")
    rep = doc["report"]
    require((rep["field"], rep["trials"], rep["seed"]) == (field, trials, seed),
            f"verify echoed {rep['field']}/{rep['trials']}/{rep['seed']}")
    require(rep["ok"] is True and rep["failures"] == []
            and rep["matches_trace_factor"] and rep["matches_identity_factor"]
            and rep["linear_in_t"], "verify reports a failing identity")


VERIFY = [("F101", "F101", 10), ("q", "Q", 5)]

# the corpus minus commutator-cube, one entry per command; the cube entry
# runs 16-22 s, so its witness hunt is measured by CUBE on a smaller budget
CORPUS_RUN = [name for name in CORPUS if name != "commutator-cube"]
CUBE = ("[x1,x2]^3", 2, 500)


def _check_cube(doc: dict, text: str, seed: int, c: int):
    """C^3 = -det(C) C: traceless, and nilpotent only when C^2 = 0, when it
    is 0.  So the hunt must use its whole budget and print no witness."""
    name, m, budget = CUBE
    res = _classify_doc(doc, text, m, seed)
    require(res["verdict"] == "trace_zero_undetermined",
            f"{name}: verdict {res['verdict']}, expected trace_zero_undetermined")
    require(res["witnesses"] == [], f"{name}: a nilpotent witness was printed")
    require(res["budget_consumed"].get("witness_tuples") == budget,
            f"{name}: hunt scanned {res['budget_consumed'].get('witness_tuples')} tuples")


def selfcheck(seed: int) -> list[Command]:
    rng = random.Random(f"selfcheck:{seed}")
    ref = _corpus_reference()
    out = [Command(f"corpus {entry}", ["corpus", "--only", entry],
                   lambda doc, entry=entry: check_corpus(doc, [entry], ref))
           for entry in CORPUS_RUN]
    name, m, budget = CUBE
    c = _coefficient(rng, 0)
    vals = rc.sample_values(QQ, name, c, rng, 3)
    if not all(QQ.is_zero(v.trace()) and (v.is_zero() or not QQ.is_zero(v.det()))
               for v in vals) or all(v.is_zero() for v in vals):
        raise RuntimeError("the reference does not support the commutator-cube reason")
    text = _scaled_text(name, c)
    out.append(Command(name, ["classify", text, "-m", str(m), "--search-budget",
                              str(budget), "--seed", str(seed)],
                       lambda doc: _check_cube(doc, text, seed, c)))
    for arg, shown, trials in VERIFY:
        _derive_alternating(rc.PrimeField(101) if arg == "F101" else QQ, rng)
        out.append(Command(
            f"verify {shown}",
            ["verify", "--field", arg, "--trials", str(trials), "--seed", str(seed)],
            lambda doc, shown=shown, trials=trials: check_verify(doc, shown, trials, seed)))
    return out


WORKLOADS = {
    "selfcheck": selfcheck,
    "classify-semihomog": classify_semihomog,
    "classify-multilinear": classify_multilinear,
    "enumerate": enumerate_workload,
}

# spans each workload must hit; a miss means a wrapper sits on a stale binding
REQUIRED_SPANS = {
    "selfcheck": ["corpus.run_entry", "classify.classify_general",
                  "classify.classify_semihomogeneous", "classify.classify_multilinear",
                  "generic.eval_on_matrices", "generic.generic_eval",
                  "generic.probabilistic_probe", "generic.proportionality",
                  "matalg.Mat2.mul", "oracle.cross_check",
                  "oracle.verify_alternating_trace", "freealg.capelli_poly",
                  "freealg.standard_poly", "freealg.multilinearize"],
    "classify-semihomog": ["freealg.parse_poly", "freealg.infer_weights",
                           "generic.generic_eval", "generic.ComPoly.mul",
                           "generic.eval_on_matrices", "generic.proportionality",
                           "classify.classify_general",
                           "classify.classify_semihomogeneous",
                           "matalg.ratio_invariant", "matalg.Mat2.mul"],
    "classify-multilinear": ["freealg.standard_poly", "freealg.capelli_poly",
                             "freealg.parse_poly", "classify.classify_multilinear",
                             "classify.unit_evaluations", "classify.span_dimension"],
    "enumerate": ["oracle.get_table", "oracle.naive_image",
                  "oracle.fast_multilinear_image", "oracle.check_image_invariance",
                  "oracle.build_report", "freealg.standard_poly", "matalg.cone_classify"],
}

"""Layer probes: direct timings of single public operations.

Operands are drawn once from a fixed seed, so every run times the same
work.  Each probe repeats a batch several times and reports the median
per-operation time of the batches.
"""

from __future__ import annotations

import random
import statistics
import time

PROBE_SEED = 20100501
REPEATS = 7


def _per_op(fn, items, unit: float) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for it in items:
            fn(it)
        times.append((time.perf_counter() - t0) / len(items))
    return statistics.median(times) / unit


def run_probes() -> dict[str, tuple[float, str]]:
    """Time fields, matalg and generic operations; polimage must be importable."""
    from fractions import Fraction

    from polimage.fields import QQ, FieldSpec, Scalar
    from polimage.freealg import parse_poly
    from polimage.generic import generic_eval
    from polimage.matalg import Mat2

    rng = random.Random(PROBE_SEED)
    fields = {"Q": QQ, "Fp": FieldSpec(101), "Fp2": FieldSpec(101, 2)}

    def draw(f):
        if f.char == 0:
            return Scalar(f, Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 99)))
        if f.degree == 1:
            return Scalar(f, rng.randrange(1, f.char))
        return Scalar(f, (rng.randrange(f.char), rng.randrange(1, f.char)))

    out: dict[str, tuple[float, str]] = {}
    ns, us, ms = 1e-9, 1e-6, 1e-3
    for tag, f in fields.items():
        pairs = [(draw(f), draw(f)) for _ in range(4000)]
        out[f"fields.add_ns.{tag}"] = (_per_op(lambda ab: ab[0] + ab[1], pairs, ns), "ns")
        out[f"fields.mul_ns.{tag}"] = (_per_op(lambda ab: ab[0] * ab[1], pairs, ns), "ns")
        out[f"fields.inverse_ns.{tag}"] = (_per_op(lambda ab: ab[0].inverse(), pairs, ns),
                                           "ns")
    for tag in ("Q", "Fp"):
        f = fields[tag]
        pairs = [(Mat2(*(draw(f) for _ in range(4))), Mat2(*(draw(f) for _ in range(4))))
                 for _ in range(1000)]
        out[f"matalg.mat2_mul_us.{tag}"] = (_per_op(lambda ab: ab[0] * ab[1], pairs, us), "us")
    # one fixed pair of generic-evaluation entries: a and d of [x1,x2]^3
    g = generic_eval(parse_poly("[x1,x2]^3", 2))
    out["generic.compoly_mul_ms"] = (_per_op(lambda ab: ab[0].mul(ab[1]), [(g.a, g.d)] * 3,
                                             ms), "ms")
    return out

"""Run one polimage command with a span around every public layer function.

Usage: python3 tracer.py OUT.json polimage-args...

The wrappers are installed from outside: every attribute of a polimage.*
module (and every value of a module-level dict) that is bound to a traced
function is replaced by the wrapper, because classify, oracle, corpus and
cli import functions by name.  Methods are wrapped on their classes.

Spans are appended to flat arrays in memory (parent, name, start, end).
When the command ends, self time is computed from the span tree, folded per
span name, and written to OUT.json together with the per-entry times of
``corpus.run_entry`` and the witness-evaluation count.  The command's own
stdout is untouched.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import array  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

# module.function or module.Class.method; the method names the Python
# attribute that implements it where that differs
SPANS = {
    "freealg.parse_poly": None, "freealg.standard_poly": None,
    "freealg.capelli_poly": None, "freealg.multilinearize": None,
    "freealg.infer_weights": None,
    "generic.generic_eval": None, "generic.ComPoly.mul": None,
    "generic.eval_on_matrices": None, "generic.probabilistic_probe": None,
    "generic.proportionality": None,
    "matalg.Mat2.mul": "__mul__", "matalg.cone_classify": None,
    "matalg.ratio_invariant": None,
    "classify.classify_general": None, "classify.classify_multilinear": None,
    "classify.classify_semihomogeneous": None, "classify.unit_evaluations": None,
    "classify.span_dimension": None,
    "oracle.get_table": None, "oracle.naive_image": None,
    "oracle.fast_multilinear_image": None, "oracle.check_image_invariance": None,
    "oracle.build_report": None, "oracle.cross_check": None,
    "oracle.verify_alternating_trace": None,
    "corpus.run_entry": None,
}
ROOT = "cli.main"
WITNESS_PARENT = "classify.classify_semihomogeneous"
WITNESS_CHILD = "generic.eval_on_matrices"


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.parent = array.array("l")
        self.name = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.tags: dict[int, str] = {}

    def wrap(self, fn, span: str, tag=None):
        nid = len(self.names)
        self.names.append(span)
        parent, name, start, end = self.parent, self.name, self.start, self.end
        stack, tags, clock = self.stack, self.tags, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            name.append(nid)
            end.append(0.0)
            if tag is not None:
                tags[i] = tag(*args, **kwargs)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
        return wrapper

    def summary(self) -> dict:
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        spans = {s: {"self_s": 0.0, "total_s": 0.0, "calls": 0} for s in self.names}
        witness_evals = 0
        for i in range(n):
            dur = end[i] - start[i]
            rec = spans[self.names[name[i]]]
            rec["self_s"] += dur - child[i]
            rec["total_s"] += dur
            rec["calls"] += 1
            p = parent[i]
            if (p >= 0 and self.names[name[i]] == WITNESS_CHILD
                    and self.names[name[p]] == WITNESS_PARENT):
                witness_evals += 1
        entries: dict[str, float] = {}
        for i, tag in self.tags.items():
            entries[tag] = entries.get(tag, 0.0) + end[i] - start[i]
        return {"spans": spans, "entries": entries, "witness_evals": witness_evals}


def install(rec: Recorder) -> list[str]:
    """Wrap every traced function at each of its bindings; return the spans
    whose function the program no longer has."""
    import polimage  # noqa: F401  (imports every layer)
    modules = [m for k, m in sorted(sys.modules.items())
               if (k == "polimage" or k.startswith("polimage.")) and m is not None]
    absent = []
    for span, attr in SPANS.items():
        mod_name, *path = span.split(".")
        owner = sys.modules[f"polimage.{mod_name}"]
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        key = attr or path[-1]
        fn = getattr(owner, key, None) if owner is not None else None
        if fn is None:
            absent.append(span)
            continue
        tag = (lambda entry, *a, **k: entry.name) if span == "corpus.run_entry" else None
        wrapper = rec.wrap(fn, span, tag)
        if len(path) > 1:
            setattr(owner, key, wrapper)
            continue
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is fn:
                            value[k] = wrapper
    return absent


def main(argv: list[str]) -> int:
    out_path, args = argv[0], argv[1:]
    import polimage.cli
    import_s = time.perf_counter() - _T0
    rec = Recorder()
    absent = install(rec)
    run = rec.wrap(polimage.cli.main, ROOT)
    code = 0
    try:
        run(args=args, prog_name="polimage", standalone_mode=True)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    finally:
        sys.stdout.flush()
        doc = rec.summary()
        doc.update({"import_s": import_s, "absent": absent})
        with open(out_path, "w") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

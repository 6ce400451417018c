"""The layer probes of perfbench still run against the library.

The probes time the boxed Scalar and the four-Scalar Mat2 form, which no
engine path uses, so nothing else in the suite would notice if they broke.
"""

import importlib.util
from pathlib import Path

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"
METRICS = [f"fields.{op}_ns.{tag}" for op in ("add", "mul", "inverse")
           for tag in ("Q", "Fp", "Fp2")] + [
    "matalg.mat2_mul_us.Q", "matalg.mat2_mul_us.Fp", "generic.compoly_mul_ms"]


def test_run_probes_reports_every_metric():
    spec = importlib.util.spec_from_file_location("probes", PROBES)
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    out = probes.run_probes()
    assert sorted(out) == sorted(METRICS)
    assert all(value > 0 for value, _unit in out.values())

"""The span tracer of perfbench, run end to end on short commands."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ARGS = ["classify", "[x1,x2]^2*x1", "-m", "2"]
LAUNCH = "import sys; from polimage.cli import main; sys.exit(main(prog_name='polimage'))"
SPANS = ["freealg.parse_poly", "freealg.infer_weights", "classify.classify_general",
         "classify.classify_semihomogeneous", "generic.generic_eval", "generic.ComPoly.mul",
         "generic.proportionality", "generic.eval_on_matrices", "matalg.Mat2.mul",
         "matalg.ratio_invariant"]


def trace(tmp_path, args: list[str]) -> dict:
    """The tracer's summary of one command, after checking that tracing
    left its stdout and exit code alone."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    out = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"),
                             str(out), *args], capture_output=True, env=env, timeout=60)
    plain = subprocess.run([sys.executable, "-c", LAUNCH, *args],
                           capture_output=True, env=env, timeout=60)
    assert traced.returncode == 0 and plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    doc = json.loads(out.read_text())
    assert doc["absent"] == []
    return doc


def test_tracer_runs_a_command(tmp_path):
    doc = trace(tmp_path, ARGS)
    assert all(doc["spans"][s]["calls"] > 0 for s in SPANS)
    assert doc["witness_evals"] == 990


@pytest.mark.parametrize("args, image", [
    (["enumerate", "[x1,x2]", "-m", "2", "-q", "3"], "oracle.fast_multilinear_image"),
    (["enumerate", "[x1,x2]^2", "-m", "2", "-q", "2"], "oracle.naive_image"),
])
def test_tracer_spans_the_oracle(tmp_path, args, image):
    doc = trace(tmp_path, args)
    spans = ["oracle.get_table", image, "oracle.check_image_invariance",
             "oracle.build_report", "matalg.cone_classify"]
    assert all(doc["spans"][s]["calls"] > 0 for s in spans)

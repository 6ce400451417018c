"""The span tracer of perfbench, run end to end on one short command."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARGS = ["classify", "[x1,x2]^2*x1", "-m", "2"]
LAUNCH = "import sys; from polimage.cli import main; sys.exit(main(prog_name='polimage'))"
SPANS = ["freealg.parse_poly", "freealg.infer_weights", "classify.classify_general",
         "classify.classify_semihomogeneous", "generic.generic_eval", "generic.ComPoly.mul",
         "generic.proportionality", "generic.eval_on_matrices", "matalg.Mat2.mul",
         "matalg.ratio_invariant"]


def test_tracer_runs_a_command(tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    out = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"),
                             str(out), *ARGS], capture_output=True, env=env, timeout=60)
    plain = subprocess.run([sys.executable, "-c", LAUNCH, *ARGS],
                           capture_output=True, env=env, timeout=60)
    assert traced.returncode == 0 and plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    doc = json.loads(out.read_text())
    assert doc["absent"] == []
    assert all(doc["spans"][s]["calls"] > 0 for s in SPANS)
    assert doc["witness_evals"] == 990

"""polimage benchmark: fixed sequences of CLI commands, run as a closed loop.

Usage, from the root of a polimage checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One benchmark process starts one fresh ``polimage`` process at a time and
waits for it.  A round is the workload's whole command sequence; rounds
repeat until the round boundary nearest to S seconds, so every run
attempts whole rounds.  Before every round, and once at the start, a
no-op ``corpus --list`` times the program's start-up.  Every output is
checked against refcheck, which shares no code with the program.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics: the end-to-end ones with
``--trace 0``; with ``--trace 1``, the per-layer ones from a traced round,
the layer probes and the tracing overhead.  Per-command detail and the
trace go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

LAUNCH = "import sys; from polimage.cli import main; sys.exit(main(prog_name='polimage'))"
LAYERS = ("freealg", "matalg", "generic", "classify", "oracle", "corpus", "cli")

class Runner:
    """Starts one polimage process at a time and collects its resource use."""

    def __init__(self, src: str, results: str):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.stderr_path = os.path.join(results, "last_stderr.txt")
        self.trace_path = os.path.join(results, "span_summary.json")

    def run(self, args: list[str], traced: bool = False) -> dict:
        if traced:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), self.trace_path, *args]
        else:
            argv = [sys.executable, "-c", LAUNCH, *args]
        with open(self.stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=self.env)
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        rec = {"args": args, "wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
               "maxrss_kb": ru.ru_maxrss, "code": proc.returncode, "doc": None}
        try:
            rec["doc"] = json.loads(out)
        except ValueError:
            pass
        if rec["code"] != 0 or rec["doc"] is None:
            with open(self.stderr_path, errors="replace") as fh:
                rec["stderr_tail"] = fh.read()[-400:]
        if traced and os.path.exists(self.trace_path):
            with open(self.trace_path) as fh:
                rec["trace"] = json.load(fh)
            os.remove(self.trace_path)
        return rec


class Tally:
    """Counts attempted and failed commands and whether outputs checked out."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def judge(self, cmd, rec: dict):
        from refcheck import CheckFailure
        self.attempted += 1
        if rec["code"] != 0 or rec["doc"] is None:
            self.failed += 1
            self.problems.append(f"{cmd.label}: exit {rec['code']}, no result: "
                                 f"{rec.get('stderr_tail', '').strip()}")
            return
        try:
            cmd.check(rec["doc"])
        except (CheckFailure, KeyError, TypeError, ValueError) as e:
            self.correct = False
            self.problems.append(f"{cmd.label}: {type(e).__name__}: {e}")


def run_round(runner: Runner, commands, tally: Tally, traced: bool = False) -> list[dict]:
    recs = []
    for cmd in commands:
        rec = runner.run(cmd.args, traced)
        rec["label"] = cmd.label
        tally.judge(cmd, rec)
        recs.append(rec)
    return recs


def best(rounds: list[list[dict]], key: str) -> list[float]:
    """Each command's smallest value over the run's rounds.

    CPU speed on a shared host drifts in phases of seconds, so the best of
    several rounds, taken per command, is what repeats between runs.
    """
    return [min(r[i][key] for r in rounds) for i in range(len(rounds[0]))]


def end_to_end(setups: list[float], rounds: list[list[dict]]) -> dict:
    walls = best(rounds, "wall_s")
    return {
        "setup_s": (min(setups), "s"),
        "total_s": (sum(walls), "s"),
        "median_command_s": (statistics.median(walls), "s"),
        "cpu_s": (sum(best(rounds, "cpu_s")), "s"),
        "peak_rss_mb": (max(c["maxrss_kb"] for r in rounds for c in r) / 1024.0, "MB"),
    }


def span_metrics(recs: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced round, summed over its commands."""
    from tracer import SPANS
    from workloads import CORPUS_RUN
    recs = [r for r in recs if "trace" in r]
    out: dict[str, float] = {}
    for span in SPANS:
        out[f"{span}.self_s"] = sum(r["trace"]["spans"].get(span, {}).get("self_s", 0.0)
                                    for r in recs)
        out[f"{span}.calls"] = sum(r["trace"]["spans"].get(span, {}).get("calls", 0)
                                   for r in recs)
    for entry in CORPUS_RUN:
        out[f"corpus.run_entry.{entry}.s"] = sum(r["trace"]["entries"].get(entry, 0.0)
                                                 for r in recs)
    out["classify.witness_evals"] = sum(r["trace"]["witness_evals"] for r in recs)
    # a layer's self time: its spans' self time; the cli layer also owns the
    # import and the command's root span
    layer = {name: 0.0 for name in LAYERS}
    for r in recs:
        for span, v in r["trace"]["spans"].items():
            layer[span.split(".")[0]] += v["self_s"]
        layer["cli"] += r["trace"]["import_s"]
    for name, v in layer.items():
        out[f"layer.{name}.self_s"] = v
    return out


def per_layer(rounds_plain, rounds_traced, required: list[str]) -> dict:
    """Per-layer metrics: the best of the traced rounds for each number."""
    samples = [span_metrics(r) for r in rounds_traced]
    absent = set().union(*(set(c["trace"]["absent"]) for r in rounds_traced for c in r
                           if "trace" in c))
    missing = [s for s in required if s not in absent and samples[0][f"{s}.calls"] == 0]
    if missing:
        raise SystemExit(f"perfbench: spans never hit on this workload: {missing}")
    if absent:
        print(f"perfbench: the program has no {sorted(absent)}; reported as 0",
              file=sys.stderr)
    out = {}
    for key in samples[0]:
        unit = ("count" if key.endswith(".calls") or key == "classify.witness_evals"
                else "s")
        out[key] = (min(s[key] for s in samples), unit)
    plain = sum(best(rounds_plain, "wall_s"))
    traced = sum(best(rounds_traced, "wall_s"))
    out["trace.total_s"] = (traced, "s")
    out["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    # on SIGTERM, unwind so that the running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "polimage", "cli.py")):
        print("perfbench: no src/polimage here; run from the root of a polimage checkout",
              file=sys.stderr)
        return 2
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    runner = Runner(src, results)

    def no_op() -> dict:
        """The set-up sample: a command that does no work, in a fresh process."""
        rec = runner.run(["corpus", "--list"])
        if rec["code"] != 0 or rec["doc"] is None:
            raise SystemExit("perfbench: polimage does not start")
        return rec

    # the host's speed drifts in phases longer than a burst of samples, so
    # set-up is sampled here and again before every round
    first = no_op()
    setups = [first]
    import workloads
    if opts.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {opts.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    listed = [e["name"] for e in first["doc"].get("entries", [])]
    if listed != list(workloads.CORPUS):
        print(f"perfbench: unexpected corpus entries {listed}", file=sys.stderr)
        return 1

    commands = workloads.WORKLOADS[opts.workload](opts.seed)
    tally = Tally()
    plain_rounds, traced_rounds = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        setups.append(no_op())
        plain_rounds.append(run_round(runner, commands, tally))
        if opts.trace:
            traced_rounds.append(run_round(runner, commands, tally, traced=True))
        now = time.perf_counter()
        # stop at the round boundary nearest to the deadline
        if now - start + (now - began) / 2 >= opts.seconds:
            break

    if opts.trace:
        from probes import run_probes
        sys.path.insert(0, src)
        metrics = per_layer(plain_rounds, traced_rounds,
                            workloads.REQUIRED_SPANS[opts.workload])
        metrics.update(run_probes())
    else:
        metrics = end_to_end([r["wall_s"] for r in setups], plain_rounds)

    tag = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    detail = {"workload": opts.workload, "seed": opts.seed,
              "setup_s": [r["wall_s"] for r in setups],
              "problems": tally.problems,
              "rounds": [[{k: v for k, v in c.items() if k != "doc"} for c in r]
                         for r in plain_rounds + traced_rounds]}
    with open(os.path.join(results, f"{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for p in tally.problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

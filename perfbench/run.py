"""The shacl2fol benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workloads are
corpus-validate, static-analysis and graph-scale (see README.md).  A
run makes the workload's inputs from the seed in a work directory under
perfbench/, times fresh starts for `setup_s`, then serves the
workload's requests in one child process per hash seed, one child at a
time, and checks every answer.  With `--trace 0` it prints the
end-to-end metrics; with `--trace 1` it serves the same requests again
with per-layer spans and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--short` serves a small slice under one hash seed, for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

import workloads
from child import reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_STARTS_PER_CHILD = 2
RUN_LIMIT_S = 170.0
# The reference loop's time on the machine the bounds were set on.  Every
# time metric is a measured time scaled by REFERENCE_S over the loop's
# time around that measurement: seconds at a fixed machine speed.
REFERENCE_S = 0.002

PROBE = (
    "import sys, json\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from shacl2fol.cli import main\n"
    "sys.exit(main(json.loads(sys.argv[2])))\n"
)


class RunError(Exception):
    pass


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise RunError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return left


def _env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def fresh_start(w: workloads.Workload, hash_seed: int,
                deadline: Deadline) -> tuple[float, float]:
    """Seconds from a fresh interpreter to the smallest request answered,
    and the reference loop's time around it."""
    before = reference_s()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), json.dumps(w.probe)],
        env=_env(hash_seed), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=deadline.left(),
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != w.probe_code:
        raise RunError(f"set-up request exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, (before + reference_s()) / 2


def run_child(w: workloads.Workload, hash_seed: int, ops, rounds: int, trace: bool,
              work: Path, deadline: Deadline) -> dict:
    tag = f"h{hash_seed}{'_traced' if trace else ''}"
    plan_path, result_path = work / f"{tag}.plan.json", work / f"{tag}.result.json"
    plan = {
        "src": str(SRC), "trace": trace, "rounds": rounds,
        "warmup": [op.spec() for op in w.warmup],
        "ops": [op.spec() for op in ops],
    }
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(plan_path), str(result_path)],
        env=_env(hash_seed), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=deadline.left(),
    )
    if proc.returncode != 0:
        raise RunError(f"child {tag} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def serve(w: workloads.Workload, rounds: int, trace: bool, work: Path,
          deadline: Deadline, setup: Optional[list] = None) -> list[dict]:
    """Every child in turn.  With a `setup` list, fresh starts are timed
    before each child, so they sample the same stretch of time as the
    requests."""
    results = []
    for h, ops in w.children:
        if setup is not None:
            for _ in range(SETUP_STARTS_PER_CHILD):
                setup.append(fresh_start(w, h, deadline))
        results.append(run_child(w, h, ops, rounds, trace, work, deadline))
    return results


def check(w: workloads.Workload, results: list[dict]):
    """(attempted, failures, wrong) over every timed request."""
    attempted, failures, wrong = 0, [], []
    for result in results:
        for rec in result["records"]:
            attempted += 1
            op = w.ops[rec["id"]]
            outcome, detail = op.check(rec)
            if outcome == "failed":
                failures.append((op.fault or "unexpected", rec["id"], detail))
            elif outcome == "wrong":
                wrong.append((rec["id"], detail))
    return attempted, failures, wrong


def end_to_end(results: list[dict], setup: list, scaled: bool = True) -> dict:
    """The end-to-end metrics; `scaled` times are at the reference speed."""
    def t(seconds: float, ref_s: float) -> float:
        return seconds * REFERENCE_S / ref_s if scaled else seconds

    times = [t(rec["s"], rec["ref_s"]) for r in results for rec in r["records"]]
    return {
        "setup_s": (statistics.median(t(s, ref) for s, ref in setup), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
        "ops_per_s": (len(times) / sum(times), "ops/s"),
        # the median child: the child that serves F4 peaks at 52 or 67 MB,
        # depending on where the clock cuts F4's grounding
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }


SELF_TIMES = {
    "rdf.parse_s": "rdf.parse",
    "shapes.extract_s": "shapes.extract",
    "shapes.recursion_s": "shapes.recursion",
    "translate.translate_s": "translate.translate",
    "tptp.build_s": "tptp.build",
    "tptp.render_s": "tptp.render",
    "decide.write_s": "decide.write",
    "decide.self_s": "decide",
    "tptp_parse.parse_s": "tptp_parse.parse",
    "clausify.clausify_s": "clausify.clausify",
    "miniprover.refute_s": "miniprover.refute",
    "miniprover.find_model_s": "miniprover.find_model",
    "sat.solve_s": "sat.solve",
    "oracle.evaluate_s": "oracle.evaluate",
    "cli.self_s": "cli",
}
COUNTS = {
    "translate.sentences": "count",
    "tptp.units": "count",
    "tptp.bytes": "bytes",
    "clausify.clauses": "count",
    "miniprover.refute_calls": "count",
    "miniprover.find_model_calls": "count",
    "miniprover.budget_cuts": "count",
    "sat.calls": "count",
    "sat.ground_clauses": "count",
    "sat.variables": "count",
}


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    self_s, counts = {}, {}
    for r in traced:
        for k, v in r["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in r["counts"].items():
            counts[k] = counts.get(k, 0) + v

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {name: (self_s.get(layer, 0.0), "s") for name, layer in SELF_TIMES.items()}
    metrics.update({name: (counts.get(name, 0), unit) for name, unit in COUNTS.items()})
    metrics["rdf.triples_per_s"] = (
        ratio(counts.get("rdf.triples", 0), self_s.get("rdf.parse", 0.0)), "triples/s")
    metrics["tptp_parse.bytes_per_s"] = (
        ratio(counts.get("tptp_parse.bytes", 0), self_s.get("tptp_parse.parse", 0.0)), "B/s")
    metrics["oracle.triples_per_s"] = (
        ratio(counts.get("oracle.triples", 0), self_s.get("oracle.evaluate", 0.0)), "triples/s")
    metrics["miniprover.refute_useful"] = (
        ratio(counts.get("miniprover.refute_conclusive", 0),
              counts.get("miniprover.refute_calls", 0)), "ratio")
    metrics["miniprover.find_model_useful"] = (
        ratio(counts.get("miniprover.find_model_models", 0),
              counts.get("miniprover.find_model_calls", 0)), "ratio")

    def busy(results):  # at the reference speed, as the end-to-end times
        return sum(rec["s"] / rec["ref_s"] for r in results for rec in r["records"])

    metrics["trace.overhead"] = (100.0 * (busy(traced) / busy(plain) - 1.0), "%")
    return metrics


def run(args) -> dict:
    HERE.joinpath(".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    deadline = Deadline(RUN_LIMIT_S)
    try:
        w = workloads.BUILDERS[args.workload](args.seed, work, short=args.short)
        rounds = 1 if args.short else max(1, round(args.seconds / workloads.ROUND_S[w.name]))
        setup: list[tuple[float, float]] = []
        # one untimed fresh start first: it compiles the byte code
        fresh_start(w, workloads.HASH_SEEDS[0], deadline)
        plain = serve(w, rounds, False, work, deadline, None if args.trace else setup)
        if args.trace:
            traced = serve(w, rounds, True, work, deadline)
        # the counts come from the untraced pass; the traced pass must
        # give the same answers
        attempted, failures, wrong = check(w, plain)
        if args.trace:
            _, traced_failures, traced_wrong = check(w, traced)
            failing = {op_id for _, op_id, _ in failures}
            wrong += traced_wrong + [(op_id, f"traced: {detail}")
                                     for _, op_id, detail in traced_failures
                                     if op_id not in failing]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass

    for fault, op_id, detail in failures:
        print(f"failed {fault}: {op_id}: {detail}", file=sys.stderr)
    for op_id, detail in wrong:
        print(f"WRONG {op_id}: {detail}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(traced, plain)
    else:
        metrics = end_to_end(plain, setup)
        unscaled = end_to_end(plain, setup, scaled=False)
        reference_ms = 1000 * statistics.median(
            rec["ref_s"] for r in plain for rec in r["records"])
        print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, (v, _) in unscaled.items())
              + f"; reference loop {reference_ms:.3f} ms", file=sys.stderr)
    print(f"{w.name}: seed {args.seed}, {rounds} round(s), hash seeds "
          f"{[h for h, _ in w.children]}, attempted {attempted}, failed {len(failures)}",
          file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "shacl2fol" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'shacl2fol'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

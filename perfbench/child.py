"""One workload child: serves its requests in process, one after another.

Usage: python3 child.py PLAN.json RESULT.json

The plan names the package's source directory, whether to trace, the
number of rounds, the untimed warm-up requests and the timed requests.
Each request is an argument list for `shacl2fol.cli.main` or
`shacl2fol.miniprover.main`; its printed output is captured.  The string
`{round}` in an argument is replaced by the round number.  The result
file gets each request's exit code, output and time, the time of the
reference loop around it, the timed wall time, the peak resident memory
and, when traced, the per-layer totals.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

REFERENCE_ITERATIONS = 20_000


def reference_s() -> float:
    """The fastest of three runs of a fixed pure-Python loop.

    The loop never touches the package, so its time follows only the speed
    of the machine at that moment.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        s = 0
        for i in range(REFERENCE_ITERATIONS):
            s += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from shacl2fol import cli, miniprover

    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    modules = {"cli": cli, "miniprover": miniprover}

    def serve(op: dict, round_no: int) -> dict:
        argv = [a.replace("{round}", str(round_no)) for a in op["argv"]]
        out = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                # looked up per call: tracing replaces the entry points
                code = modules[op["entry"]].main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
        except Exception as exc:  # a crash is a failed request, not a failed run
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        return {"id": op["id"], "round": round_no, "code": code,
                "out": out.getvalue(), "error": error, "s": elapsed}

    for op in plan["warmup"]:
        serve(op, -1)
    if tracer is not None:
        tracer.reset()
    records = []
    probes = []
    for round_no in range(plan["rounds"]):
        for op in plan["ops"]:
            probes.append(reference_s())
            records.append(serve(op, round_no))
    probes.append(reference_s())
    for rec, before, after in zip(records, probes, probes[1:]):
        rec["ref_s"] = (before + after) / 2
    result = {
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["self_s"] = dict(tracer.self_s)
        result["counts"] = dict(tracer.counts)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))

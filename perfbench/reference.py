"""Reference figures for the README, each from fresh processes.

    python3 perfbench/reference.py

Run from the root of a source checkout.  It prints

* the verdict time of the acceptance containment SHAPES_TWO_TARGETS in
  SHAPES_ONE_TARGET and of F3 and F4 under each hash seed of the
  benchmark, at the static-analysis timeout and at 10 s;
* the first, second and third parse of the largest graph-scale problem
  in one process (the first call is cold).

It writes only into a work directory under perfbench/ that it removes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import graphs
import static_cases
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

VERDICT_TIME = """
import io, contextlib, json, sys, time
sys.path.insert(0, sys.argv[1])
from shacl2fol import cli
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    cli.main(json.loads(sys.argv[2]))
print(json.dumps([json.loads(out.getvalue())["verdict"], time.perf_counter() - start]))
"""

PARSE_TIMES = """
import io, contextlib, json, sys, time
sys.path.insert(0, sys.argv[1])
from shacl2fol import cli
from shacl2fol.tptp_parse import parse_tptp
shapes, data, problem = sys.argv[2:5]
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["emit", "validate", shapes, data, "--out", problem])
text = open(problem, encoding="utf-8").read()
times = []
for _ in range(3):
    start = time.perf_counter()
    parse_tptp(text)
    times.append(time.perf_counter() - start)
print(json.dumps([len(text.encode("utf-8")), times]))
"""


def _python(code: str, *args: str, hash_seed: int = 0):
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC), *args], capture_output=True,
        text=True, timeout=170, env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
    )
    proc.check_returncode()
    return json.loads(proc.stdout)


def main() -> int:
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=HERE / ".work"))
    try:
        problems = {p.name: p for p in static_cases.FIXED}
        for name in ("accept_drop_target", "F3_max_count_containment",
                     "F4_class_targeted_sat"):
            p = problems[name]
            paths = []
            for k, text in enumerate(p.shapes):
                paths.append(str(work / f"{name}.{k}.ttl"))
                Path(paths[-1]).write_text(text, encoding="utf-8")
            for timeout in (workloads.STATIC_TIMEOUT, 10):
                argv = [p.command, *paths, "--prover", "builtin", "--timeout",
                        str(timeout), "--json", "--out", str(work / "problem.p")]
                row = []
                for h in workloads.HASH_SEEDS:
                    verdict, seconds = _python(VERDICT_TIME, json.dumps(argv), hash_seed=h)
                    row.append(f"h{h} {verdict} {seconds:.2f} s")
                print(f"{name} --timeout {timeout}: " + "; ".join(row))
        people = workloads.LADDER[0][0]
        g = graphs.make_graph(people, False, False, random.Random(0))
        shapes, data = work / "g.shapes.ttl", work / "g.data.ttl"
        shapes.write_text(g.shapes_ttl(), encoding="utf-8")
        data.write_text(g.data_ttl(), encoding="utf-8")
        size, times = _python(PARSE_TIMES, str(shapes), str(data), str(work / "g.p"))
        print(f"parse_tptp on the {len(g.triples)}-triple problem ({size} bytes): "
              + ", ".join(f"call {i + 1} {t:.2f} s" for i, t in enumerate(times)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

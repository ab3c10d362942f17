"""The three workloads: their inputs, requests and independent checks.

A workload is split over one child process per hash seed.  Every
request is checked against an answer computed apart from the program:
hand-derived verdicts, verdicts that follow from the SHACL semantics by
construction, verdicts of the benchmark's own evaluator, and, on
graph-scale, the violations planted in the data and the triples written
to the data file.  A check returns an outcome and a detail:

* `ok`: the answer is right;
* `failed`: no answer (Unknown, an error exit or a crash), or a known
  fault's wrong answer;
* `wrong`: a decided answer that is wrong, which makes the run incorrect.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import corpus_cases
import graphs
import static_cases

# Every child runs under one of these hash seeds, the same in every run:
# the prover's work follows string hashing, so a seed-dependent list
# would move that spread between runs instead of keeping it inside each.
HASH_SEEDS = (0, 1, 2, 3)

CORPUS_TIMEOUT = 10
STATIC_TIMEOUT = 3
# Nominal length of one round on a 2-core machine; a run makes
# round(seconds / ROUND_S) rounds, at least one, so a run's requests do
# not depend on the speed of the machine.
ROUND_S = {"corpus-validate": 18.0, "static-analysis": 18.0, "graph-scale": 20.0}

POSITIVE = {"Satisfiable", "Contained", "Conforms"}


@dataclass
class Op:
    id: str
    entry: str  # cli | miniprover
    argv: list[str]
    check: Callable[[dict], tuple[str, str]]
    fault: Optional[str] = None

    def spec(self) -> dict:
        return {"id": self.id, "entry": self.entry, "argv": self.argv}


@dataclass
class Workload:
    name: str
    children: list[tuple[int, list[Op]]]  # (hash seed, timed requests)
    warmup: list[Op]
    probe: list[str]  # the smallest request, for set-up time
    probe_code: int  # its expected exit code
    ops: dict[str, Op] = field(default_factory=dict)

    def __post_init__(self):
        for _, ops in self.children:
            for op in ops:
                self.ops[op.id] = op


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def decision_check(expected: str, fault: Optional[str] = None):
    def check(rec: dict) -> tuple[str, str]:
        if rec["code"] not in (0, 1, 2):
            return "failed", f"exit {rec['code']} {rec['error'] or ''}".strip()
        verdict = json.loads(rec["out"])["verdict"]
        want_code = 2 if verdict == "Unknown" else 0 if verdict in POSITIVE else 1
        if rec["code"] != want_code:
            return "wrong", f"exit {rec['code']} for {verdict}"
        if verdict == expected:
            return "ok", verdict
        if fault is not None or verdict == "Unknown":
            return "failed", f"{verdict}, expected {expected}"
        return "wrong", f"{verdict}, expected {expected}"
    return check


# --- corpus-validate ---------------------------------------------------------

def corpus_validate(seed: int, work: Path, short: bool = False) -> Workload:
    d = work / "corpus"
    d.mkdir()

    def request(c, h: int, out: str) -> list[str]:
        shapes = _write(d / f"{c.name}.h{h}.shapes.ttl", c.shapes_ttl)
        data = _write(d / f"{c.name}.h{h}.data.ttl", c.data_ttl)
        argv = ["validate", shapes, data, "--prover", "builtin",
                "--timeout", str(CORPUS_TIMEOUT), "--json", "--out", out]
        return argv + (["--star", "ground"] if c.star_ground else [])

    children = []
    for k, h in enumerate(HASH_SEEDS[:1] if short else HASH_SEEDS):
        # every child draws its own random cases, so a run averages over
        # four draws of the seed
        cases = corpus_cases.corpus(seed, part=k)
        if short:
            cases = cases[::10]
        out = str(d / f"h{h}.p")
        children.append((h, [
            Op(f"{c.name}@h{h}", "cli", request(c, h, out),
               decision_check("Conforms" if c.conforms else "DoesNotConform"))
            for c in cases
        ]))
    first = corpus_cases.HAND_WRITTEN[0]
    warm = Op("warmup", "cli", request(first, -1, str(d / "warmup.p")),
              decision_check("Conforms" if first.conforms else "DoesNotConform"))
    probe = request(first, -1, str(d / "probe.p"))
    return Workload("corpus-validate", children, [warm], probe,
                    0 if first.conforms else 1)


# --- static-analysis ---------------------------------------------------------

# too slow for the short mode: each ends by a clock-cut model search
_SLOW = {"accept_self_one_target", "accept_drop_target", "F4_class_targeted_sat"}


def static_analysis(seed: int, work: Path, short: bool = False) -> Workload:
    problems = static_cases.problems(seed)
    if short:
        problems = [p for p in problems if p.name not in _SLOW]
    d = work / "static"
    d.mkdir()

    def request(p, out: str) -> list[str]:
        paths = [_write(d / f"{p.name}.{k}.ttl", text)
                 for k, text in enumerate(p.shapes)]
        argv = [p.command, *paths, "--prover", "builtin",
                "--timeout", str(STATIC_TIMEOUT), "--json", "--out", out]
        return argv + (["--strong-sat"] if p.strong_sat else [])

    hash_seeds = HASH_SEEDS[:1] if short else HASH_SEEDS
    children = [(h, []) for h in hash_seeds]
    single = 0
    for p in problems:
        if p.all_hash_seeds:
            owners = children
        else:
            # a slow problem runs under one hash seed per round
            owners = [children[single % len(children)]]
            single += 1
        for h, ops in owners:
            ops.append(Op(f"{p.name}@h{h}", "cli", request(p, str(d / f"h{h}.p")),
                          decision_check(p.expected, p.fault), p.fault))
    by_name = {p.name: p for p in problems}
    warm = [Op(f"warmup_{name}", "cli", request(by_name[name], str(d / "warmup.p")),
               decision_check(by_name[name].expected))
            for name in ("accept_sat_empty", "accept_self_empty")]
    probe = request(by_name["accept_sat_empty"], str(d / "probe.p"))
    return Workload("static-analysis", children, warm, probe, 0)


# --- graph-scale -------------------------------------------------------------

# (people, with the inverse-path shape); four triples per person.  The
# largest graph comes first in every child: the first parse of a large
# problem in a process is cold (the allocator has not yet grown its heap
# for the tokenizer's suffix copies), and this way the same request pays
# for it in every run.
LADDER = [(450, False), (250, False), (150, False), (100, False), (75, False),
          (50, False), (40, True), (25, True), (20, True)]

_POS_UNIT = re.compile(r"^tff\(graph_pos_\d+, axiom, (.*)\)\.$")
_QUOTED = r"'((?:[^'\\]|\\.)*)'"
_ATOM = re.compile(rf"^(?:{_QUOTED}|([a-z][A-Za-z0-9_]*))\({_QUOTED}, {_QUOTED}\)$")


def _unquote(s: str) -> str:
    return re.sub(r"\\(.)", r"\1", s)


def problem_graph_atoms(text: str) -> list[tuple[str, str, str]]:
    """The (role, subject, object) symbols of the `graph_pos_*` units."""
    atoms = []
    for line in text.splitlines():
        unit = _POS_UNIT.match(line)
        if unit is None:
            continue
        m = _ATOM.match(unit.group(1))
        if m is None:
            raise ValueError(f"not a binary ground atom: {line}")
        role = _unquote(m.group(1)) if m.group(1) is not None else m.group(2)
        atoms.append((role, _unquote(m.group(3)), _unquote(m.group(4))))
    return atoms


def oracle_check(g: graphs.ScaleGraph):
    def check(rec: dict) -> tuple[str, str]:
        if rec["code"] not in (0, 1):
            return "failed", f"exit {rec['code']} {rec['error'] or ''}".strip()
        report = json.loads(rec["out"])
        got = {(v["shape"], v["focusNode"]) for v in report["violations"]}
        if got != g.planted or report["conforms"] != (not g.planted) \
                or rec["code"] != (1 if g.planted else 0):
            return "wrong", f"{len(got)} violations, {len(g.planted)} planted"
        return "ok", f"{len(got)} violations"
    return check


def emit_check(g: graphs.ScaleGraph, problem: str):
    want = graphs.expected_graph_atoms(g)

    def check(rec: dict) -> tuple[str, str]:
        if rec["code"] != 0:
            return "failed", f"exit {rec['code']} {rec['error'] or ''}".strip()
        path = problem.replace("{round}", str(rec["round"]))
        with open(path, encoding="utf-8") as fh:
            atoms = problem_graph_atoms(fh.read())
        if len(atoms) != len(want) or set(atoms) != want:
            return "wrong", f"{len(atoms)} graph atoms for {len(want)} triples"
        return "ok", f"{len(atoms)} graph atoms"
    return check


def parse_check(rec: dict) -> tuple[str, str]:
    if rec["code"] != 0:
        return "failed", f"exit {rec['code']} {rec['error'] or ''}".strip()
    if "% SZS status Success" not in rec["out"]:
        return "wrong", rec["out"].strip()
    return "ok", "parsed"


def graph_scale(seed: int, work: Path, short: bool = False) -> Workload:
    d = work / "graph"
    d.mkdir()

    def requests(tag: str, g: graphs.ScaleGraph) -> list[Op]:
        shapes = _write(d / f"{tag}.shapes.ttl", g.shapes_ttl())
        data = _write(d / f"{tag}.data.ttl", g.data_ttl())
        problem = str(d / f"{tag}.r{{round}}.p")
        return [
            Op(f"{tag}.oracle", "cli", ["oracle", shapes, data, "--json"],
               oracle_check(g)),
            Op(f"{tag}.emit", "cli",
               ["emit", "validate", shapes, data, "--json", "--out", problem],
               emit_check(g, problem)),
            Op(f"{tag}.parse", "miniprover", [problem, "--parse-only"], parse_check),
        ]

    ladder = LADDER[-2:] if short else LADDER
    children = []
    smallest = None  # the set-up request: the oracle on the smallest graph
    for k, h in enumerate(HASH_SEEDS[:1] if short else HASH_SEEDS):
        ops = []
        for i, (people, inverse) in enumerate(ladder):
            rng = random.Random(f"graph-scale/{seed}/{h}/{i}")
            violating = (i + k) % 2 == 1  # each size conforms under half the seeds
            g = graphs.make_graph(people, violating, inverse, rng)
            ops += requests(f"h{h}_g{i}_{len(g.triples)}t", g)
            if smallest is None or people < smallest[1].people:
                smallest = (ops[-3], g)
        children.append((h, ops))
    tiny = graphs.make_graph(10, True, True, random.Random(f"warmup/{seed}"))
    oracle_op, g = smallest
    return Workload("graph-scale", children, requests("warmup", tiny),
                    oracle_op.argv, 1 if g.planted else 0)


BUILDERS = {
    "corpus-validate": corpus_validate,
    "static-analysis": static_analysis,
    "graph-scale": graph_scale,
}
